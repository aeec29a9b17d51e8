//! Every experiment binary refuses a flag it does not read: it exits
//! non-zero before doing any work, and its stderr names the program and
//! the refused argument.

use std::process::Command;

/// Runs `exe args` and asserts that `program` refused `arg`.
fn refuses(exe: &str, program: &str, args: &[&str], arg: &str) {
    let out = Command::new(exe).args(args).output().expect("spawning the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{program} {args:?} exited 0");
    assert!(stderr.contains(&format!("{program}: refused {arg}")), "{program} {args:?}: {stderr}");
}

#[test]
fn fig5a_refuses_per_address() {
    let args = ["--threads", "1", "--ms", "1", "--repeats", "1", "--per-address", "on"];
    refuses(env!("CARGO_BIN_EXE_fig5a"), "fig5a", &args, "--per-address");
}

#[test]
fn flush_counts_refuses_coalesce() {
    refuses(
        env!("CARGO_BIN_EXE_flush_counts"),
        "flush_counts",
        &["--coalesce", "on"],
        "--coalesce",
    );
}

#[test]
fn check_histories_refuses_layer() {
    let args = ["--mode", "monolithic", "--layer", "replicated"];
    refuses(env!("CARGO_BIN_EXE_check_histories"), "check_histories", &args, "--layer");
}

#[test]
fn recovery_time_refuses_threads() {
    refuses(env!("CARGO_BIN_EXE_recovery_time"), "recovery_time", &["--threads", "2"], "--threads");
}
