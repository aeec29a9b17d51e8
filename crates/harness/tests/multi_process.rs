//! Smoke test for the multi-process crash driver: spawns the real
//! `crash_matrix` binary (which handles the `--mp-child` victim role) for
//! every crash point of each victim op, SIGKILLs it mid-operation, and
//! attaches the pool file from this process. The full coalesce ×
//! per-address matrix runs in ci.sh; one permissive combo suffices here.

use std::path::Path;

use dss_harness::crashsim::{multi_process_sweep, SweepConfig};

#[test]
fn multi_process_sweep_has_no_violations() {
    let exe = Path::new(env!("CARGO_BIN_EXE_crash_matrix"));
    let config = SweepConfig { coalesce: true, per_address: true, ..Default::default() };
    for (op, out) in multi_process_sweep(&config, exe) {
        assert!(out.crash_points > 0, "{op}: no crash points?");
        assert_eq!(out.violations, 0, "{op}: {out:?}");
    }
}
