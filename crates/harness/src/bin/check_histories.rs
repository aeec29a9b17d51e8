//! Experiment E6 — machine-checked Theorem 1: record real concurrent
//! executions of the DSS queue (with and without crashes) and verify
//! strict linearizability w.r.t. `D⟨queue⟩`.
//!
//! ```text
//! cargo run -p dss-harness --release --bin check_histories -- --seed 1
//! ```
//!
//! The default `--mode partitioned` checks every recorded history **in
//! full** — plain-operation runs through the near-linear FIFO fast path,
//! `D⟨queue⟩` runs through the segmented frontier-threading pipeline —
//! so executions run thousands of operations instead of being sized to
//! the classic checker's 63-op cap. `--mode monolithic` keeps the
//! original small-history ground-truth oracle. `--max-ops <n>` overrides
//! the per-window bound of the segmented search. Exits non-zero on the
//! first violation.

use dss_checker::{CheckOptions, Condition, Violation};
use dss_harness::cli::{self, CheckMode};
use dss_harness::crashsim::Layer;
use dss_harness::record::{
    check_plain, check_recorded, check_recorded_full, record_crash_execution, record_execution,
    record_phased_execution, record_plain_execution,
};

fn bail(what: &str, e: &Violation) -> ! {
    eprintln!("VIOLATION in {what}: {e}");
    std::process::exit(1);
}

fn main() {
    let args = cli::parse();
    let options = CheckOptions {
        max_window_ops: args.max_ops.unwrap_or(CheckOptions::default().max_window_ops),
    };
    let runs = 40;
    println!("# E6: strict linearizability of recorded DSS queue executions");
    let mut checked = 0usize;
    let mut ops = 0usize;
    match args.mode {
        CheckMode::Monolithic => {
            println!("# mode: monolithic (ground-truth oracle, histories sized to its cap)");
            for seed in args.seed..args.seed + runs {
                let h = record_execution(Layer::Cas, 3, 5, seed);
                ops += h.events().len() / 2;
                check_recorded(&h, Condition::Linearizability)
                    .unwrap_or_else(|e| bail(&format!("crash-free seed {seed}"), &e));
                checked += 1;

                let h = record_crash_execution(Layer::Cas, 2, 8, seed);
                ops += h.events().len() / 2;
                check_recorded(&h, Condition::StrictLinearizability)
                    .unwrap_or_else(|e| bail(&format!("crash seed {seed}"), &e));
                check_recorded(&h, Condition::PersistentAtomicity)
                    .unwrap_or_else(|e| bail(&format!("crash seed {seed} (PA)"), &e));
                checked += 1;
            }
        }
        CheckMode::Partitioned => {
            println!("# mode: partitioned (full-length histories, no sampling)");
            for seed in args.seed..args.seed + runs {
                // Phased D⟨queue⟩ run: barriers bound the windows, the
                // segmented pipeline checks all of it.
                let h = record_phased_execution(3, 40, 5, seed);
                let stats = check_recorded_full(&h, Condition::Linearizability, &options)
                    .unwrap_or_else(|e| bail(&format!("phased seed {seed}"), &e));
                ops += stats.ops;
                checked += 1;

                // Crash run, checked in full under both conditions.
                let h = record_crash_execution(Layer::Cas, 2, 8, seed);
                let stats = check_recorded_full(&h, Condition::StrictLinearizability, &options)
                    .unwrap_or_else(|e| bail(&format!("crash seed {seed}"), &e));
                check_recorded_full(&h, Condition::PersistentAtomicity, &options)
                    .unwrap_or_else(|e| bail(&format!("crash seed {seed} (PA)"), &e));
                ops += stats.ops;
                checked += 1;
            }
            // One large plain-operation run through the FIFO fast path —
            // the regime the monolithic checker could only sample.
            let h = record_plain_execution(Layer::Cas, 4, 2500, 8, args.seed);
            let stats = check_plain(&h, Condition::Linearizability, &options)
                .unwrap_or_else(|e| bail("plain 20k-op run", &e));
            println!(
                "# plain run: {} ops, fast_path={}, windows={}",
                stats.ops, stats.fast_path, stats.windows
            );
            ops += stats.ops;
            checked += 1;
        }
    }
    println!("ok: {checked} histories checked ({ops} operations), 0 violations");
}
