//! Experiment E4 (and E7) — the crash matrix: Figure 2 semantics,
//! exhaustively.
//!
//! Sweeps a crash over every pmem-operation index of each detectable
//! operation, recovers, resolves, and validates the answer against the
//! persisted state. `violations` must be zero.
//!
//! With `--partial-recovery on` it additionally runs the §3.3 partial
//! restart mode: multi-threaded crash runs in which only a subset of
//! threads comes back, each survivor recovers its own registry slot
//! independently, and one adopter reclaims every orphaned slot and
//! resolves its pending operation. The value-conservation invariant must
//! hold in every run.
//!
//! With `--multi-process on` the crash is a *real* process death: for
//! every crash point, this binary re-spawns itself as a victim child that
//! creates a file-backed pool and is SIGKILLed mid-operation; the parent
//! attaches the pool file with no in-process state and must recover and
//! resolve correctly. Swept across the coalesce × per-address flush
//! regimes (the knobs that widen what a kill can destroy).
//!
//! The matrix runs on either of the queue's two execution layers —
//! CAS-racing (default) or log-fed replicated — or on the detectable
//! hash map, selected with `--layer cas|replicated|map`; every table
//! comes from the same `Layer`-parameterised driver. The map sweeps
//! interrupt insert / update / remove / remove-absent victims and validate
//! `resolve` against the persisted bindings; its checked histories are
//! verified per key through `check_partitioned`.
//!
//! ```text
//! cargo run -p dss-harness --release --bin crash_matrix -- \
//!     [--granularity line|word] [--adversary none|all|random] [--seed 1] \
//!     [--coalesce on] [--per-address on] [--partial-recovery on] \
//!     [--multi-process on] [--layer cas|replicated|map]
//! ```
//!
//! `--coalesce on` re-runs the E4 sweep with write-behind coalescing armed
//! and annotates its header; `--per-address on` narrows its drains.

use dss_checker::{CheckOptions, CheckStats, Condition, Violation};
use dss_harness::cli::Flags;
use dss_harness::crashsim::{
    multi_process_child, multi_process_sweep, partial_recovery_crash_run, sweep, Layer,
    SweepConfig, SweepOutcome, MP_CHILD_FLAG,
};
use dss_harness::record::{
    check_map_history, check_plain, check_recorded_full, record_crash_execution,
    record_map_crash_execution, record_map_execution, record_map_partial_recovery_execution,
    record_partial_recovery_execution, record_plain_execution,
};

fn main() {
    // The child role must dispatch before ordinary flag parsing (which
    // panics on flags it does not know).
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(MP_CHILD_FLAG) {
        multi_process_child(&argv[2..]);
    }
    let flags = Flags::parse(
        "crash_matrix",
        &[
            "--granularity",
            "--adversary",
            "--seed",
            "--coalesce",
            "--per-address",
            "--partial-recovery",
            "--multi-process",
            "--layer",
        ],
        &[],
    );
    let first_seed = flags.value("--seed", 1);
    let base = SweepConfig {
        adversary: flags.adversary(first_seed),
        granularity: flags.granularity(),
        coalesce: flags.on("--coalesce"),
        per_address: flags.on("--per-address"),
        layer: flags.layer(),
        ..Default::default()
    };
    let partial_recovery = flags.on("--partial-recovery");
    let multi_process = flags.on("--multi-process");
    for independent in [false, true] {
        let config = SweepConfig { independent_recovery: independent, ..base.clone() };
        println!(
            "# E4 crash matrix: adversary={:?} granularity={:?} recovery={}{}{}{}",
            config.adversary,
            config.granularity,
            if independent { "independent (§3.3)" } else { "centralized (Fig. 6)" },
            // Annotate only when armed so the default output stays
            // byte-identical to the recorded results/crash_matrix_*.txt.
            if config.coalesce { " coalesce=on" } else { "" },
            if config.per_address { " per-address=on" } else { "" },
            match config.layer {
                Layer::Replicated => " replicated=on",
                Layer::Map => " map=on",
                Layer::Cas => "",
            },
        );
        println!(
            "{:<15} {:>12} {:>13} {:>10} {:>8} {:>11}",
            "operation", "crash-points", "not-prepared", "no-effect", "effect", "violations"
        );
        let mut total_violations = 0;
        let print_row = |op: String, out: &SweepOutcome| {
            println!(
                "{:<15} {:>12} {:>13} {:>10} {:>8} {:>11}",
                op, out.crash_points, out.not_prepared, out.no_effect, out.effect, out.violations
            );
        };
        for (op, out) in sweep(&config) {
            print_row(op, &out);
            total_violations += out.violations;
        }
        println!();
        assert_eq!(total_violations, 0, "detectability violations found!");
    }
    if partial_recovery {
        const THREADS: usize = 4;
        println!("# E11 partial recovery: {THREADS} threads crash, `survivors` restart;");
        println!("# survivors recover independently, survivor 0 adopts the rest (§3.3)");
        println!("{:<10} {:>6} {:>6} {:>10}", "survivors", "seeds", "ok", "queued-avg");
        for survivors in 1..=THREADS {
            const SEEDS: u64 = 8;
            let mut queued = 0usize;
            for seed in 0..SEEDS {
                match partial_recovery_crash_run(base.layer, THREADS, survivors, first_seed + seed)
                {
                    Ok(n) => queued += n,
                    Err(e) => panic!("survivors={survivors} seed={seed}: {e}"),
                }
            }
            println!(
                "{:<10} {:>6} {:>6} {:>10.1}",
                survivors,
                SEEDS,
                SEEDS,
                queued as f64 / SEEDS as f64
            );
        }
        println!();
    }
    if multi_process {
        let exe = std::env::current_exe().expect("locating this binary for self-spawn");
        println!("# E12 multi-process: victim child SIGKILLed mid-op; parent attaches the");
        println!("# pool file with no in-process state and runs the adopt-then-resolve restart");
        println!(
            "{:<15} {:>9} {:>12} {:>12} {:>13} {:>10} {:>8} {:>11}",
            "operation",
            "coalesce",
            "per-address",
            "crash-points",
            "not-prepared",
            "no-effect",
            "effect",
            "violations"
        );
        let mut total_violations = 0;
        for (coalesce, per_address) in [(false, false), (true, false), (true, true)] {
            let config = SweepConfig {
                granularity: base.granularity,
                coalesce,
                per_address,
                layer: base.layer,
                ..Default::default()
            };
            let mut print_row = |op: String, out: &SweepOutcome| {
                println!(
                    "{:<15} {:>9} {:>12} {:>12} {:>13} {:>10} {:>8} {:>11}",
                    op,
                    if coalesce { "on" } else { "off" },
                    if per_address { "on" } else { "off" },
                    out.crash_points,
                    out.not_prepared,
                    out.no_effect,
                    out.effect,
                    out.violations
                );
                total_violations += out.violations;
            };
            for (op, out) in multi_process_sweep(&config, &exe) {
                print_row(op, &out);
            }
        }
        println!();
        assert_eq!(total_violations, 0, "multi-process detectability violations found!");
    }
    checked_histories_epilogue(&base, first_seed, partial_recovery);
    match base.layer {
        Layer::Map => println!("ok: every crash point resolved consistently with D<map>"),
        _ => println!("ok: every crash point resolved consistently with D<queue>"),
    }
}

/// E13 rider: the matrix above validates each crash point's *resolve*
/// against the persisted state; this epilogue additionally records whole
/// crashing executions and verifies the full history — every operation,
/// no sampling — through the segmented pipeline under strict
/// linearizability. Queue layers check the `D⟨queue⟩` history directly;
/// the map layer splits its `Keyed<KvSpec>` history per key
/// (`check_partitioned`) and certifies each partition in full.
fn checked_histories_epilogue(base: &SweepConfig, first_seed: u64, partial_recovery: bool) {
    const SEEDS: u64 = 6;
    let options = CheckOptions::default();
    let strict = Condition::StrictLinearizability;
    println!("# checked histories: full-length verification of recorded crash runs");
    println!(
        "{:<22} {:>6} {:>8} {:>9} {:>12}",
        "workload", "seeds", "ops", "windows", "max-window"
    );
    if base.layer == Layer::Map {
        checked_row("map-system-crash", SEEDS, |seed| {
            check_map_history(
                &record_map_crash_execution(3, 30, first_seed + seed),
                strict,
                &options,
            )
        });
        // A long crash-free run, split per key and certified in full —
        // the P-compositionality counterpart of the queue's plain check.
        checked_row("map-plain", 1, |_| {
            check_map_history(
                &record_map_execution(3, 400, first_seed),
                Condition::Linearizability,
                &options,
            )
        });
        if partial_recovery {
            for survivors in 1..=3usize {
                checked_row(&format!("map-partial s={survivors}"), SEEDS, |seed| {
                    let h = record_map_partial_recovery_execution(
                        3,
                        survivors,
                        20,
                        first_seed + seed,
                        base.coalesce,
                        base.per_address,
                    );
                    check_map_history(&h, strict, &options)
                });
            }
        }
        println!();
        return;
    }
    checked_row("system-crash", SEEDS, |seed| {
        check_recorded_full(
            &record_crash_execution(base.layer, 3, 30, first_seed + seed),
            strict,
            &options,
        )
    });
    if base.layer.is_leased() {
        // Leased batches serialize many operations per lease tenure;
        // verify a long crash-free batched history in full — every
        // operation, no sampling — against the sequential FIFO spec.
        checked_row(&format!("{}-plain", base.layer), 1, |_| {
            let h = record_plain_execution(base.layer, 3, 400, 4, first_seed);
            check_plain(&h, Condition::Linearizability, &options)
        });
    }
    if partial_recovery {
        for survivors in 1..=3usize {
            checked_row(&format!("partial-recovery s={survivors}"), SEEDS, |seed| {
                let h = record_partial_recovery_execution(
                    base.layer,
                    3,
                    survivors,
                    20,
                    first_seed + seed,
                    base.coalesce,
                    base.per_address,
                );
                check_recorded_full(&h, strict, &options)
            });
        }
    }
    println!();
}

/// Checks `seeds` recorded runs, `check(0..seeds)`, and prints one
/// epilogue row: their summed operations and windows and their largest
/// window.
///
/// # Panics
///
/// Panics on the first run that fails its check.
fn checked_row(
    label: &str,
    seeds: u64,
    mut check: impl FnMut(u64) -> Result<CheckStats, Violation>,
) {
    let (mut ops, mut windows, mut max_window) = (0, 0, 0);
    for seed in 0..seeds {
        let stats = check(seed).unwrap_or_else(|e| panic!("{label} seed {seed}: {e}"));
        ops += stats.ops;
        windows += stats.windows;
        max_window = max_window.max(stats.max_window);
    }
    println!("{:<22} {:>6} {:>8} {:>9} {:>12}", label, seeds, ops, windows, max_window);
}
