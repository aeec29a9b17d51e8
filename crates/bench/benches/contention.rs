//! Contention benchmark: every thread hammers ONE shared queue with
//! alternating enqueue/dequeue pairs (a 50:50 operation mix) — the
//! adversarial schedule the contention-management layer (bounded backoff,
//! cache-line padding, announce elision) exists for.
//!
//! Each queue kind is measured over the coalesce × backoff grid plus the
//! drain-granularity axis (`per-addr` runs coalescing with per-address
//! dependency drains instead of whole-set drains) so the axes' effect
//! under contention is visible side by side; `off/off` is the
//! seed-identical baseline.
//!
//! ```text
//! cargo bench -p dss-bench --bench contention -- \
//!     [--threads N] [--ms M] [--repeats R] [--penalty SPINS]
//!     [--backend pmem --backend dram]
//! ```
//!
//! `--penalty` is the simulated writeback cost in spin iterations (default
//! 20, the cross-experiment default). The drain-granularity columns only
//! separate from the whole-set baseline when writebacks cost something: at
//! a realistic penalty (≈200 spins ≈ an Optane CLWB+fence) the writebacks
//! per-address drains absorb dominate; at 0 the columns measure pure
//! bookkeeping.

use std::time::Duration;

use dss_bench::numeric_flag;
use dss_harness::adapter::QueueKind;
use dss_harness::throughput::{measure, Throughput, ThroughputConfig};

fn main() {
    let threads = numeric_flag("--threads", 4) as usize;
    let ms = numeric_flag("--ms", 150);
    let repeats = numeric_flag("--repeats", 2) as usize;
    let penalty = numeric_flag("--penalty", 20);
    for backend in dss_bench::backends_from_args() {
        println!(
            "# contention: {threads} threads on one queue, 50:50 enq:deq, \
             flush penalty = {penalty} spins, backend = {} (Mops/s)",
            backend.label()
        );
        println!(
            "{:<30} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14}",
            "queue", "off/off", "coalesce", "per-addr", "backoff", "both", "pa+backoff"
        );
        for kind in QueueKind::contention() {
            print!("{:<30}", kind.label());
            let grid = [
                (false, false, false),
                (true, false, false),
                (true, true, false),
                (false, false, true),
                (true, false, true),
                (true, true, true),
            ];
            // Interleave the repeats round-robin across the grid rather
            // than running each cell's repeats back to back: slow machine
            // drift (turbo, co-tenant load) then lands on every column
            // equally instead of biasing whichever column hit a slow patch.
            let mut samples = vec![Vec::with_capacity(repeats); grid.len()];
            for _ in 0..repeats {
                for (cell, &(coalesce, per_address, backoff)) in grid.iter().enumerate() {
                    let config = ThroughputConfig {
                        threads,
                        duration: Duration::from_millis(ms),
                        repeats: 1,
                        backend,
                        coalesce,
                        per_address,
                        backoff,
                        flush_penalty: penalty,
                        ..Default::default()
                    };
                    samples[cell].push(measure(kind, &config).mops_mean);
                }
            }
            for cell in &samples {
                let t = Throughput::from_samples(cell);
                print!(" {:>7.3} ±{:>5.3}", t.mops_mean, t.mops_stddev);
            }
            println!();
        }
        println!();
    }
}
