//! Experiment E10 — per-address dependency drains vs whole-set drains.
//!
//! PR 2's coalescing layer drains the *entire* pending set at every
//! ordering point, so a flush rarely finds its unit still pending and
//! almost nothing coalesces on the detectable hot paths. Per-address
//! drains write back only the lines a fence point orders against, leaving
//! the rest pending across operation boundaries — the coalescing window
//! the flushes of the *next* operation can fall into.
//!
//! Two measurements:
//!
//! 1. **Absorbed writebacks** (pmem only): for every queue kind, 100
//!    single-threaded enqueue+dequeue pairs under coalescing, with
//!    whole-set vs per-address drains. Issued flushes are
//!    workload-determined and identical; the `coalesced` columns count
//!    how many of them each drain policy absorbed.
//! 2. **Throughput** under contention: the paper's alternating-pair
//!    workload over the whole-set vs per-address axis (both under
//!    coalescing), per backend.
//!
//! ```text
//! cargo run -p dss-harness --release --bin e10_per_address_drains -- \
//!     --threads 4 --ms 200 --repeats 3 [--backend pmem --backend dram]
//! ```

use std::time::Duration;

use dss_harness::adapter::{Backend, QueueKind};
use dss_harness::throughput::{measure, ThroughputConfig};

fn main() {
    let args = dss_harness::cli::parse();

    println!(
        "# E10.1: coalesced writebacks per enqueue+dequeue pair \
         (single thread, pmem, coalescing on)"
    );
    println!(
        "{:<30} {:>12} {:>14} {:>14} {:>9}",
        "queue", "issued/pair", "whole-set", "per-address", "saved"
    );
    for kind in QueueKind::all() {
        let per_pair = |per_address: bool| {
            let q = kind.build_on(Backend::Pmem, 1, 64);
            q.pool().set_coalescing(true);
            q.pool().set_per_address_drains(per_address);
            let h = q.register_thread();
            q.enqueue(h, 1); // warm up the sentinel path
            let _ = q.dequeue(h);
            q.pool().reset_stats();
            const PAIRS: u64 = 100;
            for i in 0..PAIRS {
                q.enqueue(h, i + 2);
                let _ = q.dequeue(h);
            }
            let s = q.pool().stats();
            (s.flushes as f64 / PAIRS as f64, s.flushes_coalesced as f64 / PAIRS as f64)
        };
        let (issued_ws, coalesced_ws) = per_pair(false);
        let (issued_pa, coalesced_pa) = per_pair(true);
        assert_eq!(
            issued_ws,
            issued_pa,
            "{}: issued flushes are workload-determined",
            kind.label()
        );
        assert!(
            coalesced_pa >= coalesced_ws,
            "{}: per-address drains must never absorb less than whole-set \
             ({coalesced_pa} vs {coalesced_ws})",
            kind.label()
        );
        let saved = if issued_pa > 0.0 { 100.0 * coalesced_pa / issued_pa } else { 0.0 };
        println!(
            "{:<30} {:>12.1} {:>14.1} {:>14.1} {:>8.0}%",
            kind.label(),
            issued_pa,
            coalesced_ws,
            coalesced_pa,
            saved
        );
    }
    println!();

    for backend in args.parsed_backends() {
        println!(
            "# E10.2: throughput, {} threads on one queue, backend = {}, coalescing on \
             (Mops/s, alternating enqueue/dequeue pairs)",
            args.threads,
            backend.label()
        );
        println!("{:<30} {:>14} {:>14}", "queue", "whole-set", "per-address");
        for kind in QueueKind::all() {
            print!("{:<30}", kind.label());
            for per_address in [false, true] {
                let config = ThroughputConfig {
                    threads: args.threads,
                    duration: Duration::from_millis(args.ms),
                    repeats: args.repeats,
                    flush_penalty: args.penalty,
                    backend,
                    coalesce: true,
                    per_address,
                    backoff: args.backoff,
                    ..Default::default()
                };
                let t = measure(kind, &config);
                print!(" {:>7.3} ±{:>5.3}", t.mops_mean, t.mops_stddev);
            }
            println!();
        }
        println!();
    }
}
