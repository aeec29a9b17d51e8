//! Experiment E9 — write-behind flush coalescing × contention backoff.
//!
//! Two measurements:
//!
//! 1. **Flush traffic** (pmem only — the dram backend counts nothing by
//!    construction): for every queue kind, 100 single-threaded
//!    enqueue+dequeue pairs with coalescing off vs on. The issued flush
//!    count is workload-determined and identical in both modes; the
//!    `coalesced` column is how many of those flushes the write-behind
//!    layer absorbed (already-pending or clean units) instead of writing
//!    back — the saved writebacks per pair.
//! 2. **Throughput** under contention: the paper's alternating-pair
//!    workload on every backend at the configured thread count, over the
//!    full `--coalesce` × `--backoff` grid.
//!
//! ```text
//! cargo run -p dss-harness --release --bin e9_flush_coalescing -- \
//!     --threads 4 --ms 200 --repeats 3 [--backend pmem --backend dram]
//! ```

use std::time::Duration;

use dss_harness::adapter::{Backend, QueueKind};
use dss_harness::throughput::{measure, ThroughputConfig};

fn main() {
    let args = dss_harness::cli::parse();

    println!("# E9.1: flushes per enqueue+dequeue pair (single thread, pmem)");
    println!(
        "{:<30} {:>12} {:>12} {:>12} {:>9}",
        "queue", "issued/pair", "coalesced", "writebacks", "saved"
    );
    for kind in QueueKind::all() {
        let per_pair = |coalesce: bool| {
            let q = kind.build_on(Backend::Pmem, 1, 64);
            q.pool().set_coalescing(coalesce);
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
        let (issued_off, coalesced_off) = per_pair(false);
        let (issued_on, coalesced_on) = per_pair(true);
        assert_eq!(coalesced_off, 0.0, "{}: coalescing off must not coalesce", kind.label());
        assert_eq!(
            issued_off,
            issued_on,
            "{}: issued flushes are workload-determined",
            kind.label()
        );
        let saved = if issued_on > 0.0 { 100.0 * coalesced_on / issued_on } else { 0.0 };
        println!(
            "{:<30} {:>12.1} {:>12.1} {:>12.1} {:>8.0}%",
            kind.label(),
            issued_on,
            coalesced_on,
            issued_on - coalesced_on,
            saved
        );
    }
    println!();

    for backend in args.parsed_backends() {
        println!(
            "# E9.2: throughput grid, {} threads on one queue, backend = {} \
             (Mops/s, alternating enqueue/dequeue pairs)",
            args.threads,
            backend.label()
        );
        println!(
            "{:<30} {:>14} {:>14} {:>14} {:>14}",
            "queue", "off/off", "coalesce", "backoff", "both"
        );
        for kind in QueueKind::all() {
            print!("{:<30}", kind.label());
            for (coalesce, backoff) in [(false, false), (true, false), (false, true), (true, true)]
            {
                let config = ThroughputConfig {
                    threads: args.threads,
                    duration: Duration::from_millis(args.ms),
                    repeats: args.repeats,
                    flush_penalty: args.penalty,
                    backend,
                    coalesce,
                    backoff,
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
