//! Experiment E3 — memory-operation counts per queue operation.
//!
//! The paper attributes the throughput gaps of Figures 5a/5b to specific
//! extra memory operations (flushes on the detectability word, double
//! allocation in the log queue, descriptor traffic in PMwCAS). This
//! experiment measures those costs directly: it runs one enqueue/dequeue
//! pair per implementation on an otherwise idle queue and prints the
//! per-pair primitive counts.
//!
//! ```text
//! cargo run -p dss-harness --release --bin flush_counts
//! ```
//!
//! `--backend pmem --backend dram` repeats the table per memory backend;
//! the dram table is all zeros by construction (no instrumentation), which
//! is exactly the point of experiment E8. The default pmem-only invocation
//! prints the historical output unchanged.

use dss_harness::adapter::{Backend, QueueKind};

fn main() {
    let args = dss_harness::cli::parse();
    let backends = args.parsed_backends();
    let annotate = backends.len() > 1 || backends != [Backend::Pmem];
    for backend in backends {
        if annotate {
            println!("# backend = {}", backend.label());
        }
        run(backend);
    }
}

fn run(backend: Backend) {
    println!("# E3: pmem primitives per enqueue+dequeue pair (single thread, uncontended)");
    println!(
        "{:<30} {:>7} {:>7} {:>7} {:>9} {:>8} {:>7}",
        "queue", "loads", "stores", "cas", "cas-fail", "flushes", "fences"
    );
    for kind in QueueKind::all() {
        let q = kind.build_on(backend, 1, 64);
        let h = q.register_thread();
        // Warm up (first ops touch the sentinel path differently).
        q.enqueue(h, 1);
        let _ = q.dequeue(h);
        q.pool().reset_stats();
        const PAIRS: u64 = 100;
        for i in 0..PAIRS {
            q.enqueue(h, i + 2);
            let _ = q.dequeue(h);
        }
        let s = q.pool().stats();
        println!(
            "{:<30} {:>7.1} {:>7.1} {:>7.1} {:>9.1} {:>8.1} {:>7.1}",
            kind.label(),
            s.loads as f64 / PAIRS as f64,
            s.stores as f64 / PAIRS as f64,
            s.cas_ok as f64 / PAIRS as f64,
            s.cas_fail as f64 / PAIRS as f64,
            s.flushes as f64 / PAIRS as f64,
            s.fences as f64 / PAIRS as f64,
        );
    }
    println!();
    println!("# The detectability cost of the DSS queue is the store+flush pairs on X");
    println!("# (paper lines 3-4, 13-14, 32-33, 47-48): compare row 2 against row 3.");
}
