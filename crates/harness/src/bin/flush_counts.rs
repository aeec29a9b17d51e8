//! Experiment E3 — memory-operation counts per queue operation and per
//! binding operation.
//!
//! The paper attributes the throughput gaps of Figures 5a/5b to specific
//! extra memory operations (flushes on the detectability word, double
//! allocation in the log queue, descriptor traffic in PMwCAS). This
//! experiment measures those costs directly: it runs one enqueue/dequeue
//! pair per implementation on an otherwise idle queue and prints the
//! per-pair primitive counts. A second table does the same per operation
//! of the three binding objects (register, CAS object, map), so a change
//! to their shared install protocol shows up as a changed row.
//!
//! ```text
//! cargo run -p dss-harness --release --bin flush_counts
//! ```
//!
//! `--backend pmem --backend dram` repeats the tables per memory backend;
//! the dram tables are all zeros by construction (no instrumentation),
//! which is exactly the point of experiment E8. The default pmem-only
//! invocation prints the historical output unchanged.

use dss_core::{DetectableCas, DetectableMap, DetectableRegister};
use dss_harness::adapter::{Backend, QueueKind};
use dss_pmem::{DramPool, FlushGranularity, Memory, PmemPool, StatsSnapshot};

fn main() {
    let args = dss_harness::cli::parse();
    let backends = args.parsed_backends();
    let annotate = backends.len() > 1 || backends != [Backend::Pmem];
    for backend in backends {
        if annotate {
            println!("# backend = {}", backend.label());
        }
        run(backend);
        println!();
        match backend {
            Backend::Pmem => bindings::<PmemPool>(),
            Backend::Dram => bindings::<DramPool>(),
        }
    }
}

fn header(first: &str) {
    println!(
        "{:<30} {:>7} {:>7} {:>7} {:>9} {:>8} {:>7}",
        first, "loads", "stores", "cas", "cas-fail", "flushes", "fences"
    );
}

fn print_row(label: &str, s: StatsSnapshot, per: u64) {
    let per = per as f64;
    println!(
        "{:<30} {:>7.1} {:>7.1} {:>7.1} {:>9.1} {:>8.1} {:>7.1}",
        label,
        s.loads as f64 / per,
        s.stores as f64 / per,
        s.cas_ok as f64 / per,
        s.cas_fail as f64 / per,
        s.flushes as f64 / per,
        s.fences as f64 / per,
    );
}

fn run(backend: Backend) {
    println!("# E3: pmem primitives per enqueue+dequeue pair (single thread, uncontended)");
    header("queue");
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
        print_row(kind.label(), q.pool().stats(), PAIRS);
    }
    println!();
    println!("# The detectability cost of the DSS queue is the store+flush pairs on X");
    println!("# (paper lines 3-4, 13-14, 32-33, 47-48): compare row 2 against row 3.");
}

/// Operations per row of the binding table.
const OPS: u64 = 100;

/// Runs `op(0)` as a warm-up, then `op(1..=OPS)` with the counters reset,
/// and prints the per-op averages.
fn row<M: Memory>(label: &str, pool: &M, mut op: impl FnMut(u64)) {
    op(0);
    pool.reset_stats();
    for i in 1..=OPS {
        op(i);
    }
    print_row(label, pool.stats(), OPS);
}

fn bindings<M: Memory>() {
    println!("# E3b: pmem primitives per binding operation (single thread, line-granular)");
    header("operation");
    let line = FlushGranularity::Line;

    let r = DetectableRegister::<M>::new_in(1, 512, line);
    let h = r.register_thread().unwrap();
    row("register prep+exec write", r.pool().as_ref(), |i| {
        r.prep_write(h, i, i);
        r.exec_write(h);
    });
    row("register write", r.pool().as_ref(), |i| r.write(h, i));
    row("register read", r.pool().as_ref(), |_| {
        r.read(h);
    });
    row("register resolve", r.pool().as_ref(), |_| {
        r.resolve(h);
    });

    let c = DetectableCas::<M>::new_in(1, 512, line);
    let h = c.register_thread().unwrap();
    // The value every successful CAS expects, advanced as they install.
    let mut v = 0;
    row("cas prep+exec, succeeds", c.pool().as_ref(), |i| {
        c.prep_cas(h, v, v + 1, i);
        assert!(c.exec_cas(h));
        v += 1;
    });
    row("cas prep+exec, fails", c.pool().as_ref(), |i| {
        c.prep_cas(h, v + 1, 0, i);
        assert!(!c.exec_cas(h));
    });
    row("cas plain", c.pool().as_ref(), |_| {
        assert!(c.cas(h, v, v + 1));
        v += 1;
    });

    let m = DetectableMap::<M>::new_in(1, 256, 1024, line);
    let h = m.register_thread().unwrap();
    row("map prep+exec put, fresh key", m.pool().as_ref(), |i| {
        m.prep_put(h, 1_000 + i, i, i);
        m.exec_put(h);
    });
    row("map prep+exec put, existing", m.pool().as_ref(), |i| {
        m.prep_put(h, 1_000, i, i);
        m.exec_put(h);
    });
    row("map put", m.pool().as_ref(), |i| {
        m.put(h, 1_000, i);
    });
    row("map get", m.pool().as_ref(), |_| {
        m.get(h, 1_000);
    });
    row("map remove", m.pool().as_ref(), |_| {
        m.remove(h, 1_000);
    });
    row("map resolve", m.pool().as_ref(), |_| {
        m.resolve(h);
    });
}
