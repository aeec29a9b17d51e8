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
//! to their shared install protocol shows up as a changed row; a third
//! per operation of the DSS stack, a fourth per operation of the
//! replicated queue (its write pair and its replica-local reads), and a
//! fifth per step of the DSS queue's crash recovery.
//!
//! ```text
//! cargo run -p dss-harness --release --bin flush_counts
//! ```
//!
//! `--backend pmem --backend dram` repeats the tables per memory backend;
//! the dram tables are all zeros by construction (no instrumentation),
//! which is exactly the point of experiment E8. The recovery table is
//! pmem-only: crashing a pool is a [`PmemPool`] API, not a [`Memory`] one.
//! The default pmem-only invocation prints the historical output unchanged.

use dss_core::{
    DetectableCas, DetectableMap, DetectableRegister, DssQueue, DssStack, ReplicatedQueue,
};
use dss_harness::adapter::{Backend, QueueKind};
use dss_pmem::{DramPool, FlushGranularity, Memory, PmemPool, StatsSnapshot, WritebackAdversary};

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
            Backend::Pmem => {
                objects::<PmemPool>();
                println!();
                recovery();
            }
            Backend::Dram => objects::<DramPool>(),
        }
    }
}

/// The per-operation tables: the binding objects, the stack, then the
/// replicated queue.
fn objects<M: Memory>() {
    bindings::<M>();
    println!();
    stack::<M>();
    println!();
    replicated::<M>();
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

fn stack<M: Memory>() {
    println!("# E3c: pmem primitives per DSS stack operation (single thread, line-granular)");
    header("operation");
    let s = DssStack::<M>::new_in(1, 64, FlushGranularity::Line);
    let h = s.register_thread().unwrap();
    row("stack prep+exec push+pop pair", s.pool().as_ref(), |i| {
        s.prep_push(h, i).unwrap();
        s.exec_push(h);
        s.prep_pop(h);
        s.exec_pop(h);
    });
    row("stack push+pop pair", s.pool().as_ref(), |i| {
        s.push(h, i).unwrap();
        s.pop(h);
    });
    row("stack resolve", s.pool().as_ref(), |_| {
        s.resolve(h);
    });
}

fn replicated<M: Memory>() {
    println!(
        "# E3d: pmem primitives per replicated queue operation (single thread, line-granular)"
    );
    header("operation");
    let q = ReplicatedQueue::<M>::new_in(1, 64, FlushGranularity::Line);
    let h = q.register_thread().unwrap();
    row("replicated prep+exec pair", q.pool().as_ref(), |i| {
        q.prep_enqueue(h, i).unwrap();
        q.exec_enqueue(h);
        q.prep_dequeue(h);
        q.exec_dequeue(h);
    });
    // The reads answer from a non-empty replica.
    q.enqueue(h, 1).unwrap();
    row("replicated peek_front", q.pool().as_ref(), |_| {
        q.peek_front(h);
    });
    row("replicated len", q.pool().as_ref(), |_| {
        q.len(h);
    });
    row("replicated resolve", q.pool().as_ref(), |_| {
        q.resolve(h);
    });
}

/// Values the recovery table's queue holds when it crashes.
const RECOVERY_LEN: u64 = 256;

/// The pool primitives of each step of the DSS queue's recovery, after
/// the crash the perfbench `recover` workload repeats: slot 0 enqueues,
/// slot 1 dequeues, slot 0 prepares one more enqueue, and every unflushed
/// write is lost. Recovery walks the whole list, so the rows grow with
/// [`RECOVERY_LEN`].
fn recovery() {
    println!(
        "# E3e: pmem primitives per DSS queue recovery step ({RECOVERY_LEN} values, 2 slots, \
         after one cycle and a crash)"
    );
    header("step");
    let q = DssQueue::new(2, RECOVERY_LEN);
    let [h0, h1] = [0, 1].map(|_| q.register_thread().unwrap());
    for v in 1..=RECOVERY_LEN {
        q.enqueue(h0, v).unwrap();
    }
    q.prep_enqueue(h0, RECOVERY_LEN + 1).unwrap();
    q.exec_enqueue(h0);
    q.prep_dequeue(h1);
    q.exec_dequeue(h1);
    q.prep_enqueue(h0, RECOVERY_LEN + 2).unwrap();
    q.pool().crash(&WritebackAdversary::None);

    let pool = q.pool();
    pool.reset_stats();
    let hs = q.recover();
    print_row("queue recover", pool.stats(), 1);
    pool.reset_stats();
    q.rebuild_allocator();
    print_row("queue rebuild_allocator", pool.stats(), 1);
    pool.reset_stats();
    for &h in &hs {
        q.resolve(h);
    }
    print_row("queue resolve", pool.stats(), hs.len() as u64);
}
