//! Per-operation latency of every queue implementation (single thread,
//! uncontended): one enqueue+dequeue pair per iteration.
//!
//! This is the microscopic view of Figures 5a/5b — the same ordering must
//! appear here as in the throughput series. Pass `--backend dram` (or both
//! `--backend pmem --backend dram`) to switch the memory substrate; it is
//! the target's only flag.

use std::hint::black_box;

use dss_bench::Runner;
use dss_harness::adapter::QueueKind;
use dss_harness::cli::Flags;

fn main() {
    for backend in Flags::parse("queue_ops", &["--backend"], &["--bench"]).backends() {
        let r = Runner::new(&format!("enq_deq_pair/{}", backend.label()))
            .warm_up_time(std::time::Duration::from_millis(300))
            .measurement_time(std::time::Duration::from_millis(800));
        for kind in QueueKind::all() {
            let q = kind.build_on(backend, 1, 4096);
            q.pool().set_flush_penalty(20);
            let h = q.register_thread();
            let mut i = 0u64;
            r.bench(kind.label(), || {
                i += 1;
                q.enqueue(h, black_box(i));
                black_box(q.dequeue(h));
            });
        }
    }
}
