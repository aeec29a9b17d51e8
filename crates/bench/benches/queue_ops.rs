//! Per-operation latency of every queue implementation (single thread,
//! uncontended): one enqueue+dequeue pair per iteration.
//!
//! This is the microscopic view of Figures 5a/5b — the same ordering must
//! appear here as in the throughput series. Pass `--backend dram` (or both
//! `--backend pmem --backend dram`) to switch the memory substrate; other
//! flags are ignored because `cargo bench` forwards its own.

use std::hint::black_box;

use dss_bench::{backends_from_args, Runner};
use dss_harness::adapter::QueueKind;

fn main() {
    for backend in backends_from_args() {
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
