//! Backend parity: every queue implementation produces identical crash-free
//! outcomes on the crash-testable [`PmemPool`] and the zero-overhead
//! [`DramPool`].
//!
//! The `Memory` abstraction is only sound if swapping the substrate never
//! changes what the algorithms compute — the backends may differ in cost
//! and in crash behaviour (dram has none), but a crash-free run must be
//! observationally identical. This drives a deterministic mixed
//! enqueue/dequeue script through each [`QueueKind`] on both backends and
//! compares every response, the drain order, and the flush-instrumentation
//! invariant (pmem counts primitives, dram counts nothing).
//!
//! [`PmemPool`]: dss::pmem::PmemPool
//! [`DramPool`]: dss::pmem::DramPool

use dss::harness::adapter::{Backend, QueueKind};
use dss::pmem::splitmix64;
use dss::spec::types::QueueResp;

/// Deterministic splitmix64 seeded with the step index, used to derive
/// the op mix so both backends replay byte-identical scripts.
fn mix(mut step: u64) -> u64 {
    splitmix64(&mut step)
}

/// Runs the script on one backend and returns every observable response in
/// order: per-step dequeue results, then the full drain.
fn run_script(kind: QueueKind, backend: Backend, steps: u64) -> Vec<QueueResp> {
    run_script_with(kind, backend, steps, false, false, false)
}

/// [`run_script`] with the E9/E10 performance axes set explicitly:
/// write-behind flush coalescing, the drain granularity (whole-set vs
/// per-address), and contended-retry backoff change cost, never crash-free
/// outcomes, on either backend.
fn run_script_with(
    kind: QueueKind,
    backend: Backend,
    steps: u64,
    coalesce: bool,
    per_address: bool,
    backoff: bool,
) -> Vec<QueueResp> {
    let q = kind.build_on(backend, 1, 256);
    q.pool().set_coalescing(coalesce);
    q.pool().set_per_address_drains(per_address);
    q.set_backoff(backoff);
    let h = q.register_thread();
    let mut observed = Vec::new();
    for i in 0..steps {
        if !mix(i).is_multiple_of(3) {
            q.enqueue(h, 1000 + i);
        } else {
            observed.push(q.dequeue(h));
        }
    }
    loop {
        let r = q.dequeue(h);
        let done = r == QueueResp::Empty;
        observed.push(r);
        if done {
            break;
        }
    }

    let stats = q.pool().stats();
    match backend {
        Backend::Pmem => {
            assert!(stats.total() > 0, "{} on pmem executed no counted primitives", kind.label())
        }
        Backend::Dram => {
            assert_eq!(stats.total(), 0, "{} on dram counted primitives", kind.label())
        }
    }
    observed
}

#[test]
fn every_kind_matches_across_backends() {
    for kind in QueueKind::all() {
        let pmem = run_script(kind, Backend::Pmem, 200);
        let dram = run_script(kind, Backend::Dram, 200);
        assert_eq!(pmem, dram, "{}: pmem and dram runs diverged", kind.label());
        // The script enqueues ~2/3 of 200 steps; make sure it exercised
        // real traffic rather than vacuously matching on empties.
        let values = pmem.iter().filter(|r| matches!(r, QueueResp::Value(_))).count();
        assert!(values > 50, "{}: only {values} values observed", kind.label());
    }
}

#[test]
fn every_kind_matches_across_backends_with_coalescing_and_backoff() {
    for kind in QueueKind::all() {
        let baseline = run_script(kind, Backend::Pmem, 200);
        for backend in Backend::all() {
            // The drain-granularity axis: whole-set drains (PR 2's
            // behaviour) vs per-address dependency drains.
            for per_address in [false, true] {
                let tuned = run_script_with(kind, backend, 200, true, per_address, true);
                assert_eq!(
                    baseline,
                    tuned,
                    "{} on {} diverged with coalesce+backoff on (per_address={})",
                    kind.label(),
                    backend.label(),
                    per_address
                );
            }
        }
    }
}

#[test]
fn detectable_kinds_match_across_backends_under_flush_penalty() {
    // A flush penalty changes timing, never outcomes.
    for kind in [QueueKind::DssDetectable, QueueKind::Log] {
        let outcomes: Vec<_> = Backend::all()
            .into_iter()
            .map(|backend| {
                let q = kind.build_on(backend, 1, 64);
                q.pool().set_flush_penalty(50);
                let h = q.register_thread();
                (0..20).for_each(|i| q.enqueue(h, i));
                (0..21).map(|_| q.dequeue(h)).collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(outcomes[0], outcomes[1], "{} diverged", kind.label());
    }
}
