//! The §3.3 partial-restart story, end to end: after a multi-threaded
//! crash only a subset of threads comes back; each survivor recovers its
//! own registry slot independently, and an adopter reclaims every
//! remaining ORPHANED slot and resolves its pending operation.
//!
//! Three layers of evidence:
//!
//! 1. A deterministic run where **only thread 0 restarts**, adopts all
//!    orphaned slots through the registry, resolves every slot's pending
//!    op, and the recorded history passes the strict-linearizability
//!    checker.
//! 2. A full-restart **parity** check: the registry-driven
//!    `DssQueue::recover` produces byte-identical resolved responses (and
//!    queue contents) to the pre-refactor centralized Figure-6 path, on
//!    single- and multi-threaded crash states.
//! 3. A property sweep: a random subset of threads recovers under every
//!    `--coalesce` × `--per-address` knob combination and the checker
//!    still accepts the resolved history.

mod common;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use common::TmpPool;
use dss::checker::Condition;
use dss::core::{DssQueue, Resolved};
use dss::harness::crashsim::{partial_recovery_crash_run, Layer};
use dss::harness::record::{check_recorded, record_partial_recovery_execution};
use dss::pmem::{CrashSignal, SlotState, ThreadHandle, WritebackAdversary};
use dss::spec::types::QueueResp;

/// The acceptance scenario: three threads crash mid-operation, only
/// thread 0 restarts. It recovers its own slot, then adopts both dead
/// threads' slots via the registry and resolves their pending ops. Every
/// slot must end LIVE again, and the recorded `D⟨queue⟩` history must be
/// strictly linearizable.
#[test]
fn thread_zero_adopts_everyone_and_history_checks() {
    const THREADS: usize = 3;
    for seed in 0..6u64 {
        // Registry-level view: drive the crash directly and inspect slots.
        let q = DssQueue::new(THREADS, 64);
        let hs: Vec<_> = (0..THREADS).map(|_| q.register_thread().unwrap()).collect();
        crash_all_threads(&q, &hs, seed);
        q.pool().crash(&WritebackAdversary::Random { seed, prob: 0.5 });

        // Only thread 0 restarts.
        q.begin_recovery();
        for s in 0..THREADS {
            assert_eq!(
                q.registry().slot_state(s),
                Ok(SlotState::Orphaned),
                "seed {seed}: slot {s} must be orphaned after the crash boundary"
            );
        }
        let mine = q.adopt(hs[0].slot()).expect("own slot is adoptable");
        q.recover_one(mine);
        let adopted = q.adopt_orphans();
        assert_eq!(adopted.len(), THREADS - 1, "seed {seed}: thread 0 adopts the rest");
        for h in &adopted {
            q.recover_one(*h);
        }
        q.rebuild_allocator();
        for s in 0..THREADS {
            assert_eq!(
                q.registry().slot_state(s),
                Ok(SlotState::Live),
                "seed {seed}: slot {s} must be re-LIVE after adoption"
            );
        }
        // Every slot's pending op resolves to a definite verdict shape.
        for &h in &hs {
            let r = q.resolve(h);
            assert!(matches!(r, Resolved { .. }), "seed {seed}: slot {} did not resolve", h.slot());
        }

        // History-level view: the same shape through the recorder must be
        // strictly linearizable.
        let h = record_partial_recovery_execution(Layer::Cas, THREADS, 1, 10, seed, false, false);
        assert!(h.validate().is_ok());
        check_recorded(&h, Condition::StrictLinearizability)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Drives one deterministic single-threaded script into a crash at pmem-op
/// index `k`, recovers with `f`, and returns every observable: the
/// resolved response and the surviving queue contents. The queue has
/// `nodes` nodes per slot and first runs `churn` enqueue/dequeue pairs.
fn crash_then(
    (nodes, churn): (u64, u64),
    k: u64,
    seed: u64,
    f: impl FnOnce(&DssQueue),
) -> (Resolved, Vec<u64>) {
    let q = DssQueue::new(2, nodes);
    let h0 = q.register_thread().unwrap();
    let _h1 = q.register_thread().unwrap();
    for v in 100..100 + churn {
        q.enqueue(h0, v).unwrap();
        assert_eq!(q.dequeue(h0), QueueResp::Value(v));
    }
    q.enqueue(h0, 1).unwrap();
    q.enqueue(h0, 2).unwrap();
    q.pool().arm_crash_after(k);
    let r = catch_unwind(AssertUnwindSafe(|| {
        q.prep_dequeue(h0);
        let _ = q.exec_dequeue(h0);
        q.prep_enqueue(h0, 3).unwrap();
        q.exec_enqueue(h0);
    }));
    q.pool().disarm_crash();
    if let Err(p) = r {
        if p.downcast_ref::<CrashSignal>().is_none() {
            resume_unwind(p);
        }
    }
    q.pool().crash(&WritebackAdversary::Random { seed, prob: 0.5 });
    f(&q);
    q.rebuild_allocator();
    (q.resolve(h0), q.snapshot_values())
}

/// Full-restart parity: for every crash point the script can reach, the
/// registry-driven `recover()` (adopt orphans, then repair each) must
/// produce byte-identical resolved responses and queue contents to the
/// pre-refactor centralized Figure-6 reference path. The reference keeps
/// Figure 6's full claim scan, where `recover` stops at the end of the
/// claimed prefix, and Figure 6's `AllNodes` as a `HashSet`, so this also
/// checks `recover`'s early stop and its bitmap `NodeSet`. The script runs
/// on a fresh pool and on a churned one, where reclamation rounds have
/// recycled nodes the head left; then multi-threaded crash states, where
/// several threads' claims and links interleave, get the same check.
#[test]
fn registry_recovery_matches_centralized_reference() {
    for shape in [(64, 0), (3, 20)] {
        for seed in [3u64, 17] {
            for k in 1..80 {
                let (res_reg, vals_reg) = crash_then(shape, k, seed, |q| {
                    q.recover();
                });
                let (res_cen, vals_cen) = crash_then(shape, k, seed, |q| {
                    q.recover_centralized();
                });
                let at = format!("{shape:?} k={k} seed={seed}");
                assert_eq!(res_reg, res_cen, "{at}: resolved responses diverged");
                assert_eq!(vals_reg, vals_cen, "{at}: queue contents diverged");
            }
        }
    }
    for seed in 0..8 {
        recoveries_agree_after_a_concurrent_crash(seed);
    }
}

/// One file-backed queue churns its 18 nodes through reclamation rounds,
/// then crashes with every worker mid-run under the random adversary. Two
/// copies of its pool file recover, one by `recover()` and one by the
/// full-scan reference, and must agree on every slot's resolved response
/// and on the queue's contents.
fn recoveries_agree_after_a_concurrent_crash(seed: u64) {
    const THREADS: usize = 3;
    let (reg, cen) = (TmpPool::new("registry"), TmpPool::new("reference"));
    {
        let q = DssQueue::create(reg.path(), THREADS, 6).unwrap();
        let hs: Vec<_> = (0..THREADS).map(|_| q.register_thread().unwrap()).collect();
        for v in 1..=40 {
            q.enqueue(hs[0], v).unwrap();
            assert_eq!(q.dequeue(hs[0]), QueueResp::Value(v));
        }
        crash_all_threads(&q, &hs, seed);
        q.pool().crash(&WritebackAdversary::Random { seed, prob: 0.5 });
    }
    std::fs::copy(reg.path(), cen.path()).unwrap();
    let observe = |q: &DssQueue, hs: Vec<ThreadHandle>| {
        assert_eq!(hs.len(), THREADS, "seed {seed}: every slot was orphaned");
        q.rebuild_allocator();
        let resolved: Vec<Resolved> = hs.iter().map(|&h| q.resolve(h)).collect();
        (resolved, q.snapshot_values())
    };
    let q = DssQueue::attach(reg.path()).unwrap();
    let by_registry = observe(&q, q.recover());
    let q = DssQueue::attach(cen.path()).unwrap();
    q.recover_centralized();
    q.begin_recovery();
    let by_reference = observe(&q, q.adopt_orphans());
    assert_eq!(by_registry, by_reference, "seed {seed}: recoveries diverged");
}

/// Runs one detectable enqueue/dequeue worker per handle until each hits
/// a seed-derived crash point (the shape the §3.3 tests share).
fn crash_all_threads(q: &DssQueue, hs: &[ThreadHandle], seed: u64) {
    std::thread::scope(|scope| {
        for (tid, &h) in hs.iter().enumerate() {
            scope.spawn(move || {
                q.pool().arm_crash_after(15 + seed * 7 + tid as u64 * 13);
                let r = catch_unwind(AssertUnwindSafe(|| {
                    for i in 1..u64::MAX {
                        q.prep_enqueue(h, (tid as u64) << 32 | i).unwrap();
                        q.exec_enqueue(h);
                        q.prep_dequeue(h);
                        let _ = q.exec_dequeue(h);
                    }
                }));
                q.pool().disarm_crash();
                if let Err(p) = r {
                    if p.downcast_ref::<CrashSignal>().is_none() {
                        resume_unwind(p);
                    }
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two survivors race `adopt_orphans` after a crash: the registry's
    /// CAS-guarded ORPHANED→LIVE transition must hand each orphaned slot
    /// to exactly one of them — no slot twice, no slot dropped.
    #[test]
    fn racing_adopters_claim_each_orphan_exactly_once(
        threads in 3usize..6,
        seed in 0u64..500,
    ) {
        let q = DssQueue::new(threads, 64);
        let hs: Vec<_> = (0..threads).map(|_| q.register_thread().unwrap()).collect();
        crash_all_threads(&q, &hs, seed);
        q.pool().crash(&WritebackAdversary::Random { seed, prob: 0.5 });

        // Survivors 0 and 1 come back and recover their own slots first.
        q.begin_recovery();
        for h in &hs[..2] {
            let mine = q.adopt(h.slot()).expect("own slot is adoptable");
            q.recover_one(mine);
        }
        // Then both race to adopt everything nobody came back for.
        let (a, b) = std::thread::scope(|scope| {
            let ta = scope.spawn(|| q.adopt_orphans());
            let tb = scope.spawn(|| q.adopt_orphans());
            (ta.join().unwrap(), tb.join().unwrap())
        });

        let total = a.len() + b.len();
        let mut slots: Vec<usize> = a.iter().chain(b.iter()).map(|h| h.slot()).collect();
        slots.sort_unstable();
        slots.dedup();
        prop_assert_eq!(slots.len(), total, "an orphan was adopted twice");
        prop_assert_eq!(slots, (2..threads).collect::<Vec<_>>(), "an orphan was never adopted");

        for h in a.iter().chain(b.iter()) {
            q.recover_one(*h);
        }
        q.rebuild_allocator();
        for s in 0..threads {
            prop_assert_eq!(q.registry().slot_state(s), Ok(SlotState::Live));
        }
    }

    /// Satellite sweep: a random subset of threads recovers (the rest are
    /// adopted) under all four coalescing/per-address knob combinations;
    /// the conservation invariant and the strict-linearizability checker
    /// must both accept every run.
    #[test]
    fn random_survivor_subsets_check_under_all_knobs(
        threads in 2usize..5,
        survivor_pick in 0usize..100,
        seed in 0u64..500,
    ) {
        let survivors = 1 + survivor_pick % threads;
        partial_recovery_crash_run(Layer::Cas, threads, survivors, seed)
            .map_err(TestCaseError::Fail)?;
        for (coalesce, per_address) in
            [(false, false), (false, true), (true, false), (true, true)]
        {
            let h = record_partial_recovery_execution(
                Layer::Cas, threads, survivors, 8, seed, coalesce, per_address,
            );
            prop_assert!(h.validate().is_ok());
            if let Err(e) = check_recorded(&h, Condition::StrictLinearizability) {
                return Err(TestCaseError::Fail(format!(
                    "coalesce={coalesce} per_address={per_address}: {e}"
                )));
            }
        }
    }
}
