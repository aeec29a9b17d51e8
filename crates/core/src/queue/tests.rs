//! Unit tests for the DSS queue, including crash-point sweeps that check
//! the Figure 2 detectability semantics against the persisted queue state.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use dss_pmem::{StatsSnapshot, ThreadHandle, WritebackAdversary};
use dss_spec::types::QueueResp;

use super::{DssQueue, QueueFull, Resolved, ResolvedOp};
use crate::binding::tests::one_thread;
use crate::linked::tests::{crash_sweep, Verdict};

#[test]
fn fifo_order_non_detectable() {
    let q = DssQueue::new(1, 16);
    let h0 = q.register_thread().unwrap();
    for v in [10, 20, 30] {
        q.enqueue(h0, v).unwrap();
    }
    assert_eq!(q.dequeue(h0), QueueResp::Value(10));
    assert_eq!(q.dequeue(h0), QueueResp::Value(20));
    assert_eq!(q.dequeue(h0), QueueResp::Value(30));
    assert_eq!(q.dequeue(h0), QueueResp::Empty);
}

#[test]
fn fifo_order_detectable() {
    let q = DssQueue::new(1, 16);
    let h0 = q.register_thread().unwrap();
    for v in [1, 2] {
        q.prep_enqueue(h0, v).unwrap();
        q.exec_enqueue(h0);
    }
    q.prep_dequeue(h0);
    assert_eq!(q.exec_dequeue(h0), QueueResp::Value(1));
    q.prep_dequeue(h0);
    assert_eq!(q.exec_dequeue(h0), QueueResp::Value(2));
    q.prep_dequeue(h0);
    assert_eq!(q.exec_dequeue(h0), QueueResp::Empty);
}

#[test]
fn resolve_without_prep_is_bottom_bottom() {
    let q = DssQueue::new(2, 4);
    let h0 = q.register_thread().unwrap();
    let h1 = q.register_thread().unwrap();
    assert_eq!(q.resolve(h0), Resolved { op: None, resp: None });
    assert_eq!(q.resolve(h1), Resolved { op: None, resp: None });
}

#[test]
fn resolve_after_prep_enqueue_only() {
    let q = DssQueue::new(1, 4);
    let h0 = q.register_thread().unwrap();
    q.prep_enqueue(h0, 9).unwrap();
    assert_eq!(q.resolve(h0), Resolved { op: Some(ResolvedOp::Enqueue(9)), resp: None });
}

#[test]
fn resolve_after_exec_enqueue() {
    let q = DssQueue::new(1, 4);
    let h0 = q.register_thread().unwrap();
    q.prep_enqueue(h0, 9).unwrap();
    q.exec_enqueue(h0);
    assert_eq!(
        q.resolve(h0),
        Resolved { op: Some(ResolvedOp::Enqueue(9)), resp: Some(QueueResp::Ok) }
    );
    // resolve is idempotent (a process "may call [it] arbitrarily many
    // times", §2.2).
    assert_eq!(q.resolve(h0), q.resolve(h0));
}

#[test]
fn resolve_after_prep_dequeue_only() {
    let q = DssQueue::new(1, 4);
    let h0 = q.register_thread().unwrap();
    q.enqueue(h0, 5).unwrap();
    q.prep_dequeue(h0);
    assert_eq!(q.resolve(h0), Resolved { op: Some(ResolvedOp::Dequeue), resp: None });
}

#[test]
fn resolve_after_dequeue_value_and_empty() {
    let q = DssQueue::new(1, 4);
    let h0 = q.register_thread().unwrap();
    q.enqueue(h0, 5).unwrap();
    q.prep_dequeue(h0);
    assert_eq!(q.exec_dequeue(h0), QueueResp::Value(5));
    assert_eq!(
        q.resolve(h0),
        Resolved { op: Some(ResolvedOp::Dequeue), resp: Some(QueueResp::Value(5)) }
    );
    q.prep_dequeue(h0);
    assert_eq!(q.exec_dequeue(h0), QueueResp::Empty);
    assert_eq!(
        q.resolve(h0),
        Resolved { op: Some(ResolvedOp::Dequeue), resp: Some(QueueResp::Empty) }
    );
}

#[test]
fn non_detectable_ops_do_not_disturb_detection_state() {
    // Axiom 4: plain operations leave A and R untouched.
    let q = DssQueue::new(2, 8);
    let h0 = q.register_thread().unwrap();
    let h1 = q.register_thread().unwrap();
    q.prep_enqueue(h0, 1).unwrap();
    q.exec_enqueue(h0);
    let before = q.resolve(h0);
    q.enqueue(h1, 2).unwrap();
    q.dequeue(h1);
    q.dequeue(h1);
    assert_eq!(q.resolve(h0), before);
}

#[test]
fn nondetectable_dequeue_claim_never_resolves_as_detectable() {
    // A thread prep-dequeues, loses interest (crash in our story), and the
    // *same thread* later dequeues the node non-detectably. resolve must
    // not confuse the NONDET claim with a detectable one (§3.2).
    let q = DssQueue::new(1, 8);
    let h0 = q.register_thread().unwrap();
    q.enqueue(h0, 7).unwrap();
    q.prep_dequeue(h0);
    // Interrupt exec-dequeue right after it announces the predecessor in X
    // (store X, flush X = the 6th and 7th pmem ops: head, tail, next, head
    // again, store X, flush X — crash on the claim CAS, op #8).
    let crashed = q.pool().crashes_within(8, || {
        let _ = q.exec_dequeue(h0);
    });
    assert!(crashed, "expected to interrupt the claim CAS");
    q.pool().crash(&WritebackAdversary::None);
    q.recover();
    assert_eq!(q.resolve(h0), Resolved { op: Some(ResolvedOp::Dequeue), resp: None });
    // Now the same thread dequeues non-detectably.
    assert_eq!(q.dequeue(h0), QueueResp::Value(7));
    // The detectable dequeue still resolves as "did not take effect".
    assert_eq!(q.resolve(h0), Resolved { op: Some(ResolvedOp::Dequeue), resp: None });
}

#[test]
#[should_panic(expected = "without a prepared enqueue")]
fn exec_enqueue_without_prep_panics() {
    let q = DssQueue::new(1, 4);
    let h0 = q.register_thread().unwrap();
    q.exec_enqueue(h0);
}

#[test]
fn queue_full_and_ebr_recycling() {
    let q = DssQueue::new(1, 3);
    let h0 = q.register_thread().unwrap();
    // Fill the pool.
    for v in 0..3 {
        q.enqueue(h0, v).unwrap();
    }
    assert_eq!(q.enqueue(h0, 99), Err(QueueFull));
    // Dequeue two; the nodes go to EBR limbo and must eventually recycle.
    assert_eq!(q.dequeue(h0), QueueResp::Value(0));
    assert_eq!(q.dequeue(h0), QueueResp::Value(1));
    // Allocation retries through EBR collection:
    q.enqueue(h0, 100).expect("recycled node");
    assert_eq!(q.snapshot_values(), vec![2, 100]);
}

#[test]
fn many_ops_through_small_pool() {
    // Far more operations than nodes: recycling must sustain it.
    let q = DssQueue::new(1, 8);
    let h0 = q.register_thread().unwrap();
    for i in 0..1000 {
        q.enqueue(h0, i).unwrap();
        assert_eq!(q.dequeue(h0), QueueResp::Value(i));
    }
    assert_eq!(q.dequeue(h0), QueueResp::Empty);
}

#[test]
fn concurrent_stress_conserves_values() {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 300;
    let q = Arc::new(DssQueue::new(THREADS, 64));
    let hs: Vec<_> = (0..THREADS).map(|_| q.register_thread().unwrap()).collect();
    let handles: Vec<_> = (0..THREADS)
        .map(|tid| {
            let q = Arc::clone(&q);
            let h = hs[tid];
            std::thread::spawn(move || {
                let mut got = Vec::new();
                for i in 0..PER_THREAD {
                    let v = (tid as u64) << 32 | i;
                    if i % 2 == 0 {
                        q.prep_enqueue(h, v).unwrap();
                        q.exec_enqueue(h);
                    } else {
                        q.enqueue(h, v).unwrap();
                    }
                    q.prep_dequeue(h);
                    match q.exec_dequeue(h) {
                        QueueResp::Value(x) => got.push(x),
                        QueueResp::Empty => {}
                        QueueResp::Ok => unreachable!(),
                    }
                }
                got
            })
        })
        .collect();
    let mut dequeued: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    let mut remaining = q.snapshot_values();
    dequeued.append(&mut remaining);
    dequeued.sort_unstable();
    let mut expected: Vec<u64> =
        (0..THREADS as u64).flat_map(|t| (0..PER_THREAD).map(move |i| t << 32 | i)).collect();
    expected.sort_unstable();
    assert_eq!(dequeued, expected, "every value dequeued or remaining exactly once");
    q.list.assert_conserved();
}

// ---------------------------------------------------------------------------
// Crash-point sweeps (Figure 2 semantics, small-scale version of E4)
// ---------------------------------------------------------------------------

/// The sweep's recovery: the centralized `recover` or the slot's own
/// `recover_one`, then the allocator rebuild, which must leave the free
/// lists a walk's rebuild leaves and conserve nodes. The claims after the
/// head node form a prefix before recovery, where `recover` relies on it,
/// and after, where the next crash would.
fn recover(q: &DssQueue, h: ThreadHandle, central: bool) {
    q.list.assert_claimed_prefix();
    if central {
        q.recover();
    } else {
        q.recover_one(h);
    }
    q.rebuild_allocator();
    q.list.assert_rebuilt_as_walked();
    q.list.assert_conserved();
    q.list.assert_claimed_prefix();
}

#[test]
fn enqueue_crash_sweep_resolves_consistently() {
    let tallies = crash_sweep(
        |g| one_thread(<DssQueue>::new_in(1, 8, g)),
        |q, h| {
            q.prep_enqueue(h, 42).unwrap();
            q.exec_enqueue(h);
        },
        recover,
        |q, h, at| {
            let in_queue = q.snapshot_values() == vec![42];
            match q.resolve(h) {
                Resolved { op: None, resp: None } => {
                    assert!(!in_queue, "{at}: unprepared but enqueued");
                    Verdict::NotPrepared
                }
                Resolved { op: Some(ResolvedOp::Enqueue(42)), resp } => match resp {
                    Some(QueueResp::Ok) => {
                        assert!(in_queue, "{at}: resolved Ok but value missing");
                        Verdict::Effect
                    }
                    None => {
                        assert!(!in_queue, "{at}: resolved ⊥ but value present");
                        Verdict::NoEffect
                    }
                    other => panic!("{at}: impossible enqueue response {other:?}"),
                },
                other => panic!("{at}: impossible resolution {other:?}"),
            }
        },
    );
    // Points = not prepared / no effect / effect, per configuration.
    assert_eq!(
        tallies,
        [
            "Line None: 15 = 6/6/3",
            "Line All: 15 = 5/6/4",
            "Line Random: 15 = 5/6/4",
            "Word None: 17 = 8/6/3",
            "Word All: 17 = 7/6/4",
            "Word Random: 17 = 7/6/4",
        ]
    );
}

#[test]
fn dequeue_crash_sweep_resolves_consistently() {
    let tallies = crash_sweep(
        |g| {
            let (q, h) = one_thread(<DssQueue>::new_in(1, 8, g));
            q.enqueue(h, 7).unwrap();
            (q, h)
        },
        |q, h| {
            q.prep_dequeue(h);
            let _ = q.exec_dequeue(h);
        },
        recover,
        |q, h, at| {
            let still_there = q.snapshot_values() == vec![7];
            match q.resolve(h) {
                Resolved { op: None, resp: None } => {
                    assert!(still_there, "{at}: no prep but value gone");
                    Verdict::NotPrepared
                }
                Resolved { op: Some(ResolvedOp::Dequeue), resp } => match resp {
                    Some(QueueResp::Value(7)) => {
                        assert!(!still_there, "{at}: dequeued but still present");
                        Verdict::Effect
                    }
                    None => {
                        assert!(still_there, "{at}: no effect but value gone");
                        Verdict::NoEffect
                    }
                    other => panic!("{at}: impossible dequeue response {other:?}"),
                },
                other => panic!("{at}: impossible resolution {other:?}"),
            }
        },
    );
    // Points = not prepared / no effect / effect, per configuration.
    assert_eq!(
        tallies,
        [
            "Line None: 12 = 2/8/2",
            "Line All: 12 = 1/8/3",
            "Line Random: 12 = 2/8/2",
            "Word None: 12 = 2/8/2",
            "Word All: 12 = 1/8/3",
            "Word Random: 12 = 2/8/2",
        ]
    );
}

#[test]
fn empty_dequeue_crash_sweep() {
    let tallies = crash_sweep(
        |g| one_thread(<DssQueue>::new_in(1, 4, g)),
        |q, h| {
            q.prep_dequeue(h);
            let _ = q.exec_dequeue(h);
        },
        recover,
        |q, h, at| {
            assert!(q.snapshot_values().is_empty(), "{at}: queue must stay empty");
            match q.resolve(h) {
                Resolved { op: None, resp: None } => Verdict::NotPrepared,
                Resolved { op: Some(ResolvedOp::Dequeue), resp: None } => Verdict::NoEffect,
                Resolved { op: Some(ResolvedOp::Dequeue), resp: Some(QueueResp::Empty) } => {
                    Verdict::Effect
                }
                other => panic!("{at}: impossible resolution {other:?}"),
            }
        },
    );
    // Points = not prepared / no effect / effect, per configuration.
    assert_eq!(
        tallies,
        [
            "Line None: 8 = 2/6/0",
            "Line All: 8 = 1/6/1",
            "Line Random: 8 = 1/6/1",
            "Word None: 8 = 2/6/0",
            "Word All: 8 = 1/6/1",
            "Word Random: 8 = 1/6/1",
        ]
    );
}

#[test]
fn recovery_completes_interrupted_enqueue_detectability() {
    // Crash exactly between the link flush (line 12) and the X completion
    // store (line 13): the enqueue took effect but X lacks ENQ_COMPL.
    // Recovery must add the tag (Figure 6 lines 71-74).
    let q = DssQueue::new(1, 8);
    let h0 = q.register_thread().unwrap();
    q.prep_enqueue(h0, 11).unwrap();
    // exec-enqueue ops: load X, load tail, load last.next, load tail,
    // CAS link, flush link, [crash here].
    let crashed = q.pool().crashes_within(7, || q.exec_enqueue(h0));
    assert!(crashed);
    q.pool().crash(&WritebackAdversary::None);
    q.recover();
    assert_eq!(
        q.resolve(h0),
        Resolved { op: Some(ResolvedOp::Enqueue(11)), resp: Some(QueueResp::Ok) },
        "recovery must detect the persisted link"
    );
    assert_eq!(q.snapshot_values(), vec![11]);
}

#[test]
fn recovery_repairs_lagging_tail_and_head() {
    let q = DssQueue::new(2, 16);
    let h0 = q.register_thread().unwrap();
    let h1 = q.register_thread().unwrap();
    for v in [1, 2, 3] {
        q.enqueue(h0, v).unwrap();
    }
    assert_eq!(q.dequeue(h1), QueueResp::Value(1));
    q.pool().crash(&WritebackAdversary::All); // everything persists
    q.recover();
    q.rebuild_allocator();
    assert_eq!(q.snapshot_values(), vec![2, 3]);
    // The queue is fully operational after recovery.
    assert_eq!(q.dequeue(h0), QueueResp::Value(2));
    q.enqueue(h1, 4).unwrap();
    assert_eq!(q.snapshot_values(), vec![3, 4]);
}

#[test]
fn recovery_is_idempotent() {
    let q = DssQueue::new(1, 8);
    let h0 = q.register_thread().unwrap();
    q.prep_enqueue(h0, 5).unwrap();
    let crashed = q.pool().crashes_within(7, || q.exec_enqueue(h0));
    assert!(crashed);
    q.pool().crash(&WritebackAdversary::None);
    q.recover();
    let r1 = q.resolve(h0);
    let v1 = q.snapshot_values();
    q.recover(); // e.g. a crash hit during the first recovery's epilogue
    assert_eq!(q.resolve(h0), r1);
    assert_eq!(q.snapshot_values(), v1);
}

#[test]
fn independent_recovery_matches_centralized_for_x_state() {
    for k in 1..40 {
        // Two identical queues, crashed at the same point; one recovers
        // centrally, the other per-thread. resolve must agree.
        let run = |central: bool| {
            let q = DssQueue::new(1, 8);
            let h0 = q.register_thread().unwrap();
            let crashed = q.pool().crashes_within(k, || {
                q.prep_enqueue(h0, 13).unwrap();
                q.exec_enqueue(h0);
            });
            if !crashed {
                return None;
            }
            q.pool().crash(&WritebackAdversary::None);
            if central {
                q.recover();
            } else {
                q.recover_one(h0);
            }
            Some(q.resolve(h0))
        };
        match (run(true), run(false)) {
            (Some(a), Some(b)) => assert_eq!(a, b, "k={k}"),
            (None, None) => break,
            _ => unreachable!("same deterministic schedule"),
        }
    }
}

#[test]
fn queue_usable_after_independent_recovery() {
    let q = DssQueue::new(2, 16);
    let h0 = q.register_thread().unwrap();
    let h1 = q.register_thread().unwrap();
    q.enqueue(h0, 1).unwrap();
    q.enqueue(h0, 2).unwrap();
    assert_eq!(q.dequeue(h1), QueueResp::Value(1));
    q.pool().crash(&WritebackAdversary::All);
    // No centralized phase: threads recover on their own and proceed; the
    // stale head/tail are repaired lazily by the helping paths.
    q.recover_one(h0);
    q.recover_one(h1);
    q.rebuild_allocator();
    assert_eq!(q.dequeue(h0), QueueResp::Value(2));
    q.enqueue(h1, 3).unwrap();
    assert_eq!(q.dequeue(h0), QueueResp::Value(3));
    assert_eq!(q.dequeue(h0), QueueResp::Empty);
}

#[test]
fn rebuild_allocator_reclaims_dead_nodes_and_keeps_live_ones() {
    let q = DssQueue::new(1, 4);
    let h0 = q.register_thread().unwrap();
    // Crash during prep-enqueue, after the X announcement store (op 5) but
    // before its flush (op 6): the fresh node is referenced only by X.
    let crashed = q.pool().crashes_within(6, || {
        q.prep_enqueue(h0, 50).unwrap();
    });
    assert!(crashed);
    q.pool().crash(&WritebackAdversary::All); // X persisted
    q.recover();
    q.rebuild_allocator();
    // The X-referenced node must stay allocated (resolve may read it)...
    assert_eq!(q.resolve(h0), Resolved { op: Some(ResolvedOp::Enqueue(50)), resp: None });
    // ...and the remaining 3 nodes are free.
    assert_eq!(q.list.nodes().free_count(), 3);
}

#[test]
fn crash_during_recovery_then_recovery_again() {
    let q = DssQueue::new(1, 8);
    let h0 = q.register_thread().unwrap();
    q.prep_enqueue(h0, 21).unwrap();
    let crashed = q.pool().crashes_within(7, || q.exec_enqueue(h0));
    assert!(crashed);
    q.pool().crash(&WritebackAdversary::None);
    // Recovery itself crashes at every possible point; a second, complete
    // recovery must still land in a correct state.
    for k in 1..40 {
        let crashed = q.pool().crashes_within(k, || {
            q.recover();
        });
        if !crashed {
            break;
        }
        q.pool().crash(&WritebackAdversary::None);
    }
    q.recover();
    assert_eq!(
        q.resolve(h0),
        Resolved { op: Some(ResolvedOp::Enqueue(21)), resp: Some(QueueResp::Ok) }
    );
    assert_eq!(q.snapshot_values(), vec![21]);
    // Some of those crashes fell inside `recover`'s allocator rebuild.
    q.rebuild_allocator();
    q.list.assert_rebuilt_as_walked();
    q.list.assert_conserved();
}

#[test]
fn recover_alone_frees_the_node_of_a_prep_enqueue_that_crashed() {
    // A crash inside `prep_enqueue` before `X[0]` persists leaves the node
    // it allocated reachable from nothing: `recover` must return it to the
    // free lists without a separate `rebuild_allocator`.
    for k in 1.. {
        let (q, h) = one_thread(DssQueue::new(1, 4));
        q.enqueue(h, 1).unwrap();
        if !q.pool().crashes_within(k, || q.prep_enqueue(h, 2).unwrap()) {
            break;
        }
        q.pool().crash(&WritebackAdversary::None);
        q.recover();
        q.list.assert_conserved();
    }
}

#[test]
fn resolve_survives_node_recycling() {
    // A detectable dequeue's announced predecessor (and the claimed node)
    // stay referenced by X[tid] after the operation completes. Heavy churn
    // through a tiny node pool forces epoch reclamation to recycle nodes;
    // the X-referenced ones must be exempt, or a later resolve chases
    // reinitialized memory and denies an operation that took effect.
    let q = DssQueue::new(2, 4);
    let h0 = q.register_thread().unwrap();
    let h1 = q.register_thread().unwrap();
    q.enqueue(h1, 7).unwrap();
    q.prep_dequeue(h0);
    assert_eq!(q.exec_dequeue(h0), QueueResp::Value(7));
    // Churn far past the pool size on the other thread.
    for i in 0..100 {
        q.enqueue(h1, 100 + i).unwrap();
        assert_eq!(q.dequeue(h1), QueueResp::Value(100 + i));
    }
    assert_eq!(
        q.resolve(h0),
        Resolved { op: Some(ResolvedOp::Dequeue), resp: Some(QueueResp::Value(7)) }
    );
}

#[test]
fn resolve_enqueue_value_survives_node_recycling() {
    // Same hazard on the enqueue side: X[tid] names the enqueued node and
    // resolve reads its value field, which recycling would overwrite.
    let q = DssQueue::new(2, 4);
    let h0 = q.register_thread().unwrap();
    let h1 = q.register_thread().unwrap();
    q.prep_enqueue(h0, 42).unwrap();
    q.exec_enqueue(h0);
    assert_eq!(q.dequeue(h1), QueueResp::Value(42)); // retire h0's node
    for i in 0..100 {
        q.enqueue(h1, 200 + i).unwrap();
        assert_eq!(q.dequeue(h1), QueueResp::Value(200 + i));
    }
    assert_eq!(
        q.resolve(h0),
        Resolved { op: Some(ResolvedOp::Enqueue(42)), resp: Some(QueueResp::Ok) }
    );
}

#[test]
fn a_crash_keeps_enqueues_after_the_node_the_persisted_head_named_is_recycled() {
    // The enqueue of 4 finds the free lists empty and recycles the node the
    // head left first, which the persisted head still names unless the
    // reclamation round persisted the head.
    let (q, h) = one_thread(DssQueue::new(1, 3));
    for v in 1..=2 {
        q.enqueue(h, v).unwrap();
        assert_eq!(q.dequeue(h), QueueResp::Value(v));
    }
    q.enqueue(h, 3).unwrap();
    q.enqueue(h, 4).unwrap();
    q.pool().crash(&WritebackAdversary::None);
    q.list.assert_claimed_prefix();
    q.recover();
    q.rebuild_allocator();
    assert_eq!(q.snapshot_values(), vec![3, 4]);
    q.list.assert_conserved();
}

#[test]
fn a_reclamation_round_persists_the_head_with_one_flush() {
    let (q, h) = one_thread(DssQueue::new(1, 3));
    let flushes = |op: &dyn Fn()| {
        let before = q.pool().stats();
        op();
        q.pool().stats().since(&before).flushes
    };
    let pair = |v| {
        let enq = flushes(&|| q.enqueue(h, v).unwrap());
        assert_eq!(q.dequeue(h), QueueResp::Value(v));
        enq
    };
    // Three enqueues from the free lists, then one that recycles.
    let from_free: Vec<u64> = (1..=3).map(pair).collect();
    assert_eq!(from_free, [2, 2, 2], "node flush + link flush");
    assert_eq!(pair(4), 3, "plus the head, once per reclamation round");
}

#[test]
fn recovery_pool_operations_are_pinned() {
    // A 1024-value queue crashed with one completed detectable dequeue and
    // one prepared enqueue. Recovery's volatile bookkeeping may change; its
    // pool operations are these. `recover` walks the 1025 nodes from the
    // persisted head, loading claim words only while the claimed prefix
    // lasts: the head node's, the dequeued node's and the first unclaimed
    // node's.
    let q = DssQueue::new(2, 1024);
    let h0 = q.register_thread().unwrap();
    let h1 = q.register_thread().unwrap();
    for v in 0..1024 {
        q.enqueue(h0, v).unwrap();
    }
    q.prep_dequeue(h1);
    assert_eq!(q.exec_dequeue(h1), QueueResp::Value(0));
    q.prep_enqueue(h0, 1024).unwrap();
    q.pool().crash(&WritebackAdversary::None);

    let before = q.pool().stats();
    let hs = q.recover();
    let recovered = q.pool().stats();
    q.rebuild_allocator();
    let rebuilt = q.pool().stats();
    assert_eq!(hs.len(), 2);
    let counts = |loads, stores, cas_ok, flushes| StatsSnapshot {
        loads,
        stores,
        cas_ok,
        flushes,
        ..StatsSnapshot::default()
    };
    // `recover` ends by rebuilding the allocator: it loads the two `X`
    // words and the successor of each node they name. The rebuild after it
    // has nothing left to do.
    assert_eq!(recovered.since(&before), counts(1045, 9, 2, 7), "recover");
    assert_eq!(rebuilt.since(&recovered), counts(0, 0, 0, 0), "rebuild_allocator");
}

/// A queue whose head left the node of 1, holding 2 and 3, crashed with
/// every unflushed write lost and recovered: the persisted head lagged at
/// the sentinel, and `recover` moved it to the node of 1 again. The
/// operations the tests below run before `rebuild_allocator` change the
/// live set `recover` rebuilt the allocator around: a rebuild around that
/// set would free a linked node or leak a retired one.
fn recovered_queue() -> (DssQueue, ThreadHandle) {
    let (q, h) = one_thread(DssQueue::new(1, 4));
    q.enqueue(h, 1).unwrap();
    assert_eq!(q.dequeue(h), QueueResp::Value(1));
    q.enqueue(h, 2).unwrap();
    q.enqueue(h, 3).unwrap();
    q.pool().crash(&WritebackAdversary::None);
    q.recover();
    (q, h)
}

#[test]
fn an_enqueue_between_recover_and_the_rebuild_keeps_its_node() {
    // The enqueue links a node after the last one `recover` found.
    let (q, h) = recovered_queue();
    q.enqueue(h, 4).unwrap();
    q.rebuild_allocator();
    assert_eq!(q.snapshot_values(), [2, 3, 4]);
    q.list.assert_conserved();
}

#[test]
fn a_dequeue_between_recover_and_the_rebuild_frees_the_node_the_head_left() {
    // The dequeue moves the head and retires the node it left, which
    // `recover` found live.
    let (q, h) = recovered_queue();
    assert_eq!(q.dequeue(h), QueueResp::Value(2));
    q.rebuild_allocator();
    assert_eq!(q.snapshot_values(), [3]);
    q.list.assert_conserved();
}

#[test]
fn recycling_between_recover_and_the_rebuild_keeps_the_recycled_middle_node() {
    // `recover` leaves the head at the node of 1 and the node of 2 last.
    // Seven operations on the three-node pool recycle both back into those
    // places, with the node of 3 recycled between them: the head word is
    // the same and the last node's link is NULL again, but the live set
    // `recover` found lacks the middle node.
    let (q, h) = one_thread(DssQueue::new(1, 3));
    q.enqueue(h, 1).unwrap();
    q.enqueue(h, 2).unwrap();
    assert_eq!(q.dequeue(h), QueueResp::Value(1));
    q.pool().crash(&WritebackAdversary::None);
    q.recover();
    q.enqueue(h, 3).unwrap();
    assert_eq!(q.dequeue(h), QueueResp::Value(2));
    q.enqueue(h, 4).unwrap();
    assert_eq!(q.dequeue(h), QueueResp::Value(3));
    assert_eq!(q.dequeue(h), QueueResp::Value(4));
    q.enqueue(h, 5).unwrap();
    q.enqueue(h, 6).unwrap();
    q.rebuild_allocator();
    assert_eq!(q.snapshot_values(), [5, 6]);
    q.list.assert_conserved();
}

/// A peek never returns an enqueue a crash can still lose: slot 0's
/// enqueue crashes at each of its pool operations in turn, slot 1 peeks
/// through the shared structure, and then the pool crashes with no
/// writeback. If the peek saw the value, `resolve` must report the
/// enqueue as taken effect.
#[test]
fn peeks_never_see_an_enqueue_a_crash_can_lose() {
    for k in 1.. {
        let q = DssQueue::new(2, 8);
        let h0 = q.register_thread().unwrap();
        let h1 = q.register_thread().unwrap();
        q.pool().arm_crash_after(k);
        let died = catch_unwind(AssertUnwindSafe(|| {
            q.prep_enqueue(h0, 42).unwrap();
            q.exec_enqueue(h0);
        }))
        .is_err();
        q.pool().disarm_crash();
        if !died {
            break;
        }
        let saw = q.peek_front(h1) == Some(42);
        q.pool().crash(&WritebackAdversary::None);
        q.recover();
        let took_effect = q.resolve(h0).resp == Some(QueueResp::Ok);
        assert!(!saw || took_effect, "k={k}: a peek saw 42, but its enqueue was lost");
    }
}

#[test]
fn a_second_crash_after_recover_makes_the_rebuild_walk() {
    // The second crash loses the dequeue's head move but keeps its claim
    // and the enqueue's link, and starts a new crash generation: after the
    // per-slot recovery of the one slot, the rebuild walks the list.
    let (q, h) = recovered_queue();
    assert_eq!(q.dequeue(h), QueueResp::Value(2));
    q.enqueue(h, 4).unwrap();
    q.pool().crash(&WritebackAdversary::None);
    q.recover_one(h);
    q.rebuild_allocator();
    assert_eq!(q.snapshot_values(), [3, 4]);
    q.list.assert_conserved();
}
