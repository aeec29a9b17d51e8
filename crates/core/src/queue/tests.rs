//! Unit tests for the DSS queue, including crash-point sweeps that check
//! the Figure 2 detectability semantics against the persisted queue state.

use std::sync::Arc;

use dss_pmem::{StatsSnapshot, WritebackAdversary};
use dss_spec::types::QueueResp;

use super::{CombiningQueue, DssQueue, QueueFull, ReplicatedQueue, Resolved, ResolvedOp};

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
    // alloc_node retries through EBR collection:
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
}

// ---------------------------------------------------------------------------
// Crash-point sweeps (Figure 2 semantics, small-scale version of E4)
// ---------------------------------------------------------------------------

fn adversaries() -> Vec<WritebackAdversary> {
    vec![
        WritebackAdversary::None,
        WritebackAdversary::All,
        WritebackAdversary::Random { seed: 7, prob: 0.5 },
    ]
}

#[test]
fn enqueue_crash_sweep_resolves_consistently() {
    for adv in adversaries() {
        for k in 1..60 {
            let q = DssQueue::new(1, 8);
            let h0 = q.register_thread().unwrap();
            let crashed = q.pool().crashes_within(k, || {
                q.prep_enqueue(h0, 42).unwrap();
                q.exec_enqueue(h0);
            });
            if !crashed {
                break; // the whole operation ran; later ks are identical
            }
            q.pool().crash(&adv);
            q.recover();
            q.rebuild_allocator();
            let in_queue = q.snapshot_values() == vec![42];
            match q.resolve(h0) {
                Resolved { op: None, resp: None } => {
                    assert!(!in_queue, "k={k} {adv:?}: unprepared but enqueued")
                }
                Resolved { op: Some(ResolvedOp::Enqueue(42)), resp } => match resp {
                    Some(QueueResp::Ok) => {
                        assert!(in_queue, "k={k} {adv:?}: resolved Ok but value missing")
                    }
                    None => assert!(!in_queue, "k={k} {adv:?}: resolved ⊥ but value present"),
                    other => panic!("k={k} {adv:?}: impossible enqueue response {other:?}"),
                },
                other => panic!("k={k} {adv:?}: impossible resolution {other:?}"),
            }
        }
    }
}

#[test]
fn dequeue_crash_sweep_resolves_consistently() {
    for adv in adversaries() {
        for k in 1..60 {
            let q = DssQueue::new(1, 8);
            let h0 = q.register_thread().unwrap();
            q.enqueue(h0, 7).unwrap();
            let pre_ops = q.pool().stats().total(); // skip init + enqueue ops
            let _ = pre_ops;
            let crashed = q.pool().crashes_within(k, || {
                q.prep_dequeue(h0);
                let _ = q.exec_dequeue(h0);
            });
            if !crashed {
                break;
            }
            q.pool().crash(&adv);
            q.recover();
            q.rebuild_allocator();
            let still_there = q.snapshot_values() == vec![7];
            match q.resolve(h0) {
                Resolved { op: None, resp: None } => {
                    assert!(still_there, "k={k} {adv:?}: no prep but value gone")
                }
                Resolved { op: Some(ResolvedOp::Dequeue), resp } => match resp {
                    Some(QueueResp::Value(7)) => {
                        assert!(!still_there, "k={k} {adv:?}: dequeued but still present")
                    }
                    None => assert!(still_there, "k={k} {adv:?}: no effect but value gone"),
                    other => panic!("k={k} {adv:?}: impossible dequeue response {other:?}"),
                },
                other => panic!("k={k} {adv:?}: impossible resolution {other:?}"),
            }
        }
    }
}

#[test]
fn empty_dequeue_crash_sweep() {
    for adv in adversaries() {
        for k in 1..30 {
            let q = DssQueue::new(1, 4);
            let h0 = q.register_thread().unwrap();
            let crashed = q.pool().crashes_within(k, || {
                q.prep_dequeue(h0);
                let _ = q.exec_dequeue(h0);
            });
            if !crashed {
                break;
            }
            q.pool().crash(&adv);
            q.recover();
            q.rebuild_allocator();
            assert!(q.snapshot_values().is_empty(), "k={k}: queue must stay empty");
            match q.resolve(h0) {
                Resolved { op: None, resp: None }
                | Resolved { op: Some(ResolvedOp::Dequeue), resp: None }
                | Resolved { op: Some(ResolvedOp::Dequeue), resp: Some(QueueResp::Empty) } => {}
                other => panic!("k={k} {adv:?}: impossible resolution {other:?}"),
            }
        }
    }
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
    assert_eq!(q.nodes.free_count(), 3);
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
}

#[test]
fn ops_completed_counts() {
    let q = DssQueue::new(2, 8);
    let h0 = q.register_thread().unwrap();
    let h1 = q.register_thread().unwrap();
    q.enqueue(h0, 1).unwrap();
    q.prep_enqueue(h1, 2).unwrap();
    q.exec_enqueue(h1);
    q.dequeue(h0);
    assert_eq!(q.ops_completed(), 3);
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

/// The lease protocol of the leased layers, one body run on each:
/// racing `exec` calls elect one holder per tenure and all complete, and a
/// lease whose holder's nonce no LIVE slot carries — because the holder
/// released its slot mid-lease, or crashed and was orphaned — is stolen by
/// a parked waiter.
macro_rules! lease_protocol_test {
    ($name:ident, $ty:ty) => {
        #[test]
        fn $name() {
            const THREADS: usize = 4;
            let q = <$ty>::new(THREADS, 16);
            let hs: Vec<_> = (0..THREADS).map(|_| q.register_thread().unwrap()).collect();
            for (tid, &h) in hs.iter().enumerate() {
                q.prep_enqueue(h, tid as u64 + 1).unwrap();
            }
            std::thread::scope(|scope| {
                for &h in &hs {
                    let q = &q;
                    scope.spawn(move || q.exec_enqueue(h));
                }
            });
            let mut values = q.snapshot_values();
            values.sort_unstable();
            assert_eq!(values, [1, 2, 3, 4]);
            assert_eq!(q.pool().peek(q.lease.word()), 0, "lease released after the batches");
            assert!((0..THREADS).all(|s| q.lease.is_idle(s)), "every waiter collected its result");

            // A holder that released its slot (not crashed) while its nonce
            // still sits in the lease word: nobody LIVE carries the nonce.
            let q = <$ty>::new(2, 8);
            let h0 = q.register_thread().unwrap();
            let h1 = q.register_thread().unwrap();
            q.pool().store(q.lease.word(), h1.nonce());
            q.release_thread(h1).unwrap();
            q.enqueue(h0, 5).unwrap();
            q.prep_dequeue(h0);
            assert_eq!(q.exec_dequeue(h0), QueueResp::Value(5));

            // A holder that died mid-tenure: its nonce sits durably in the
            // lease word, and its thread never comes back after the crash.
            let q = <$ty>::new(2, 8);
            let h0 = q.register_thread().unwrap();
            let h1 = q.register_thread().unwrap();
            q.pool().store(q.lease.word(), h1.nonce());
            q.pool().flush(q.lease.word());
            q.pool().drain_line(q.lease.word());
            q.pool().crash(&WritebackAdversary::None);
            q.begin_recovery();
            let mine = q.adopt(h0.slot()).unwrap();
            q.recover_one(mine);
            q.rebuild_allocator();
            q.enqueue(mine, 5).unwrap();
            q.prep_dequeue(mine);
            assert_eq!(q.exec_dequeue(mine), QueueResp::Value(5));
        }
    };
}

lease_protocol_test!(combining_lease_is_held_once_and_stolen_from_departed_holders, CombiningQueue);
lease_protocol_test!(
    replicated_lease_is_held_once_and_stolen_from_departed_holders,
    ReplicatedQueue
);

#[test]
fn recovery_pool_operations_are_pinned() {
    // A 1024-value queue crashed with one completed detectable dequeue and
    // one prepared enqueue. The counts were measured while recovery still
    // kept its node sets in hash sets: its volatile bookkeeping may change,
    // its pool operations may not.
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
    assert_eq!(recovered.since(&before), counts(2063, 9, 2, 7), "recover");
    assert_eq!(rebuilt.since(&recovered), counts(1029, 0, 0, 0), "rebuild_allocator");
}
