//! Differential tests for the replicated layer: a volatile replica is
//! nothing but a deterministic function of the durable op log, so after
//! `advance_to(committed_seq)` its contents must be byte-equal to a
//! single-instance queue that replayed the same operation script — under
//! every combination of the simulator's writeback knobs (coalescing ×
//! per-address drains), with the CAS-racing `DssQueue` as the oracle. A crash sweep then kills the
//! leased appender mid-batch at every instrumented persistence point and
//! checks that a survivor adopting the dead slot sees replicas that
//! rebuild to exactly the committed prefix.

use proptest::prelude::*;

use dss_core::{DssQueue, ReplicatedQueue, Resolved, ResolvedOp};
use dss_pmem::{FlushGranularity, PmemPool, WritebackAdversary};
use dss_spec::types::QueueResp;
use std::panic::{catch_unwind, AssertUnwindSafe};

const NTHREADS: usize = 3;
const NODES_PER_THREAD: u64 = 64;

/// One scripted operation (values stay small so collisions across
/// enqueues are common — the comparison is positional, not by identity).
#[derive(Clone, Debug)]
enum Op {
    Enq(u64),
    Deq,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Two enqueue branches tilt the mix toward growth so replicas carry
    // real content by the end of most scripts.
    prop_oneof![(1u64..50).prop_map(Op::Enq), (50u64..100).prop_map(Op::Enq), Just(Op::Deq),]
}

proptest! {
    /// Replayed scripts agree op-for-op with the oracle, and every
    /// replica caught up to the committed seq holds exactly the oracle's
    /// final contents.
    #[test]
    fn replicas_match_single_instance_replay(
        script in prop::collection::vec(arb_op(), 1..120),
        nreplicas in 1usize..4,
        coalesce in proptest::bool::ANY,
        per_addr in proptest::bool::ANY,
    ) {
        let q = ReplicatedQueue::<PmemPool>::new_configured(
            NTHREADS, NODES_PER_THREAD, nreplicas, FlushGranularity::Line,
        );
        q.pool().set_coalescing(coalesce);
        q.pool().set_per_address_drains(per_addr);
        let h = q.register_thread().unwrap();

        // The single-instance oracle replays the identical script on its
        // own pool.
        let oracle = DssQueue::new(NTHREADS, NODES_PER_THREAD);
        let oh = oracle.register_thread().unwrap();

        for (i, op) in script.iter().enumerate() {
            match op {
                Op::Enq(v) => {
                    let (a, b) = (q.enqueue(h, *v), oracle.enqueue(oh, *v));
                    prop_assert_eq!(a.is_ok(), b.is_ok(), "op {}: admission disagrees", i);
                }
                Op::Deq => {
                    let (a, b) = (q.dequeue(h), oracle.dequeue(oh));
                    prop_assert_eq!(a, b, "op {}: dequeue response disagrees", i);
                }
            }
        }

        let expect = oracle.snapshot_values();
        prop_assert_eq!(&q.snapshot_values(), &expect, "durable contents diverged");
        let committed = q.committed_seq();
        for r in 0..q.nreplicas() {
            q.advance_to(r, committed);
            prop_assert_eq!(
                &q.replica_values(r), &expect,
                "replica {} disagrees with the single-instance replay \
                 (coalesce={}, per_addr={})",
                r, coalesce, per_addr
            );
            prop_assert_eq!(q.replica_applied(r), committed);
        }
    }
}

/// The appender dies mid-batch at every instrumented persistence point
/// (both writeback adversaries); a survivor adopts the dead slot via the
/// §3.3 single-slot path, resolves the interrupted announce, and every
/// replica — rebuilt purely by replaying the committed log prefix — must
/// equal the durable contents, before and after the survivor keeps
/// operating through the stale-lease steal.
#[test]
fn appender_killed_mid_batch_survivor_adopts_and_replicas_agree() {
    for adversary in [WritebackAdversary::All, WritebackAdversary::None] {
        for k in 1..=60u64 {
            let q = ReplicatedQueue::new(2, 16);
            let h0 = q.register_thread().unwrap();
            for v in [1, 2, 3] {
                q.enqueue(h0, v).unwrap();
            }
            q.prep_enqueue(h0, 9).unwrap();
            q.pool().arm_crash_after(k);
            let died = catch_unwind(AssertUnwindSafe(|| q.exec_enqueue(h0))).is_err();
            q.pool().disarm_crash();
            if !died {
                // The sweep walked past the batch's last persistence
                // point; later k values only repeat this completion.
                break;
            }
            q.pool().crash(&adversary);

            q.begin_recovery();
            let mine = q.adopt(h0.slot()).expect("the dead appender's slot is orphaned");
            q.recover_one(mine);
            q.rebuild_allocator();

            let expect = match q.resolve(mine) {
                Resolved { op: Some(ResolvedOp::Enqueue(9)), resp: Some(QueueResp::Ok) } => {
                    vec![1, 2, 3, 9]
                }
                Resolved { op: Some(ResolvedOp::Enqueue(9)), resp: None } => vec![1, 2, 3],
                other => panic!("{adversary:?} k={k}: unexpected resolution {other:?}"),
            };
            assert_eq!(q.snapshot_values(), expect, "{adversary:?} k={k}");
            let committed = q.committed_seq();
            for r in 0..q.nreplicas() {
                q.advance_to(r, committed);
                assert_eq!(
                    q.replica_values(r),
                    expect,
                    "{adversary:?} k={k}: replica {r} diverged after recovery-by-replay"
                );
                assert_eq!(q.replica_applied(r), committed, "{adversary:?} k={k}");
            }

            // The survivor keeps going through the adopted slot: its
            // first exec steals the lease the dead appender still holds
            // durably, and the replicas track the new committed prefix.
            q.enqueue(mine, 10).unwrap();
            assert_eq!(q.dequeue(mine), QueueResp::Value(expect[0]), "{adversary:?} k={k}");
            let mut after: Vec<u64> = expect[1..].to_vec();
            after.push(10);
            let committed = q.committed_seq();
            for r in 0..q.nreplicas() {
                q.advance_to(r, committed);
                assert_eq!(
                    q.replica_values(r),
                    after,
                    "{adversary:?} k={k}: replica {r} diverged after the survivor continued"
                );
            }
        }
    }
}
