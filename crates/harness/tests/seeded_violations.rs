//! Seeded-violation corpus: take known-good histories recorded from the
//! *real* DSS queue, inject a defect (mutate a response, swap two returns),
//! and assert the segmented checker rejects the history with a
//! [`Violation`] that names the window actually containing the defect —
//! the diagnostic contract the full-length pipeline offers that sampled
//! checking never could.

use dss_checker::{check_history, CheckOptions, Condition, Event, Violation};
use dss_harness::crashsim::Layer;
use dss_harness::record::{
    check_map_history, check_plain, check_recorded_full, record_map_execution,
    record_map_partial_recovery_execution, record_phased_execution, record_plain_execution,
    MapHistory, RecordedHistory,
};
use dss_spec::types::{KvOp, KvResp, KvSpec, QueueResp};
use dss_spec::{DetResp, Keyed};
use proptest::prelude::*;

/// A value no worker ever enqueues (worker values are `(tid << 32) | i`
/// with small `tid`/`i`; the prefill uses values descending from
/// `u64::MAX` for only a handful of slots).
const POISON: u64 = 0xDEAD_BEEF_DEAD_0001;

/// Rebuilds a history from events (IDs are event indices, so in-order
/// replay preserves them).
fn replay<O: Clone, R: Clone>(events: Vec<Event<O, R>>) -> dss_checker::History<O, R> {
    let mut h = dss_checker::History::new();
    for e in events {
        match e {
            Event::Invoke { pid, op } => {
                h.invoke(pid, op);
            }
            Event::Return { of, resp } => h.ret(of, resp),
            Event::Crash => h.crash(),
        }
    }
    h
}

/// Indices of `Exec`-return events that observed a dequeued value, paired
/// with the returning operation's ID.
fn value_returns(h: &RecordedHistory) -> Vec<(usize, usize)> {
    h.events()
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e {
            Event::Return { of, resp: DetResp::Ret(QueueResp::Value(_)) } => Some((i, of.0)),
            _ => None,
        })
        .collect()
}

/// Asserts `violation` is a [`Violation::WindowNoLinearization`] whose op
/// range contains `op_id`.
fn assert_window_names(violation: &Violation, op_id: usize, what: &str) {
    match violation {
        Violation::WindowNoLinearization { first_op, last_op, .. } => {
            assert!(
                *first_op <= op_id && op_id <= *last_op,
                "{what}: reported window covers ops {first_op}..={last_op}, \
                 but the defect is at op {op_id}"
            );
        }
        other => panic!("{what}: expected WindowNoLinearization, got {other}"),
    }
}

#[test]
fn poisoned_dequeue_value_is_rejected_in_its_window() {
    // A known-good 3-thread phased run, long past the monolithic cap.
    let good = record_phased_execution(3, 120, 5, 21);
    assert!(
        check_recorded_full(&good, Condition::Linearizability, &CheckOptions::default()).is_ok(),
        "corpus base history must be violation-free"
    );
    let victims = value_returns(&good);
    assert!(victims.len() >= 3, "need dequeues observing values to mutate");

    // Mutate the first, a middle, and the last value-bearing return; the
    // poison value was never enqueued, so no linearization of the window
    // containing the mutated operation can reproduce it.
    let picks = [0, victims.len() / 2, victims.len() - 1];
    for &p in &picks {
        let (event_idx, op_id) = victims[p];
        let mut events: Vec<_> = good.events().to_vec();
        match &mut events[event_idx] {
            Event::Return { resp: DetResp::Ret(QueueResp::Value(v)), .. } => *v = POISON,
            _ => unreachable!("indexed a value return"),
        }
        let bad = replay(events);
        let err = check_recorded_full(&bad, Condition::Linearizability, &CheckOptions::default())
            .expect_err("poisoned response must be rejected");
        assert_window_names(&err, op_id, &format!("poison at op {op_id}"));
    }
}

#[test]
fn swapped_dequeue_values_are_rejected_no_later_than_the_second_window() {
    let good = record_phased_execution(3, 120, 5, 33);
    let victims = value_returns(&good);
    assert!(victims.len() >= 2, "need two dequeued values to swap");
    let (ei, oi) = victims[0];
    let (ej, oj) = victims[victims.len() - 1];
    let mut events: Vec<_> = good.events().to_vec();
    let (vi, vj) = match (&events[ei], &events[ej]) {
        (
            Event::Return { resp: DetResp::Ret(QueueResp::Value(a)), .. },
            Event::Return { resp: DetResp::Ret(QueueResp::Value(b)), .. },
        ) => (*a, *b),
        _ => unreachable!(),
    };
    assert_ne!(vi, vj, "distinct worker values");
    // Swap the two observed values: FIFO order (or value availability) now
    // breaks somewhere between the two tampered operations.
    match &mut events[ei] {
        Event::Return { resp: DetResp::Ret(QueueResp::Value(v)), .. } => *v = vj,
        _ => unreachable!(),
    }
    match &mut events[ej] {
        Event::Return { resp: DetResp::Ret(QueueResp::Value(v)), .. } => *v = vi,
        _ => unreachable!(),
    }
    let bad = replay(events);
    let err = check_recorded_full(&bad, Condition::Linearizability, &CheckOptions::default())
        .expect_err("swapped responses must be rejected");
    // The defect spans two windows; the checker reports the first window
    // that admits no linearization, which must lie within the tampered
    // span — never before the first swap, never after the second.
    match &err {
        Violation::WindowNoLinearization { first_op, last_op, .. } => {
            assert!(
                *last_op >= oi.min(oj) && *first_op <= oi.max(oj),
                "reported window {first_op}..={last_op} outside tampered span \
                 [{}, {}]",
                oi.min(oj),
                oi.max(oj)
            );
        }
        other => panic!("expected WindowNoLinearization, got {other}"),
    }
}

#[test]
fn poisoned_plain_history_is_rejected_by_the_fast_path_with_named_ops() {
    // Plain-op recording: distinct values, never-empty — the FIFO fast
    // path's home turf.
    let good = record_plain_execution(Layer::Cas, 3, 400, 8, 5);
    assert!(
        check_plain(&good, Condition::Linearizability, &CheckOptions::default()).is_ok(),
        "corpus base history must be violation-free"
    );
    let mut events: Vec<_> = good.events().to_vec();
    let victim = events
        .iter()
        .enumerate()
        .find_map(|(i, e)| match e {
            Event::Return { of, resp: QueueResp::Value(_) } => Some((i, of.0)),
            _ => None,
        })
        .expect("plain run dequeues values");
    match &mut events[victim.0] {
        Event::Return { resp: QueueResp::Value(v), .. } => *v = POISON,
        _ => unreachable!(),
    }
    let bad = replay(events);
    let err = check_plain(&bad, Condition::Linearizability, &CheckOptions::default())
        .expect_err("poisoned plain response must be rejected");
    match &err {
        // The fast path rejects with the concrete offending ops; the
        // fallback segmented search names the window. Either must point at
        // the tampered operation.
        Violation::FifoOrder { ops, .. } => {
            assert!(ops.contains(&victim.1), "FifoOrder ops {ops:?} omit op {}", victim.1)
        }
        Violation::WindowNoLinearization { first_op, last_op, .. } => {
            assert!(*first_op <= victim.1 && victim.1 <= *last_op)
        }
        other => panic!("expected a located violation, got {other}"),
    }
}

#[test]
fn dropped_enqueue_ack_downgrade_is_rejected() {
    // Replace an enqueue's `Ok` with `Empty` (a response the spec can
    // never produce for an enqueue): the window containing it must fail.
    let good = record_phased_execution(3, 120, 5, 44);
    let victim = good
        .events()
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e {
            Event::Return { of, resp: DetResp::Ret(QueueResp::Ok) } => Some((i, of.0)),
            _ => None,
        })
        .nth(10)
        .expect("phased run acknowledges enqueues");
    let mut events: Vec<_> = good.events().to_vec();
    match &mut events[victim.0] {
        Event::Return { resp, .. } => *resp = DetResp::Ret(QueueResp::Empty),
        _ => unreachable!(),
    }
    let bad = replay(events);
    let err = check_recorded_full(&bad, Condition::Linearizability, &CheckOptions::default())
        .expect_err("ill-typed response must be rejected");
    assert_window_names(&err, victim.1, "enqueue answered Empty");
}

// ---------------------------------------------------------------------------
// Map corpus: the same seeded-defect contract for `Keyed<KvSpec>`
// histories, which the pipeline splits per key — so a violation must name
// the *partition* containing the defect on top of the window.
// ---------------------------------------------------------------------------

/// `(event index, op id, key, observed value)` of every get that found a
/// value.
fn map_get_values(h: &MapHistory) -> Vec<(usize, usize, u64, u64)> {
    h.events()
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e {
            Event::Return { of, resp: KvResp::Value(v) } => match h.events()[of.0] {
                Event::Invoke { op: (key, KvOp::Get), .. } => Some((i, of.0, key, *v)),
                _ => None,
            },
            _ => None,
        })
        .collect()
}

/// Asserts `violation` is a window violation naming partition `key` and
/// covering `op_id`.
fn assert_partition_names(violation: &Violation, key: u64, op_id: usize, what: &str) {
    match violation {
        Violation::WindowNoLinearization { first_op, last_op, partition, .. } => {
            assert_eq!(
                partition.as_deref(),
                Some(format!("{key}").as_str()),
                "{what}: wrong partition named"
            );
            assert!(
                *first_op <= op_id && op_id <= *last_op,
                "{what}: reported window covers ops {first_op}..={last_op}, \
                 but the defect is at op {op_id}"
            );
        }
        other => panic!("{what}: expected WindowNoLinearization, got {other}"),
    }
}

#[test]
fn poisoned_map_get_is_rejected_in_its_window_and_partition() {
    let good = record_map_execution(3, 80, 17);
    assert!(
        check_map_history(&good, Condition::Linearizability, &CheckOptions::default()).is_ok(),
        "corpus base history must be violation-free"
    );
    let victims = map_get_values(&good);
    assert!(victims.len() >= 3, "need gets observing values to mutate");
    let picks = [0, victims.len() / 2, victims.len() - 1];
    for &p in &picks {
        let (event_idx, op_id, key, _) = victims[p];
        let mut events: Vec<_> = good.events().to_vec();
        match &mut events[event_idx] {
            Event::Return { resp: KvResp::Value(v), .. } => *v = POISON,
            _ => unreachable!("indexed a value return"),
        }
        let bad = replay(events);
        let err = check_map_history(&bad, Condition::Linearizability, &CheckOptions::default())
            .expect_err("poisoned get must be rejected");
        assert_partition_names(&err, key, op_id, &format!("poison on key {key} at op {op_id}"));
    }
}

#[test]
fn swapped_map_values_across_keys_name_a_tampered_partition() {
    let good = record_map_execution(3, 80, 29);
    let victims = map_get_values(&good);
    // Two value-bearing gets on *different* keys with different values:
    // cross-pollinating them corrupts (at least) one of the two
    // partitions, and no other partition is touched.
    let (i, j) = {
        let mut found = None;
        'outer: for (a, va) in victims.iter().enumerate() {
            for (b, vb) in victims.iter().enumerate().skip(a + 1) {
                if va.2 != vb.2 && va.3 != vb.3 {
                    found = Some((a, b));
                    break 'outer;
                }
            }
        }
        found.expect("need gets on two distinct keys")
    };
    let (ei, oi, ki, vi) = victims[i];
    let (ej, oj, kj, vj) = victims[j];
    let mut events: Vec<_> = good.events().to_vec();
    match &mut events[ei] {
        Event::Return { resp: KvResp::Value(v), .. } => *v = vj,
        _ => unreachable!(),
    }
    match &mut events[ej] {
        Event::Return { resp: KvResp::Value(v), .. } => *v = vi,
        _ => unreachable!(),
    }
    let bad = replay(events);
    let err = check_map_history(&bad, Condition::Linearizability, &CheckOptions::default())
        .expect_err("cross-key value swap must be rejected");
    match &err {
        Violation::WindowNoLinearization { first_op, last_op, partition, .. } => {
            let p = partition.as_deref().expect("partitioned check names the partition");
            assert!(
                p == format!("{ki}") || p == format!("{kj}"),
                "named partition {p} is neither tampered key {ki} nor {kj}"
            );
            let tampered_op = if p == format!("{ki}") { oi } else { oj };
            assert!(
                *first_op <= tampered_op && tampered_op <= *last_op,
                "window {first_op}..={last_op} misses the tampered op {tampered_op} \
                 of partition {p}"
            );
        }
        other => panic!("expected WindowNoLinearization, got {other}"),
    }
}

#[test]
fn a_lost_durable_insert_is_rejected_in_its_partition() {
    // Extend a real history with a sequential tail on a fresh key: an
    // acknowledged (durable) put, then a get that claims the key is
    // absent. The insert's effect has been "lost" — no linearization of
    // that partition explains it, and the two-record partition makes the
    // expected window exact.
    const FRESH_KEY: u64 = 0xFEED;
    let good = record_map_execution(2, 40, 41);
    let mut h = replay(good.events().to_vec());
    let put = h.invoke(0, (FRESH_KEY, KvOp::Put(POISON)));
    h.ret(put, KvResp::Ok);
    let get = h.invoke(0, (FRESH_KEY, KvOp::Get));
    h.ret(get, KvResp::Absent);
    let err = check_map_history(&h, Condition::Linearizability, &CheckOptions::default())
        .expect_err("a lost durable insert must be rejected");
    assert_partition_names(&err, FRESH_KEY, get.0, "get after durable put answered Absent");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential property: on small recorded map histories — real
    /// crash runs, swept across the coalesce × per-address flush regimes
    /// — the per-key partitioned full-length pipeline and the monolithic
    /// Wing–Gong oracle on the composite `Keyed<KvSpec>` spec must agree;
    /// and both must accept, because the histories come from the real
    /// detectable map.
    #[test]
    fn partitioned_check_agrees_with_the_wgl_oracle_on_map_crash_histories(
        seed in 0u64..10_000,
        coalesce in prop::bool::ANY,
        per_address in prop::bool::ANY,
    ) {
        // 2 threads × 5 ops + the 8-key post-crash audit stays under the
        // oracle's MAX_OPS bitmask cap.
        let h = record_map_partial_recovery_execution(2, 2, 5, seed, coalesce, per_address);
        prop_assert!(h.validate().is_ok());
        let mono = check_history(
            &Keyed::new(KvSpec), &h, Condition::StrictLinearizability,
        );
        let part = check_map_history(
            &h, Condition::StrictLinearizability, &CheckOptions::default(),
        );
        prop_assert!(
            mono.is_ok() == part.is_ok(),
            "checkers disagree (seed {seed}, coalesce {coalesce}, per-address {per_address}): \
             monolithic {mono:?} vs partitioned {part:?}"
        );
        prop_assert!(part.is_ok(), "real map history rejected: {:?}", part.err());
    }

    /// The same agreement on *tampered* histories: poison one observed
    /// value and both checkers must reject.
    #[test]
    fn partitioned_and_wgl_oracle_agree_on_tampered_map_histories(
        seed in 0u64..10_000,
    ) {
        let good = record_map_partial_recovery_execution(2, 2, 5, seed, false, false);
        let victims = map_get_values(&good);
        prop_assume!(!victims.is_empty());
        let (event_idx, _, _, _) = victims[seed as usize % victims.len()];
        let mut events: Vec<_> = good.events().to_vec();
        match &mut events[event_idx] {
            Event::Return { resp: KvResp::Value(v), .. } => *v = POISON,
            _ => unreachable!("indexed a value return"),
        }
        let bad = replay(events);
        let mono = check_history(&Keyed::new(KvSpec), &bad, Condition::StrictLinearizability);
        let part = check_map_history(
            &bad, Condition::StrictLinearizability, &CheckOptions::default(),
        );
        prop_assert!(mono.is_err(), "oracle accepted a poisoned history (seed {seed})");
        prop_assert!(part.is_err(), "pipeline accepted a poisoned history (seed {seed})");
    }
}
