//! Differential checking of *replicated* histories: executions recorded
//! through the log-fed replicated layer, where every response was produced
//! by the leased appender applying a batch to the durable log, are fed to
//! the FIFO fast path ([`check_fifo`]) and to the classic monolithic
//! Wing–Gong search ([`check`]) — the ground-truth oracle for histories
//! small enough to afford it. The two must agree: on acceptance for genuine
//! recordings (batched appends preserve `queue`'s sequential
//! specification, not just the structure's internal invariants), and on
//! rejection for the same
//! recordings with a tampered response. Full-length recordings beyond the
//! oracle's 63-operation cap then ride the fast path alone.

use dss_checker::{check, check_fifo, records_for, CheckOptions, Condition, Event};
use dss_harness::crashsim::Layer;
use dss_harness::record::{
    check_plain, check_recorded, check_recorded_full, record_execution, record_plain_execution,
};
use dss_spec::types::{QueueResp, QueueSpec};

/// A value no recorded execution ever enqueues (worker values embed small
/// thread/sequence fields, the prefill descends from `u64::MAX`).
const POISON: u64 = 0xDEAD_BEEF_DEAD_0002;

#[test]
fn small_replicated_histories_agree_with_the_monolithic_oracle() {
    for seed in 0..8 {
        // 3 workers × 4 pairs + 4 prefill = 28 operations: within the
        // monolithic checker's capacity.
        let h = record_plain_execution(Layer::Replicated, 3, 4, 4, seed);
        let records = records_for(&h, Condition::Linearizability)
            .unwrap_or_else(|e| panic!("seed {seed}: recording ill-formed: {e}"));
        assert!(records.len() <= 63, "history outgrew the oracle");

        let oracle = check(&QueueSpec, &records).is_ok();
        assert!(oracle, "seed {seed}: oracle rejected a genuine replicated history");
        let fast = check_fifo(&QueueSpec, &records)
            .expect("distinct-value no-empty replicated runs are the fast path's home turf");
        assert_eq!(
            oracle,
            fast.is_ok(),
            "seed {seed}: FIFO fast path disagrees with the Wing–Gong oracle"
        );
    }
}

#[test]
fn tampered_replicated_histories_are_rejected_by_both_checkers() {
    for seed in 0..4 {
        let good = record_plain_execution(Layer::Replicated, 3, 4, 4, seed);
        let mut events: Vec<_> = good.events().to_vec();
        let victim = events
            .iter()
            .position(|e| matches!(e, Event::Return { resp: QueueResp::Value(_), .. }))
            .expect("replicated runs dequeue values");
        match &mut events[victim] {
            Event::Return { resp: QueueResp::Value(v), .. } => *v = POISON,
            _ => unreachable!(),
        }
        let mut bad = dss_checker::History::new();
        for e in events {
            match e {
                Event::Invoke { pid, op } => {
                    bad.invoke(pid, op);
                }
                Event::Return { of, resp } => bad.ret(of, resp),
                Event::Crash => bad.crash(),
            }
        }
        let records = records_for(&bad, Condition::Linearizability).unwrap();
        let oracle = check(&QueueSpec, &records).is_ok();
        assert!(!oracle, "seed {seed}: oracle accepted a poisoned dequeue");
        if let Some(fast) = check_fifo(&QueueSpec, &records) {
            assert_eq!(
                oracle,
                fast.is_ok(),
                "seed {seed}: FIFO fast path disagrees with the oracle on tampered input"
            );
        }
    }
}

#[test]
fn full_length_replicated_histories_pass_the_fast_path() {
    // Far beyond the monolithic cap: the fast path (with segmented
    // fallback) certifies the whole run, no sampling.
    for seed in 0..3 {
        let h = record_plain_execution(Layer::Replicated, 3, 400, 8, seed);
        check_plain(&h, Condition::Linearizability, &CheckOptions::default()).unwrap_or_else(|e| {
            panic!("seed {seed}: full-length replicated history rejected: {e}")
        });
    }
}

#[test]
fn detectable_replicated_histories_satisfy_the_dss_spec() {
    // The D⟨queue⟩ recording (prep/exec/resolve responses included) on the
    // replicated layer, checked small (sampled pipeline) and full-length.
    for seed in 0..4 {
        let h = record_execution(Layer::Replicated, 2, 5, seed);
        h.validate().unwrap_or_else(|e| panic!("seed {seed}: ill-formed: {e}"));
        check_recorded(&h, Condition::Linearizability)
            .unwrap_or_else(|e| panic!("seed {seed}: replicated D⟨queue⟩ history rejected: {e}"));
    }
    let h = record_execution(Layer::Replicated, 3, 40, 9);
    check_recorded_full(&h, Condition::Linearizability, &CheckOptions::default())
        .unwrap_or_else(|e| panic!("full-length replicated D⟨queue⟩ history rejected: {e}"));
}
