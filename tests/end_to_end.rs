//! Cross-crate integration tests through the `dss` facade: queues from
//! three crates, the pmem substrate, the harness drivers, and the
//! linearizability checker, exercised together.

use dss::checker::Condition;
use dss::core::DssQueue;
use dss::harness::adapter::QueueKind;
use dss::harness::crashsim::{concurrent_crash_run, sweep, Layer, SweepConfig};
use dss::harness::record::{check_recorded, record_crash_execution, record_execution};
use dss::harness::throughput::{measure, ThroughputConfig};
use dss::pmem::{FlushGranularity, WritebackAdversary};
use dss::spec::types::QueueResp;
use std::time::Duration;

#[test]
fn all_seven_queues_interleave_correctly() {
    for kind in QueueKind::all() {
        let q = kind.build(3, 64);
        let hs: Vec<_> = (0..3).map(|_| q.register_thread()).collect();
        // Interleaved FIFO pattern across threads.
        q.enqueue(hs[0], 1);
        q.enqueue(hs[1], 2);
        assert_eq!(q.dequeue(hs[2]), QueueResp::Value(1), "{}", kind.label());
        q.enqueue(hs[2], 3);
        assert_eq!(q.dequeue(hs[0]), QueueResp::Value(2), "{}", kind.label());
        assert_eq!(q.dequeue(hs[1]), QueueResp::Value(3), "{}", kind.label());
        assert_eq!(q.dequeue(hs[1]), QueueResp::Empty, "{}", kind.label());
    }
}

#[test]
fn throughput_driver_runs_every_kind() {
    let config = ThroughputConfig {
        threads: 2,
        duration: Duration::from_millis(20),
        repeats: 1,
        nodes_per_thread: 256,
        flush_penalty: 0,
        ..Default::default()
    };
    for kind in QueueKind::all() {
        assert!(measure(kind, &config).mops_mean > 0.0, "{}", kind.label());
    }
}

#[test]
fn crash_matrix_is_clean_under_every_configuration() {
    for adversary in [
        WritebackAdversary::None,
        WritebackAdversary::All,
        WritebackAdversary::Random { seed: 42, prob: 0.5 },
    ] {
        for granularity in [FlushGranularity::Line, FlushGranularity::Word] {
            for coalesce in [false, true] {
                let config = SweepConfig {
                    adversary: adversary.clone(),
                    granularity,
                    independent_recovery: false,
                    coalesce,
                    per_address: coalesce,
                    // The other layers' own exhaustive sweeps live in the
                    // harness crashsim tests and the `--layer` crash
                    // matrices.
                    layer: Layer::Cas,
                };
                for (op, out) in sweep(&config) {
                    assert_eq!(out.violations, 0, "{op} {config:?}: {out:?}");
                }
            }
        }
    }
}

#[test]
fn multithreaded_crashes_conserve_values() {
    for seed in 100..110 {
        concurrent_crash_run(Layer::Cas, 4, seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn recorded_histories_machine_check_as_theorem_1_claims() {
    for seed in 50..60 {
        let h = record_execution(Layer::Cas, 3, 4, seed);
        check_recorded(&h, Condition::Linearizability)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let h = record_crash_execution(Layer::Cas, 2, 6, seed);
        check_recorded(&h, Condition::StrictLinearizability)
            .unwrap_or_else(|e| panic!("seed {seed} (crash): {e}"));
    }
}

#[test]
fn repeated_crash_recover_cycles() {
    // Survive five consecutive crashes, each mid-operation, with state
    // advancing correctly between them.
    let q = DssQueue::new(1, 64);
    let h0 = q.register_thread().unwrap();
    let mut expected = Vec::new();
    for round in 0u64..5 {
        let value = 100 + round;
        q.prep_enqueue(h0, value).unwrap();
        q.pool().arm_crash_after(2 + round); // different point each round
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.exec_enqueue(h0);
        }));
        q.pool().disarm_crash();
        q.pool().crash(&WritebackAdversary::Random { seed: round, prob: 0.5 });
        q.recover();
        q.rebuild_allocator();
        let _ = r;
        // Exactly-once retry discipline:
        match q.resolve(h0) {
            dss::core::Resolved { resp: Some(QueueResp::Ok), .. } => {}
            _ => {
                q.prep_enqueue(h0, value).unwrap();
                q.exec_enqueue(h0);
            }
        }
        expected.push(value);
        assert_eq!(q.snapshot_values(), expected, "round {round}");
    }
    // Finally drain it all.
    for v in expected {
        assert_eq!(q.dequeue(h0), QueueResp::Value(v));
    }
    assert_eq!(q.dequeue(h0), QueueResp::Empty);
}

#[test]
fn detectability_is_on_demand() {
    // The DSS's flexibility claim: the same queue serves detectable and
    // non-detectable operations side by side, and only the former pay for
    // the X updates.
    let q = DssQueue::new(2, 64);
    let h0 = q.register_thread().unwrap();
    let h1 = q.register_thread().unwrap();
    q.pool().reset_stats();
    q.enqueue(h0, 1).unwrap();
    let plain = q.pool().stats();
    q.pool().reset_stats();
    q.prep_enqueue(h1, 2).unwrap();
    q.exec_enqueue(h1);
    let detectable = q.pool().stats();
    assert!(
        detectable.flushes > plain.flushes,
        "detectable enqueue must issue extra flushes ({} vs {})",
        detectable.flushes,
        plain.flushes
    );
    assert_eq!(q.dequeue(h0), QueueResp::Value(1));
    assert_eq!(q.dequeue(h0), QueueResp::Value(2));
}
