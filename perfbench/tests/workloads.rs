//! Runs every workload for a small fixed operation budget, untraced and
//! traced, and checks that it completes operations without a wrong result
//! and reports exactly the metrics `BENCHMARK.json` declares.

use std::time::Duration;

use dss_perfbench::{run, Budget, Plan, Workload, END_TO_END, PER_LAYER};

fn small() -> Plan {
    Plan {
        budget: Budget::Ops(200),
        verify_ops: 300,
        setup_min: (1, Duration::ZERO),
        calibration_flushes: 10_000,
    }
}

/// The `name` fields of the array under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to perfbench/");
    let (_, rest) = text.split_once(&format!("\"{key}\"")).expect("key present");
    let array = &rest[..rest.find(']').expect("array closes")];
    array
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("name is a string").to_string())
        .collect()
}

fn names(list: &[(&str, &str)]) -> Vec<String> {
    list.iter().map(|(n, _)| n.to_string()).collect()
}

#[test]
fn benchmark_json_declares_what_the_code_reports() {
    assert_eq!(declared("end_to_end"), names(&END_TO_END));
    assert_eq!(declared("per_layer"), names(&PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared("workloads"), workloads);
}

fn check(w: Workload) {
    for trace in [false, true] {
        let out = run(w, 7, &small(), trace);
        let report = out.lines.join("\n");
        assert!(out.ops > 0, "{report}");
        assert_eq!((out.violations, out.failed), (0, 0), "{report}");
        let mut got: Vec<String> = out.metrics.iter().map(|m| m.name.to_string()).collect();
        let mut want = declared(if trace { "per_layer" } else { "end_to_end" });
        got.sort();
        want.sort();
        assert_eq!(got, want, "{report}");
        assert!(out.metrics.iter().all(|m| m.value.is_finite()), "{:?}", out.metrics);
        let json = out.json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
        assert!(!json.contains('\n'), "the result is one line");
        assert_eq!(!out.spans.is_empty(), trace, "raw spans are kept only when tracing");
    }
}

#[test]
fn queue_pair() {
    check(Workload::QueuePair);
}

#[test]
fn queue_replicated_read() {
    check(Workload::QueueReplicatedRead);
}

#[test]
fn kv_update_heavy() {
    check(Workload::KvUpdateHeavy);
}

#[test]
fn kv_read_heavy() {
    check(Workload::KvReadHeavy);
}

#[test]
fn recover() {
    check(Workload::Recover);
}
