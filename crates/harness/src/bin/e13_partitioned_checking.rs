//! Experiment E13 — checker throughput: monolithic vs partitioned
//! pipelines.
//!
//! PR 6 replaced "sample 63 operations of a soak run" with full-length
//! verification: cut-point segmentation with frontier threading, the
//! near-linear FIFO fast path, P-compositional partitioning, and a
//! streaming checker that verifies windows as they seal. This experiment
//! measures what each pipeline checks per second, on real recorded
//! DSS-queue executions wherever the pipeline accepts them:
//!
//! * **monolithic** — the classic bounded Wing–Gong search on many small
//!   recorded histories (its only regime; ground-truth oracle);
//! * **segmented** — full-length phased `D⟨queue⟩` executions;
//! * **fifo fast path** — a ≥100k-op plain-operation execution of the
//!   real DSS queue, checked in full;
//! * **streaming** — a million-op single-threaded DSS-queue execution
//!   verified window-by-window while it is recorded;
//! * **partitioned** — a 100k-op multi-key register history split by
//!   P-compositionality.
//!
//! Writes the machine-readable summary to `BENCH_checker.json` (checked
//! ops/sec per pipeline) in the current directory.
//!
//! ```text
//! cargo run -p dss-harness --release --bin e13_partitioned_checking
//! ```

use std::time::Instant;

use dss_checker::{
    check_partitioned, records_for, CheckOptions, Condition, History, StreamingRecorder,
};
use dss_core::DssQueue;
use dss_harness::crashsim::Layer;
use dss_harness::json;
use dss_harness::record::{
    check_plain, check_recorded, check_recorded_full, record_execution, record_phased_execution,
    record_plain_execution,
};
use dss_spec::types::{QueueOp, QueueResp, QueueSpec, RegisterOp, RegisterResp, RegisterSpec};
use dss_spec::Keyed;

struct Row {
    pipeline: &'static str,
    ops: usize,
    secs: f64,
    note: String,
}

fn row(pipeline: &'static str, ops: usize, secs: f64, note: String) -> Row {
    Row { pipeline, ops, secs, note }
}

fn main() {
    let args = dss_harness::cli::parse();
    let options = CheckOptions::default();
    let mut rows: Vec<Row> = Vec::new();

    // Monolithic oracle: many small histories (3 threads x 5 steps each).
    {
        let histories: Vec<_> =
            (0..60).map(|s| record_execution(Layer::Cas, 3, 5, args.seed + s)).collect();
        let ops: usize = histories.iter().map(|h| h.events().len() / 2).sum();
        let t = Instant::now();
        for h in &histories {
            check_recorded(h, Condition::Linearizability).expect("oracle verdict");
        }
        rows.push(row("monolithic", ops, t.elapsed().as_secs_f64(), "60 small histories".into()));
    }

    // Segmented pipeline: one full-length phased D⟨queue⟩ execution.
    {
        let h = record_phased_execution(3, 600, 5, args.seed);
        let t = Instant::now();
        let stats = check_recorded_full(&h, Condition::Linearizability, &options)
            .unwrap_or_else(|e| panic!("segmented: {e}"));
        rows.push(row(
            "segmented",
            stats.ops,
            t.elapsed().as_secs_f64(),
            format!(
                "{} windows, max {}, frontier peak {}",
                stats.windows, stats.max_window, stats.frontier_peak
            ),
        ));
    }

    // FIFO fast path: a >=100k-op plain execution of the real queue.
    {
        let h = record_plain_execution(Layer::Cas, 4, 15_000, 8, args.seed);
        let t = Instant::now();
        let stats = check_plain(&h, Condition::Linearizability, &options)
            .unwrap_or_else(|e| panic!("fifo fast path: {e}"));
        rows.push(row(
            "fifo_fast_path",
            stats.ops,
            t.elapsed().as_secs_f64(),
            format!("fast_path={}", stats.fast_path),
        ));
    }

    // Streaming: verify a million-op real execution while recording it.
    {
        let q = DssQueue::new(1, 64);
        let h = q.register_thread().unwrap();
        let rec = StreamingRecorder::new(QueueSpec, Condition::Linearizability, options.clone());
        let t = Instant::now();
        for i in 0..500_000u64 {
            let id = rec.invoke(0, QueueOp::Enqueue(i + 1));
            q.enqueue(h, i + 1).unwrap();
            rec.ret(id, QueueResp::Ok);
            let id = rec.invoke(0, QueueOp::Dequeue);
            let resp = q.dequeue(h);
            rec.ret(id, resp);
        }
        let stats = rec.finish().unwrap_or_else(|e| panic!("streaming: {e}"));
        rows.push(row(
            "streaming",
            stats.ops,
            t.elapsed().as_secs_f64(),
            format!("{} windows sealed in flight", stats.windows),
        ));
    }

    // Partitioned: 100k ops over 16 independent register cells.
    {
        let spec = Keyed::new(RegisterSpec);
        let mut h: History<(u64, RegisterOp), RegisterResp> = History::new();
        let mut last = [0u64; 16];
        for i in 0..50_000u64 {
            let key = i % 16;
            let pid = (i % 8) as usize;
            if i % 3 == 0 {
                let id = h.invoke(pid, (key, RegisterOp::Read));
                h.ret(id, RegisterResp::Value(last[key as usize]));
            } else {
                let id = h.invoke(pid, (key, RegisterOp::Write(i)));
                h.ret(id, RegisterResp::Ok);
                last[key as usize] = i;
            }
        }
        let records = records_for(&h, Condition::Linearizability).unwrap();
        let t = Instant::now();
        let stats = check_partitioned(&spec, &records, &options)
            .unwrap_or_else(|e| panic!("partitioned: {e}"));
        rows.push(row(
            "partitioned",
            stats.ops,
            t.elapsed().as_secs_f64(),
            format!("{} partitions", stats.partitions),
        ));
    }

    println!("# E13: checker throughput, monolithic vs partitioned pipelines");
    println!("{:<16} {:>10} {:>10} {:>12}  note", "pipeline", "ops", "secs", "ops/sec");
    for r in &rows {
        println!(
            "{:<16} {:>10} {:>10.3} {:>12.0}  {}",
            r.pipeline,
            r.ops,
            r.secs,
            r.ops as f64 / r.secs,
            r.note
        );
    }

    // Machine-readable summary through the shared envelope.
    let mut envelope = json::Envelope::new("e13_partitioned_checking", "checked_ops_per_sec");
    for r in &rows {
        envelope = envelope.series(
            r.pipeline,
            json::Value::object([
                ("ops", json::Value::Int(r.ops as i64)),
                ("secs", json::Value::rounded(r.secs, 6)),
                ("ops_per_sec", json::Value::rounded(r.ops as f64 / r.secs, 0)),
            ]),
        );
    }
    envelope.write("BENCH_checker.json");
}
