//! E16 — YCSB-style key-value throughput on the detectable hash map.
//!
//! The map is loaded with `--keys` keys, then every thread runs a
//! read/update mix against it: a read is a plain `get` (no flushes on the
//! hit path), an update is a detectable `prep_put`/`exec_put` pair (one
//! logical operation, persisted and resolvable after a crash). Key choice
//! follows YCSB's Zipfian request distribution (θ = 0.99) with a uniform
//! column for contrast, and the workload rows are YCSB's core mixes:
//!
//! * workload A — update-heavy, 50% reads;
//! * workload B — read-heavy, 95% reads;
//! * workload C — read-only, 100% reads.
//!
//! The sweep crosses workload × distribution × thread counts and writes
//! `BENCH_kv.json` (shared envelope schema) to the invoking directory;
//! official runs are copied into `results/`.
//!
//! ```text
//! cargo bench -p dss-bench --bench kv -- \
//!     [--threads N] [--ms M] [--repeats R] [--penalty SPINS]
//!     [--keys K] [--assert-kv-mix]
//! ```
//!
//! `--assert-kv-mix` makes the sweep a CI gate: on a ≥4-CPU host the
//! read-heavy Zipfian mix (B) must beat the update-heavy mix (A) by ≥1.2×
//! at 4 threads — plain reads skip the flush path, so detectability must
//! not tax them; on a smaller host the gate weakens to B-at-least-A
//! within the two samples' noise at the highest measured thread count
//! (the E15 honesty convention).

use std::time::Duration;

use dss_bench::json;
use dss_harness::cli::Flags;
use dss_harness::throughput::{measure_kv_mix, KvMixConfig, Throughput};

/// YCSB core mixes: (label, read fraction).
const WORKLOADS: [(&str, f64); 3] = [("a", 0.5), ("b", 0.95), ("c", 1.0)];
/// Request distributions: (label, Zipf θ).
const SKEWS: [(&str, f64); 2] = [("zipf", 0.99), ("uniform", 0.0)];

fn main() {
    let flags = Flags::parse(
        "kv",
        &["--threads", "--ms", "--repeats", "--penalty", "--keys"],
        &["--assert-kv-mix", "--bench"],
    );
    let max_threads = flags.value("--threads", 8);
    let ms = flags.value("--ms", 120);
    let repeats = flags.value("--repeats", 2);
    let penalty: u64 = flags.value("--penalty", 20);
    let keys: u64 = flags.value("--keys", 1024);

    // 1, 2, 4, ... up to and including the requested thread count.
    let mut counts = vec![];
    let mut n = 1;
    while n < max_threads {
        counts.push(n);
        n *= 2;
    }
    counts.push(max_threads);

    let mut envelope = json::Envelope::new("e16_ycsb_kv", "mops_per_sec")
        .meta("flush_penalty", json::Value::Int(penalty as i64))
        .meta("backend", json::Value::str("pmem"))
        .meta("keys", json::Value::Int(keys as i64))
        .meta("threads", json::Value::array(counts.iter().map(|&t| json::Value::Int(t as i64))))
        .meta(
            "workload_read_fractions",
            json::Value::object(WORKLOADS.map(|(w, f)| (w, json::Value::Num(f)))),
        )
        .meta("zipf_theta", json::Value::Num(SKEWS[0].1));

    // series[workload][skew] -> one point per thread count.
    let mut series = vec![vec![Vec::with_capacity(counts.len()); SKEWS.len()]; WORKLOADS.len()];
    for (wi, &(workload, read_fraction)) in WORKLOADS.iter().enumerate() {
        println!(
            "# E16 YCSB {workload}: {:.0}% reads over {keys} keys, flush penalty = {penalty} \
             spins, backend = pmem (Mops/s)",
            read_fraction * 100.0
        );
        print!("{:>8}", "threads");
        for &(skew, _) in &SKEWS {
            print!(" {:>22}", skew);
        }
        println!();
        for &threads in &counts {
            print!("{threads:>8}");
            for (si, &(_, zipf_theta)) in SKEWS.iter().enumerate() {
                let config = KvMixConfig {
                    threads,
                    duration: Duration::from_millis(ms),
                    repeats,
                    keyspace: keys,
                    buckets: (keys / 4).next_power_of_two().max(16),
                    flush_penalty: penalty,
                    read_fraction,
                    zipf_theta,
                    ..Default::default()
                };
                let t = measure_kv_mix(&config);
                print!(" {:>14.3} ±{:>6.3}", t.mops_mean, t.mops_stddev);
                series[wi][si].push(t);
            }
            println!();
        }
        println!();
    }

    for (wi, &(workload, _)) in WORKLOADS.iter().enumerate() {
        for (si, &(skew, _)) in SKEWS.iter().enumerate() {
            envelope = envelope.series(
                format!("ycsb_{workload}_{skew}"),
                json::Value::array(series[wi][si].iter().map(|t| {
                    json::Value::object([
                        ("mean", json::Value::rounded(t.mops_mean, 4)),
                        ("stddev", json::Value::rounded(t.mops_stddev, 4)),
                    ])
                })),
            );
        }
    }
    envelope.write("BENCH_kv.json");

    if flags.has("--assert-kv-mix") {
        assert_kv_mix(&counts, &series);
    }
}

/// The E16 CI gate (see the module docs for the per-host tiers). Indexes
/// `series[workload][skew=zipf]`.
fn assert_kv_mix(counts: &[usize], series: &[Vec<Vec<Throughput>>]) {
    let cpus = json::host_cpus();
    let (update_heavy, read_heavy) = (&series[0][0], &series[1][0]);
    if cpus >= 4 {
        let i = counts
            .iter()
            .position(|&t| t == 4)
            .expect("the kv-mix gate needs a 4-thread point (--threads >= 4)");
        let (a, b) = (update_heavy[i], read_heavy[i]);
        let ratio = b.mops_mean / a.mops_mean;
        println!(
            "# kv-mix gate: {ratio:.2}x read-heavy over update-heavy at 4 threads (need >= 1.2x)"
        );
        assert!(
            ratio >= 1.2,
            "read-heavy YCSB-B throughput below 1.2x update-heavy YCSB-A at 4 threads: \
             {:.3} vs {:.3} Mops/s — plain reads should skip the flush path",
            b.mops_mean,
            a.mops_mean
        );
    } else {
        let i = counts.len() - 1;
        let (a, b) = (update_heavy[i], read_heavy[i]);
        println!(
            "# kv-mix gate ({cpus} CPUs): read-heavy at least update-heavy within noise at {} \
             threads",
            counts[i]
        );
        assert!(
            b.mops_mean + b.mops_stddev >= a.mops_mean - a.mops_stddev,
            "read-heavy YCSB-B fell below update-heavy YCSB-A beyond noise at {} threads: \
             {:.3} ±{:.3} vs {:.3} ±{:.3} Mops/s",
            counts[i],
            b.mops_mean,
            b.mops_stddev,
            a.mops_mean,
            a.mops_stddev
        );
    }
}
