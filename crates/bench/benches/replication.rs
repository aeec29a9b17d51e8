//! E15 — replication read-scaling: replica-local reads vs the shared
//! single instance.
//!
//! Every thread runs a read-mixed workload against ONE queue: with
//! probability `read_fraction` an iteration peeks the front value, else
//! it runs one enqueue/dequeue pair. The single-instance DSS queue
//! answers a peek by walking the shared persistent structure, and reads
//! the tail to persist the link it returns through while the tail still
//! names its node (a flush only while the tail lags). The replicated
//! layer answers from the calling thread's volatile replica after
//! catching up to the visible seq: no flushes on the read path, but the
//! read locks its replica's `Mutex`, so readers sharded onto one replica
//! contend on that lock. The sweep crosses read fractions
//! 0.5/0.9/0.99 × thread counts × 1/2/4 replicas and writes
//! `BENCH_replication.json` (shared envelope schema) to the invoking
//! directory; official runs are copied into `results/`.
//!
//! ```text
//! cargo bench -p dss-bench --bench replication -- \
//!     [--threads N] [--ms M] [--repeats R] [--penalty SPINS]
//!     [--assert-read-scaling]
//! ```
//!
//! `--assert-read-scaling` makes the sweep a CI gate: on a ≥4-CPU host
//! the replicated layer's 0.99-read throughput must be ≥ 1.5× the single
//! instance at 4 threads; on a 2–3-CPU host the gate weakens to
//! parity-within-noise at the highest measured thread count, and on a
//! 1-CPU host it is skipped outright (replica-local reads cannot scale
//! without parallelism — claims about the thread axis are tiered by CPU
//! count).

use std::time::Duration;

use dss_bench::{json, numeric_flag, switch_flag};
use dss_harness::adapter::QueueKind;
use dss_harness::throughput::{measure_read_mix, ReadMixConfig, Throughput};

const READ_FRACTIONS: [f64; 3] = [0.5, 0.9, 0.99];
const REPLICA_COUNTS: [usize; 3] = [1, 2, 4];

/// One measured column: the single instance, or the replicated layer at
/// a replica count.
#[derive(Clone, Copy)]
enum Column {
    Single,
    Replicated(usize),
}

impl Column {
    fn key(self) -> String {
        match self {
            Column::Single => "single".into(),
            Column::Replicated(r) => format!("replicated_r{r}"),
        }
    }

    fn measure(
        self,
        threads: usize,
        read_fraction: f64,
        ms: u64,
        repeats: usize,
        penalty: u64,
    ) -> Throughput {
        let (kind, replicas) = match self {
            Column::Single => (QueueKind::DssDetectable, 1),
            Column::Replicated(r) => (QueueKind::DssReplicated, r),
        };
        let config = ReadMixConfig {
            threads,
            duration: Duration::from_millis(ms),
            repeats,
            read_fraction,
            replicas,
            flush_penalty: penalty,
            ..Default::default()
        };
        measure_read_mix(kind, &config)
    }
}

fn main() {
    let max_threads = numeric_flag("--threads", 8) as usize;
    let ms = numeric_flag("--ms", 120);
    let repeats = numeric_flag("--repeats", 2) as usize;
    let penalty = numeric_flag("--penalty", 20);

    // 1, 2, 4, ... up to and including the requested thread count.
    let mut counts = vec![];
    let mut n = 1;
    while n < max_threads {
        counts.push(n);
        n *= 2;
    }
    counts.push(max_threads);

    let columns: Vec<Column> = std::iter::once(Column::Single)
        .chain(REPLICA_COUNTS.iter().map(|&r| Column::Replicated(r)))
        .collect();

    let mut envelope = json::Envelope::new("e15_replication_read_scaling", "mops_per_sec")
        .meta("flush_penalty", json::Value::Int(penalty as i64))
        .meta("backend", json::Value::str("pmem"))
        .meta("threads", json::Value::array(counts.iter().map(|&t| json::Value::Int(t as i64))))
        .meta(
            "read_fractions",
            json::Value::array(READ_FRACTIONS.iter().map(|&f| json::Value::Num(f))),
        )
        .meta(
            "replicas",
            json::Value::array(REPLICA_COUNTS.iter().map(|&r| json::Value::Int(r as i64))),
        );

    // series[column][fraction] -> one point per thread count; the 0.99
    // crossover and the gate read from here after the sweep.
    let mut series =
        vec![vec![Vec::with_capacity(counts.len()); READ_FRACTIONS.len()]; columns.len()];
    for (fi, &fraction) in READ_FRACTIONS.iter().enumerate() {
        println!(
            "# E15 read scaling: read fraction {fraction}, flush penalty = {penalty} spins, \
             backend = pmem (Mops/s)"
        );
        print!("{:>8}", "threads");
        for col in &columns {
            print!(" {:>22}", col.key());
        }
        println!();
        for &threads in &counts {
            print!("{threads:>8}");
            for (ci, col) in columns.iter().enumerate() {
                let t = col.measure(threads, fraction, ms, repeats, penalty);
                print!(" {:>14.3} ±{:>6.3}", t.mops_mean, t.mops_stddev);
                series[ci][fi].push(t);
            }
            println!();
        }
        println!();
    }

    // The 0.99-mix crossover: the lowest thread count at which the best
    // replicated column is at least at parity with the single instance
    // (within the two samples' noise).
    let hi = READ_FRACTIONS.len() - 1;
    let crossover = counts.iter().enumerate().find_map(|(i, &threads)| {
        let single = series[0][hi][i];
        let best = series[1..]
            .iter()
            .map(|col| col[hi][i])
            .max_by(|a, b| a.mops_mean.total_cmp(&b.mops_mean))
            .unwrap();
        (best.mops_mean + best.mops_stddev >= single.mops_mean - single.mops_stddev)
            .then_some(threads)
    });
    match crossover {
        Some(t) => println!(
            "# crossover: replica-local reads reach the single instance at {t} threads (0.99 mix)"
        ),
        None => println!("# crossover: not reached up to {max_threads} threads (0.99 mix)"),
    }

    envelope = envelope.meta(
        "crossover_threads",
        crossover.map_or(json::Value::Null, |t| json::Value::Int(t as i64)),
    );
    for (ci, col) in columns.iter().enumerate() {
        for (fi, &fraction) in READ_FRACTIONS.iter().enumerate() {
            envelope = envelope.series(
                format!("{}_f{}", col.key(), fraction),
                json::Value::array(series[ci][fi].iter().map(|t| {
                    json::Value::object([
                        ("mean", json::Value::rounded(t.mops_mean, 4)),
                        ("stddev", json::Value::rounded(t.mops_stddev, 4)),
                    ])
                })),
            );
        }
    }
    envelope.write("BENCH_replication.json");

    if switch_flag("--assert-read-scaling") {
        assert_read_scaling(&counts, &series, hi);
    }
}

/// The E15 CI gate (see the module docs for the per-host tiers).
fn assert_read_scaling(counts: &[usize], series: &[Vec<Vec<Throughput>>], hi: usize) {
    let cpus = json::host_cpus();
    if cpus < 2 {
        println!(
            "# read-scaling gate skipped: {cpus} CPU — replica-local reads cannot scale \
             without parallelism"
        );
        return;
    }
    let best_at = |i: usize| {
        series[1..]
            .iter()
            .map(|col| col[hi][i])
            .max_by(|a, b| a.mops_mean.total_cmp(&b.mops_mean))
            .unwrap()
    };
    if cpus >= 4 {
        let i = counts
            .iter()
            .position(|&t| t == 4)
            .expect("the read-scaling gate needs a 4-thread point (--threads >= 4)");
        let (single, best) = (series[0][hi][i], best_at(i));
        let ratio = best.mops_mean / single.mops_mean;
        println!("# read-scaling gate: {ratio:.2}x at 4 threads, 0.99 mix (need >= 1.5x)");
        assert!(
            ratio >= 1.5,
            "replica-local 0.99-read throughput below 1.5x single instance at 4 threads: \
             {:.3} vs {:.3} Mops/s",
            best.mops_mean,
            single.mops_mean
        );
    } else {
        let i = counts.len() - 1;
        let (single, best) = (series[0][hi][i], best_at(i));
        println!(
            "# read-scaling gate ({cpus} CPUs): parity-within-noise at {} threads, 0.99 mix",
            counts[i]
        );
        assert!(
            best.mops_mean + best.mops_stddev >= single.mops_mean - single.mops_stddev,
            "replicated fell below the single instance beyond noise at {} threads: \
             {:.3} ±{:.3} vs {:.3} ±{:.3} Mops/s",
            counts[i],
            best.mops_mean,
            best.mops_stddev,
            single.mops_mean,
            single.mops_stddev
        );
    }
}
