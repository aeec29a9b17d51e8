//! The paper's throughput workload (§4).
//!
//! "In each experiment, the queue is initialized with 16 queue nodes, and
//! each thread executes alternating pairs of enqueue and dequeue
//! operations for 30 seconds. Each point plotted in the graphs is the mean
//! throughput value (millions of operations per second) computed over a
//! sample of ten runs."
//!
//! Durations and repeat counts are parameters here (the defaults in the
//! experiment binaries are scaled down for a 1-vCPU host), but the
//! workload shape is identical.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

use dss_core::DetectableMap;
use dss_pmem::splitmix64;

use crate::adapter::{Backend, QueueKind};
use crate::cli::Flags;

/// Parameters of one throughput measurement.
#[derive(Clone, Debug)]
pub struct ThroughputConfig {
    /// Number of worker threads (each with its own queue thread ID).
    pub threads: usize,
    /// Wall-clock duration of each run.
    pub duration: Duration,
    /// Number of measured runs to average (the paper uses 10).
    pub repeats: usize,
    /// Initial queue length (the paper uses 16).
    pub prefill: u64,
    /// Pre-allocated nodes per thread.
    pub nodes_per_thread: u64,
    /// Artificial flush latency in spin iterations (models the
    /// CLWB+SFENCE cost on Optane; 0 = flushes cost the same as stores).
    pub flush_penalty: u64,
    /// Memory backend the queue runs on (E8's ablation axis).
    pub backend: Backend,
    /// Flush coalescing on the backend (E9's first axis).
    pub coalesce: bool,
    /// Per-address dependency drains at ordering points instead of
    /// whole-set drains (E10's axis; meaningful only under coalescing).
    pub per_address: bool,
    /// Bounded exponential backoff in the queue's retry loops (E9's
    /// second axis).
    pub backoff: bool,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        ThroughputConfig {
            threads: 1,
            duration: Duration::from_millis(200),
            repeats: 3,
            prefill: 16,
            nodes_per_thread: 4096,
            flush_penalty: 20,
            backend: Backend::Pmem,
            coalesce: false,
            per_address: false,
            backoff: false,
        }
    }
}

/// The result of one measurement: mean and standard deviation of Mops/s
/// over the configured repeats.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Throughput {
    /// Mean millions of operations per second.
    pub mops_mean: f64,
    /// Sample standard deviation of Mops/s.
    pub mops_stddev: f64,
}

impl Throughput {
    /// The mean and sample standard deviation of per-run Mops/s samples.
    pub fn from_samples(samples: &[f64]) -> Throughput {
        let (mops_mean, mops_stddev) = mean_stddev(samples);
        Throughput { mops_mean, mops_stddev }
    }
}

/// Mean and sample standard deviation of `samples` (the deviation of a
/// single sample is 0).
pub fn mean_stddev(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = if samples.len() > 1 {
        samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    (mean, var.sqrt())
}

/// The [`splitmix64`] state worker `tid` starts a mix from, so every run
/// of a mix draws the same operation sequence.
fn thread_seed(tid: usize) -> u64 {
    0x9e37_79b9_7f4a_7c15u64.wrapping_mul(tid as u64 + 1)
}

/// The timed phase every workload shares: one worker per handle in `hs`,
/// each building its loop body with `body(tid, h)` and running it until
/// a stop flag flips after `duration`. A body returns how many
/// operations its iteration ran. Returns Mops/s over the measured
/// elapsed time.
fn timed<H, B>(hs: &[H], duration: Duration, body: impl Fn(usize, H) -> B + Sync) -> f64
where
    H: Copy + Send,
    B: FnMut() -> u64,
{
    let stop = AtomicBool::new(false);
    let total_ops = AtomicU64::new(0);
    let elapsed = std::thread::scope(|scope| {
        for (tid, &h) in hs.iter().enumerate() {
            let (body, stop, total_ops) = (&body, &stop, &total_ops);
            scope.spawn(move || {
                let mut step = body(tid, h);
                let mut ops = 0u64;
                while !stop.load(Relaxed) {
                    ops += step();
                }
                total_ops.fetch_add(ops, Relaxed);
            });
        }
        let start = Instant::now();
        std::thread::sleep(duration);
        stop.store(true, Relaxed);
        start.elapsed()
    });
    total_ops.into_inner() as f64 / elapsed.as_secs_f64() / 1e6
}

/// Runs the paper's alternating enqueue/dequeue workload on `kind`.
///
/// Each repeat builds a fresh queue, pre-fills it, then launches
/// `config.threads` workers; every worker alternates `enqueue(v)` /
/// `dequeue()` pairs until the stop flag flips. Throughput counts both
/// operations of a pair.
pub fn measure(kind: QueueKind, config: &ThroughputConfig) -> Throughput {
    let samples: Vec<f64> = (0..config.repeats).map(|_| run_once(kind, config)).collect();
    Throughput::from_samples(&samples)
}

fn run_once(kind: QueueKind, config: &ThroughputConfig) -> f64 {
    let queue = kind.build_on(config.backend, config.threads, config.nodes_per_thread);
    queue.pool().set_flush_penalty(config.flush_penalty);
    queue.pool().set_coalescing(config.coalesce);
    queue.pool().set_per_address_drains(config.per_address);
    queue.set_backoff(config.backoff);
    // Claim every worker's registry slot up front, on the main thread.
    let hs: Vec<_> = (0..config.threads).map(|_| queue.register_thread()).collect();
    for i in 0..config.prefill {
        queue.enqueue(hs[0], i + 1);
    }
    let queue = &queue;
    timed(&hs, config.duration, |tid, h| {
        let mut i = 0u64;
        move || {
            i += 1;
            queue.enqueue(h, (tid as u64) << 32 | i);
            let _ = queue.dequeue(h);
            2
        }
    })
}

/// Parameters of one E15 read-mix measurement: each worker draws from a
/// per-thread PRNG and either peeks the front of the queue (probability
/// `read_fraction`) or runs one enqueue/dequeue pair (keeping the queue
/// length stationary around the prefill).
#[derive(Clone, Debug)]
pub struct ReadMixConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Wall-clock duration of each run.
    pub duration: Duration,
    /// Number of measured runs to average.
    pub repeats: usize,
    /// Initial queue length (reads of an empty queue measure nothing).
    pub prefill: u64,
    /// Pre-allocated nodes per thread.
    pub nodes_per_thread: u64,
    /// Artificial flush latency in spin iterations.
    pub flush_penalty: u64,
    /// Probability in `[0, 1]` that an iteration is a read (peek).
    pub read_fraction: f64,
    /// Volatile replica count for [`QueueKind::DssReplicated`]; ignored
    /// by every other kind.
    pub replicas: usize,
}

impl Default for ReadMixConfig {
    fn default() -> Self {
        ReadMixConfig {
            threads: 1,
            duration: Duration::from_millis(200),
            repeats: 3,
            prefill: 16,
            nodes_per_thread: 4096,
            flush_penalty: 20,
            read_fraction: 0.9,
            replicas: 2,
        }
    }
}

/// Runs the E15 read-mix workload on `kind` (pmem backend): a read
/// iteration is one `peek` (1 op), a write iteration is one
/// enqueue/dequeue pair (2 ops).
///
/// Only the kinds in [`QueueKind::replication`] support the read probe;
/// see [`crate::adapter::QueueUnderTest::peek`].
pub fn measure_read_mix(kind: QueueKind, config: &ReadMixConfig) -> Throughput {
    let samples: Vec<f64> = (0..config.repeats).map(|_| run_once_read_mix(kind, config)).collect();
    Throughput::from_samples(&samples)
}

fn run_once_read_mix(kind: QueueKind, config: &ReadMixConfig) -> f64 {
    assert!((0.0..=1.0).contains(&config.read_fraction), "read_fraction must be a probability");
    let queue = kind.build_with_replicas(config.threads, config.nodes_per_thread, config.replicas);
    queue.pool().set_flush_penalty(config.flush_penalty);
    let hs: Vec<_> = (0..config.threads).map(|_| queue.register_thread()).collect();
    for i in 0..config.prefill {
        queue.enqueue(hs[0], i + 1);
    }
    // Draw from a 32-bit threshold so the comparison is one integer op.
    let read_threshold = (config.read_fraction * (1u64 << 32) as f64) as u64;
    let queue = &queue;
    timed(&hs, config.duration, |tid, h| {
        let mut rng = thread_seed(tid);
        let mut i = 0u64;
        move || {
            if splitmix64(&mut rng) & 0xffff_ffff < read_threshold {
                std::hint::black_box(queue.peek(h));
                1
            } else {
                i += 1;
                queue.enqueue(h, (tid as u64) << 32 | i);
                let _ = queue.dequeue(h);
                2
            }
        }
    })
}

/// Parameters of one E16 YCSB-style key-value measurement on the
/// detectable hash map: each worker draws a key from a Zipfian (or
/// uniform) distribution over `keyspace` pre-loaded keys and either reads
/// it (probability `read_fraction`, a plain get) or updates it (a
/// detectable prep/exec put pair — one logical KV operation).
///
/// The shape follows YCSB's core workloads: workload B is
/// `read_fraction = 0.95`, workload A is `0.5`, both over the standard
/// `zipf_theta = 0.99` request skew; `zipf_theta = 0.0` degenerates to
/// uniform.
#[derive(Clone, Debug)]
pub struct KvMixConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Wall-clock duration of each run.
    pub duration: Duration,
    /// Number of measured runs to average.
    pub repeats: usize,
    /// Number of keys pre-loaded before the timed phase.
    pub keyspace: u64,
    /// Initial bucket count of the map (a power of two).
    pub buckets: u64,
    /// Pre-allocated value nodes per thread (updates recycle superseded
    /// nodes through the epoch reclaimer, so this bounds in-flight
    /// garbage, not total updates).
    pub nodes_per_thread: u64,
    /// Artificial flush latency in spin iterations.
    pub flush_penalty: u64,
    /// Probability in `[0, 1]` that an iteration is a read.
    pub read_fraction: f64,
    /// Zipfian skew parameter θ of the key-choice distribution
    /// (YCSB's default is 0.99; 0 = uniform).
    pub zipf_theta: f64,
}

impl Default for KvMixConfig {
    fn default() -> Self {
        KvMixConfig {
            threads: 1,
            duration: Duration::from_millis(200),
            repeats: 3,
            keyspace: 1024,
            buckets: 256,
            nodes_per_thread: 4096,
            flush_penalty: 20,
            read_fraction: 0.95,
            zipf_theta: 0.99,
        }
    }
}

/// The precomputed CDF of a Zipfian distribution over ranks
/// `0..keyspace`: weight of rank `r` is `1 / (r + 1)^theta`, sampled by
/// binary search on one uniform draw. Precomputing the table keeps the
/// hot loop at one multiply and a `partition_point` — no `pow` per op.
struct ZipfCdf(Vec<f64>);

impl ZipfCdf {
    fn new(keyspace: u64, theta: f64) -> ZipfCdf {
        assert!(keyspace > 0, "empty keyspace");
        assert!(theta >= 0.0, "negative Zipf skew");
        let mut cdf = Vec::with_capacity(keyspace as usize);
        let mut acc = 0.0;
        for rank in 0..keyspace {
            acc += 1.0 / ((rank + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for p in &mut cdf {
            *p /= total;
        }
        ZipfCdf(cdf)
    }

    /// Maps one uniform draw in `[0, 1)` to a rank.
    fn sample(&self, u: f64) -> u64 {
        self.0.partition_point(|&p| p <= u) as u64
    }
}

/// Runs the E16 YCSB-style read/update mix on a [`DetectableMap`]
/// (pmem backend): pre-loads `keyspace` keys, then times Zipf-skewed
/// plain gets and detectable puts. Every iteration is one operation.
pub fn measure_kv_mix(config: &KvMixConfig) -> Throughput {
    let samples: Vec<f64> = (0..config.repeats).map(|_| run_once_kv_mix(config)).collect();
    Throughput::from_samples(&samples)
}

fn run_once_kv_mix(config: &KvMixConfig) -> f64 {
    assert!((0.0..=1.0).contains(&config.read_fraction), "read_fraction must be a probability");
    let m: DetectableMap = DetectableMap::new_in(
        config.threads,
        config.nodes_per_thread,
        config.buckets,
        dss_pmem::FlushGranularity::Line,
    );
    m.pool().set_flush_penalty(config.flush_penalty);
    let hs: Vec<_> = (0..config.threads).map(|_| m.register_thread().unwrap()).collect();
    // Load phase (untimed): bind every key so reads always hit. Keys are
    // hashed into buckets, so sequential loading is not a best case.
    for key in 0..config.keyspace {
        m.put(hs[0], key, key + 1);
    }
    let zipf = ZipfCdf::new(config.keyspace, config.zipf_theta);
    let read_threshold = (config.read_fraction * (1u64 << 32) as f64) as u64;
    let (m, zipf) = (&m, &zipf);
    timed(&hs, config.duration, |tid, h| {
        let mut rng = thread_seed(tid);
        let mut seq = 0u64;
        move || {
            let r = splitmix64(&mut rng);
            let key = zipf.sample((r >> 32) as f64 / (1u64 << 32) as f64);
            if r & 0xffff_ffff < read_threshold {
                std::hint::black_box(m.get(h, key));
            } else {
                seq += 1;
                m.prep_put(h, key, (tid as u64) << 32 | seq, seq);
                std::hint::black_box(m.exec_put(h));
            }
            1
        }
    })
}

/// The `fig5a` and `fig5b` programs: per `--backend`, a table in the
/// paper's layout of `kinds`' Mops/s over 1..=`--threads` threads (8;
/// `--ms` 200, `--repeats` 3, `--penalty` 20, `--coalesce`/`--backoff` off).
pub fn figure_main(program: &'static str, title: &str, kinds: &[QueueKind]) {
    let flags = Flags::parse(
        program,
        &["--threads", "--ms", "--repeats", "--penalty", "--backend", "--coalesce", "--backoff"],
        &[],
    );
    let max_threads = flags.value("--threads", 8);
    let base = ThroughputConfig {
        duration: Duration::from_millis(flags.value("--ms", 200)),
        repeats: flags.value("--repeats", 3),
        flush_penalty: flags.value("--penalty", 20),
        coalesce: flags.on("--coalesce"),
        backoff: flags.on("--backoff"),
        ..Default::default()
    };
    for backend in flags.backends() {
        let base = ThroughputConfig { backend, ..base.clone() };
        println!("# {title}");
        println!(
            "# duration={:?} repeats={} prefill={} flush_penalty={} backend={} coalesce={} \
             per_address={} backoff={}",
            base.duration,
            base.repeats,
            base.prefill,
            base.flush_penalty,
            base.backend.label(),
            base.coalesce,
            base.per_address,
            base.backoff
        );
        print!("{:>8}", "threads");
        for kind in kinds {
            print!("  {:>28}", kind.label());
        }
        println!();
        for threads in 1..=max_threads {
            print!("{threads:>8}");
            for kind in kinds {
                let config = ThroughputConfig { threads, ..base.clone() };
                let t = measure(*kind, &config);
                print!("  {:>20.3} ±{:>5.3}", t.mops_mean, t.mops_stddev);
            }
            println!();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ThroughputConfig {
        ThroughputConfig {
            threads: 2,
            duration: Duration::from_millis(30),
            repeats: 2,
            nodes_per_thread: 512,
            flush_penalty: 0,
            ..Default::default()
        }
    }

    #[test]
    fn every_kind_measures_nonzero_throughput() {
        for kind in QueueKind::all() {
            let t = measure(kind, &quick());
            assert!(t.mops_mean > 0.0, "{}: no progress", kind.label());
        }
    }

    #[test]
    fn contention_list_adds_the_replicated_layer_and_it_measures_on_both_backends() {
        // `all()` deliberately excludes the replicated execution layer (it
        // feeds the historical tables); the contention list is where it
        // lives.
        assert_eq!(QueueKind::contention().len(), QueueKind::all().len() + 1);
        assert!(QueueKind::contention().contains(&QueueKind::DssReplicated));
        for backend in [Backend::Pmem, Backend::Dram] {
            let kind = QueueKind::DssReplicated;
            let t = measure(kind, &ThroughputConfig { backend, ..quick() });
            assert!(t.mops_mean > 0.0, "{} on {}: no progress", kind.label(), backend.label());
        }
    }

    #[test]
    fn coalesce_and_backoff_axes_still_make_progress() {
        let config = ThroughputConfig { coalesce: true, backoff: true, ..quick() };
        for kind in QueueKind::all() {
            let t = measure(kind, &config);
            assert!(t.mops_mean > 0.0, "{}: no progress", kind.label());
        }
    }

    #[test]
    fn per_address_drain_axis_still_makes_progress() {
        let config = ThroughputConfig { coalesce: true, per_address: true, ..quick() };
        for kind in QueueKind::all() {
            let t = measure(kind, &config);
            assert!(t.mops_mean > 0.0, "{}: no progress", kind.label());
        }
    }

    #[test]
    fn read_mix_measures_both_replication_kinds_at_every_fraction() {
        for kind in QueueKind::replication() {
            for read_fraction in [0.0, 0.5, 0.99, 1.0] {
                let config = ReadMixConfig {
                    threads: 2,
                    duration: Duration::from_millis(20),
                    repeats: 1,
                    nodes_per_thread: 512,
                    flush_penalty: 0,
                    read_fraction,
                    replicas: 2,
                    ..Default::default()
                };
                let t = measure_read_mix(kind, &config);
                assert!(
                    t.mops_mean > 0.0,
                    "{} at read fraction {read_fraction}: no progress",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn mean_stddev_is_the_sample_deviation() {
        assert_eq!(mean_stddev(&[1.0, 3.0]), (2.0, 2f64.sqrt()));
        assert_eq!(mean_stddev(&[5.0]), (5.0, 0.0), "one sample deviates by nothing");
    }

    #[test]
    fn zipf_cdf_is_skewed_normalized_and_uniform_at_zero_theta() {
        let z = ZipfCdf::new(100, 0.99);
        assert_eq!(z.0.len(), 100);
        assert!((z.0[99] - 1.0).abs() < 1e-12, "CDF ends at 1");
        assert!(z.0[0] > 0.1, "rank 0 dominates under YCSB skew");
        assert_eq!(z.sample(0.0), 0);
        assert_eq!(z.sample(0.999_999_9), 99);
        let u = ZipfCdf::new(4, 0.0);
        for (i, p) in u.0.iter().enumerate() {
            assert!((p - (i + 1) as f64 / 4.0).abs() < 1e-12, "theta 0 is uniform");
        }
    }

    #[test]
    fn kv_mix_measures_every_workload_shape() {
        for (read_fraction, zipf_theta) in [(0.95, 0.99), (0.5, 0.99), (1.0, 0.0), (0.0, 0.0)] {
            let config = KvMixConfig {
                threads: 2,
                duration: Duration::from_millis(20),
                repeats: 1,
                keyspace: 64,
                buckets: 16,
                nodes_per_thread: 512,
                flush_penalty: 0,
                read_fraction,
                zipf_theta,
            };
            let t = measure_kv_mix(&config);
            assert!(t.mops_mean > 0.0, "kv mix r={read_fraction} theta={zipf_theta}: no progress");
        }
    }

    #[test]
    fn flush_penalty_slows_persistent_queues() {
        let fast = measure(QueueKind::DssDetectable, &quick());
        let slow =
            measure(QueueKind::DssDetectable, &ThroughputConfig { flush_penalty: 3000, ..quick() });
        assert!(
            slow.mops_mean < fast.mops_mean,
            "a costly flush must reduce throughput ({} vs {})",
            slow.mops_mean,
            fast.mops_mean
        );
    }
}
