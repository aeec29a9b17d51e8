//! Benchmark targets for the DSS reproduction, on an in-tree timing
//! runner.
//!
//! `cargo bench --workspace` runs:
//!
//! * `queue_ops` — micro-benchmarks: one enqueue+dequeue pair per
//!   implementation (the per-operation cost behind Figures 5a/5b), with a
//!   `--backend {pmem,dram}` axis.
//! * `pmem_ops` — micro-benchmarks of the simulator primitives
//!   (load/store/CAS/flush at both granularities).
//! * `backend_overhead` — experiment E8's ablation: the same DSS queue
//!   pair on instrumented pmem, uninstrumented (raw) pmem, and dram.
//! * `fig5a`, `fig5b` — benches that regenerate the paper's two figures
//!   as text series (scaled-down defaults; the `dss-harness` binaries
//!   expose the full parameter space).
//!
//! The runner ([`Runner`]) replaces an external benchmarking dependency:
//! it calibrates an iteration count per sample from a target sample
//! duration, collects a fixed number of samples, and reports mean ± sample
//! standard deviation in ns/iter. That is all the bench targets here need,
//! and it keeps the workspace dependency-free.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::time::{Duration, Instant};

use dss_harness::throughput::mean_stddev;

/// The shared `BENCH_*.json` envelope every machine-readable result file
/// is written through ([`json::Envelope`]).
///
/// The implementation lives in `dss-harness` because the harness's
/// experiment binaries (below this crate in the dependency graph) write
/// `BENCH_checker.json` through the same writer; bench targets use it as
/// `dss_bench::json`.
pub use dss_harness::json;

/// One benchmark's aggregated timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    /// Mean nanoseconds per iteration over all samples.
    pub ns_mean: f64,
    /// Sample standard deviation of the per-sample ns/iter values.
    pub ns_stddev: f64,
    /// Number of samples taken.
    pub samples: usize,
    /// Iterations per sample (fixed after calibration).
    pub iters_per_sample: u64,
}

/// A group of benchmarks sharing configuration, printed as aligned
/// `group/name    mean ± stddev ns/iter` lines as they complete.
#[derive(Debug)]
pub struct Runner {
    group: String,
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
}

impl Runner {
    /// Creates a runner whose benchmark names are prefixed `group/`.
    pub fn new(group: &str) -> Self {
        Runner {
            group: group.to_string(),
            sample_size: 30,
            warm_up: Duration::from_millis(200),
            measurement: Duration::from_millis(600),
        }
    }

    /// Sets the number of samples per benchmark (default 30).
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "need at least two samples for a stddev");
        self.sample_size = n;
        self
    }

    /// Sets the warm-up duration per benchmark (default 200 ms).
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up = d;
        self
    }

    /// Sets the total measurement duration per benchmark, split evenly
    /// across samples (default 600 ms).
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement = d;
        self
    }

    /// Runs one benchmark: warms up, calibrates iterations per sample,
    /// measures, prints a summary line, and returns the numbers.
    pub fn bench<F: FnMut()>(&self, name: &str, mut f: F) -> Stat {
        // Warm-up, also measuring a rough per-iteration cost for
        // calibration. Run at least once.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        loop {
            f();
            warm_iters += 1;
            if warm_start.elapsed() >= self.warm_up {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        // Aim each sample at measurement/sample_size seconds.
        let sample_target = self.measurement.as_secs_f64() / self.sample_size as f64;
        let iters = (sample_target / per_iter.max(1e-9)).ceil().max(1.0) as u64;

        let mut samples_ns = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            samples_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        let (ns_mean, ns_stddev) = mean_stddev(&samples_ns);
        let stat = Stat { ns_mean, ns_stddev, samples: samples_ns.len(), iters_per_sample: iters };
        println!(
            "{:<44} {:>12.1} ns/iter (±{:.1}, {} samples × {} iters)",
            format!("{}/{}", self.group, name),
            stat.ns_mean,
            stat.ns_stddev,
            stat.samples,
            stat.iters_per_sample
        );
        stat
    }
}

/// Lenient scan of bench-target CLI arguments for one numeric flag,
/// ignoring everything unknown (`cargo bench` passes harness flags like
/// `--bench` through to custom runners).
///
/// # Panics
///
/// Panics if the flag is present but its value is not a number.
pub fn numeric_flag(name: &str, default: u64) -> u64 {
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == name {
            if let Some(v) = it.next() {
                return v.parse().unwrap_or_else(|_| panic!("{name} needs a number"));
            }
        }
    }
    default
}

/// Lenient scan of bench-target CLI arguments for a bare switch flag.
pub fn switch_flag(name: &str) -> bool {
    std::env::args().skip(1).any(|flag| flag == name)
}

/// Lenient scan of bench-target CLI arguments for repeated
/// `--backend {pmem,dram}` flags, ignoring everything else (`cargo bench`
/// passes harness flags like `--bench` through to custom runners).
///
/// Returns pmem-only when no `--backend` flag is present, mirroring
/// `dss_harness::cli`.
pub fn backends_from_args() -> Vec<dss_harness::adapter::Backend> {
    let mut backends = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--backend" {
            if let Some(v) = it.next() {
                backends.push(dss_harness::adapter::Backend::parse(&v));
            }
        }
    }
    if backends.is_empty() {
        backends.push(dss_harness::adapter::Backend::Pmem);
    }
    backends
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        let r = Runner::new("test")
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        let mut x = 0u64;
        let stat = r.bench("noop", || x = x.wrapping_add(1));
        assert!(stat.ns_mean > 0.0);
        assert_eq!(stat.samples, 3);
        assert!(stat.iters_per_sample >= 1);
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn single_sample_rejected() {
        let _ = Runner::new("test").sample_size(1);
    }
}
