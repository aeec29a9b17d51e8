//! Log-linear latency histogram with exact sample counts.
//!
//! Values are nanoseconds. Below 256 ns every integer has its own bucket;
//! above that, each power of two is split into 128 linear sub-buckets, so a
//! bucket is never wider than 1/128 (< 1%) of its lower bound. Below 128 ns
//! the 1 ns bucket is the clock's own resolution.
//!
//! Each client thread fills its own histograms; they are merged once at the
//! end of a run, so recording is a single array increment with no sharing.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Buckets covering the whole `u64` range: 2·SUB exact ones, then SUB per
/// power of two from 2⁸ to 2⁶³.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// The percentiles [`Histogram::tail`] chooses from, in ascending order.
pub const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

fn bucket(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((u64::from(shift) + 1) * SUB + ((v >> shift) - SUB)) as usize
}

/// The lower bound and width of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < 2 * SUB {
        return (i, 1);
    }
    let shift = i / SUB - 1;
    ((SUB + i % SUB) << shift, 1 << shift)
}

/// A latency histogram; see the [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    /// Allocated on the first sample, so unused histograms cost nothing.
    counts: Vec<u64>,
    n: u64,
    sum_ns: u128,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[bucket(ns)] += 1;
        self.n += 1;
        self.sum_ns += u128::from(ns);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        if other.n == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    /// Exact number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact sum of all samples, in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// The nearest-rank `p`-th percentile (`p` in `[0, 100]`) in
    /// nanoseconds, interpolated linearly inside its bucket; NaN when empty.
    /// It lies in the same bucket as the exact value, so it is within 1%
    /// of it (within 1 ns below 128 ns).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = rank(p, self.n);
        let mut below = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && below + c >= rank {
                let (lo, width) = bounds(i);
                let frac = ((rank - below) as f64 - 0.5) / c as f64;
                return lo as f64 + width as f64 * frac;
            }
            below += c;
        }
        unreachable!("rank {rank} is within the {} samples", self.n)
    }

    /// The highest [`LADDER`] percentile that has at least ten samples
    /// beyond it, with its value in nanoseconds: the furthest into the tail
    /// this sample supports.
    pub fn tail(&self) -> Option<(f64, f64)> {
        if self.n == 0 {
            return None;
        }
        LADDER
            .iter()
            .rev()
            .find(|&&p| self.n - rank(p, self.n) >= 10)
            .map(|&p| (p, self.percentile(p)))
    }

    /// One report line: count, p50, p99 and the supported tail, in µs.
    pub fn summary(&self) -> String {
        let us = |ns: f64| ns / 1e3;
        let tail = match self.tail() {
            Some((p, v)) => format!("p{p}={:.3}us", us(v)),
            None => "no percentile has 10 samples beyond it".to_string(),
        };
        format!(
            "n={} p50={:.3}us p99={:.3}us highest-supported {tail}",
            self.n,
            us(self.percentile(50.0)),
            us(self.percentile(99.0))
        )
    }
}

/// Nearest rank of percentile `p` among `n` samples, in `1..=n`. The small
/// slack keeps float error in `p · n` from bumping an exact rank up by one.
fn rank(p: f64, n: u64) -> u64 {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as u64).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact nearest-rank percentile of a sample.
    fn oracle(sorted: &[u64], p: f64) -> u64 {
        sorted[rank(p, sorted.len() as u64) as usize - 1]
    }

    fn check_against_oracle(values: &[u64]) {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        assert_eq!(h.count(), values.len() as u64);
        for p in [0.0, 1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let exact = oracle(&sorted, p) as f64;
            let got = h.percentile(p);
            let tol = (exact / 100.0).max(1.0);
            assert!((got - exact).abs() <= tol, "p{p}: histogram {got} vs exact {exact}");
        }
    }

    #[test]
    fn buckets_tile_the_range() {
        for v in (0..5000).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let (lo, width) = bounds(bucket(v));
            assert!(lo <= v && v - lo < width, "v={v} lo={lo} width={width}");
            assert!(width == 1 || width * SUB <= lo, "bucket of {v} wider than 1/128");
        }
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_match_sorted_oracle() {
        // A skewed, spread-out sample: a fast bulk plus a slow tail.
        let mut state = 0x1234_5678_u64;
        let values: Vec<u64> = (0..20_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = state >> 33;
                if r.is_multiple_of(10) {
                    10_000 + r % 5_000_000
                } else {
                    40 + r % 3_000
                }
            })
            .collect();
        check_against_oracle(&values);
        check_against_oracle(&[7]);
        check_against_oracle(&[55, 55, 56, 54, 55]);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in 0..3000u64 {
            let x = v * v % 100_003;
            if v % 3 == 0 { &mut a } else { &mut b }.record(x);
            all.record(x);
        }
        a.merge(&b);
        a.merge(&Histogram::new());
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum_ns(), all.sum_ns());
        for p in LADDER {
            assert_eq!(a.percentile(p), all.percentile(p));
        }
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut h = Histogram::new();
        assert!(h.tail().is_none() && h.percentile(50.0).is_nan());
        for v in 0..1000 {
            h.record(v);
        }
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(h.tail().map(|(p, _)| p), Some(99.0));
        for v in 0..9000 {
            h.record(v);
        }
        assert_eq!(h.tail().map(|(p, _)| p), Some(99.9));
    }
}
