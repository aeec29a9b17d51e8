//! Memory-operation statistics, sharded per thread.
//!
//! The paper attributes the cost of detectability to specific extra memory
//! operations (flushes and stores on the `X` array at lines 3–4, 13–14,
//! 32–33, 47–48). [`Stats`] counts every primitive a
//! [`PmemPool`](crate::PmemPool) executes so experiment E3 can measure those
//! costs directly instead of inferring them from throughput.
//!
//! Counters are **sharded**: each thread increments its own
//! cache-line-aligned shard, assigned round-robin on first use, and
//! [`Stats::snapshot`] aggregates across shards. A single shared counter set
//! would put six hot `fetch_add` targets on one cache line bouncing between
//! every core — false sharing that perturbs the very throughput experiments
//! the counters exist to explain. Totals are identical to a shared
//! implementation because counter addition commutes.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Number of shards; a power of two comfortably above the core counts the
/// experiments run at, so concurrent threads rarely share a shard.
const SHARDS: usize = 64;

/// Monotonically increasing source of shard assignments.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index, assigned round-robin on first use.
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Relaxed) % SHARDS;
}

/// One thread's counter set, padded to two cache lines so shards never
/// share one, nor an adjacent-line prefetch pair (64-byte lines, fetched in
/// 128-byte pairs, on the x86-64 targets the paper evaluates).
///
/// Ordering: all counters use `Relaxed` — they are monotone event counts
/// read only in aggregate snapshots, never used to synchronise memory.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Shard {
    loads: AtomicU64,
    stores: AtomicU64,
    cas_ok: AtomicU64,
    cas_fail: AtomicU64,
    flushes: AtomicU64,
    flushes_coalesced: AtomicU64,
    fences: AtomicU64,
}

/// Running counters of pmem primitives executed on a pool.
///
/// Increments go to the calling thread's shard; [`Stats::snapshot`] sums
/// all shards. Reset between measurement phases with [`Stats::reset`].
#[derive(Debug)]
pub struct Stats {
    shards: Box<[Shard]>,
}

impl Default for Stats {
    fn default() -> Self {
        Self::new()
    }
}

impl Stats {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Stats { shards: (0..SHARDS).map(|_| Shard::default()).collect() }
    }

    #[inline]
    fn my_shard(&self) -> &Shard {
        &self.shards[MY_SHARD.with(|s| *s)]
    }

    #[inline]
    pub(crate) fn count_load(&self) {
        self.my_shard().loads.fetch_add(1, Relaxed);
    }

    #[inline]
    pub(crate) fn count_store(&self) {
        self.my_shard().stores.fetch_add(1, Relaxed);
    }

    #[inline]
    pub(crate) fn count_cas(&self, ok: bool) {
        let shard = self.my_shard();
        if ok {
            shard.cas_ok.fetch_add(1, Relaxed);
        } else {
            shard.cas_fail.fetch_add(1, Relaxed);
        }
    }

    #[inline]
    pub(crate) fn count_flush(&self) {
        self.my_shard().flushes.fetch_add(1, Relaxed);
    }

    #[inline]
    pub(crate) fn count_flush_coalesced(&self) {
        self.my_shard().flushes_coalesced.fetch_add(1, Relaxed);
    }

    #[inline]
    pub(crate) fn count_fence(&self) {
        self.my_shard().fences.fetch_add(1, Relaxed);
    }

    /// Returns a point-in-time copy of the counters, aggregated over all
    /// shards.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut out = StatsSnapshot::default();
        for s in self.shards.iter() {
            out.loads += s.loads.load(Relaxed);
            out.stores += s.stores.load(Relaxed);
            out.cas_ok += s.cas_ok.load(Relaxed);
            out.cas_fail += s.cas_fail.load(Relaxed);
            out.flushes += s.flushes.load(Relaxed);
            out.flushes_coalesced += s.flushes_coalesced.load(Relaxed);
            out.fences += s.fences.load(Relaxed);
        }
        out
    }

    /// Zeroes all counters.
    pub fn reset(&self) {
        for s in self.shards.iter() {
            s.loads.store(0, Relaxed);
            s.stores.store(0, Relaxed);
            s.cas_ok.store(0, Relaxed);
            s.cas_fail.store(0, Relaxed);
            s.flushes.store(0, Relaxed);
            s.flushes_coalesced.store(0, Relaxed);
            s.fences.store(0, Relaxed);
        }
    }
}

/// Immutable snapshot of a [`Stats`] counter set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Atomic loads executed.
    pub loads: u64,
    /// Atomic stores executed.
    pub stores: u64,
    /// Successful compare-and-swap operations.
    pub cas_ok: u64,
    /// Failed compare-and-swap operations.
    pub cas_fail: u64,
    /// Flush (`pmem_persist`) operations.
    pub flushes: u64,
    /// Flushes absorbed by the write-behind coalescing layer (already
    /// pending for the same flush unit, or the unit was entirely clean).
    /// Always a subset of [`flushes`](StatsSnapshot::flushes); the number
    /// of flushes that actually paid penalty + writeback is
    /// `flushes - flushes_coalesced`.
    pub flushes_coalesced: u64,
    /// Explicit store fences.
    pub fences: u64,
}

impl StatsSnapshot {
    /// Total primitives executed. `flushes_coalesced` is excluded: every
    /// coalesced flush is already counted in `flushes`, so including it
    /// would double-count.
    pub fn total(&self) -> u64 {
        self.loads + self.stores + self.cas_ok + self.cas_fail + self.flushes + self.fences
    }

    /// Difference `self - earlier`, counter-wise.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not actually earlier (any
    /// counter would underflow).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            loads: self.loads - earlier.loads,
            stores: self.stores - earlier.stores,
            cas_ok: self.cas_ok - earlier.cas_ok,
            cas_fail: self.cas_fail - earlier.cas_fail,
            flushes: self.flushes - earlier.flushes,
            flushes_coalesced: self.flushes_coalesced - earlier.flushes_coalesced,
            fences: self.fences - earlier.fences,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counting_and_snapshot() {
        let s = Stats::new();
        s.count_load();
        s.count_load();
        s.count_store();
        s.count_cas(true);
        s.count_cas(false);
        s.count_flush();
        s.count_fence();
        let snap = s.snapshot();
        assert_eq!(snap.loads, 2);
        assert_eq!(snap.stores, 1);
        assert_eq!(snap.cas_ok, 1);
        assert_eq!(snap.cas_fail, 1);
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.fences, 1);
        assert_eq!(snap.total(), 7);
    }

    #[test]
    fn reset_zeroes() {
        let s = Stats::new();
        s.count_flush();
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn since_subtracts() {
        let s = Stats::new();
        s.count_store();
        let a = s.snapshot();
        s.count_store();
        s.count_flush();
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.stores, 1);
        assert_eq!(d.flushes, 1);
        assert_eq!(d.loads, 0);
    }

    #[test]
    fn shards_are_cache_line_sized() {
        assert_eq!(std::mem::align_of::<Shard>(), 128);
        assert_eq!(std::mem::size_of::<Shard>(), 128);
    }

    /// The satellite stress test: per-thread sharded counters aggregate to
    /// exactly the totals a single shared counter set would have reported.
    #[test]
    fn multithreaded_counts_aggregate_exactly() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let s = Arc::new(Stats::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        s.count_load();
                        s.count_store();
                        s.count_cas(i % 3 == 0);
                        if t % 2 == 0 {
                            s.count_flush();
                        } else {
                            s.count_fence();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        let n = THREADS as u64 * PER_THREAD;
        assert_eq!(snap.loads, n);
        assert_eq!(snap.stores, n);
        assert_eq!(snap.cas_ok + snap.cas_fail, n);
        assert_eq!(snap.flushes, n / 2);
        assert_eq!(snap.fences, n / 2);
        assert_eq!(snap.total(), 4 * n);
    }
}
