//! Memory-operation statistics, one owned shard per live thread.
//!
//! The paper attributes the cost of detectability to specific extra memory
//! operations (flushes and stores on the `X` array at lines 3–4, 13–14,
//! 32–33, 47–48). [`Stats`] counts every primitive a
//! [`PmemPool`](crate::PmemPool) executes so experiment E3 can measure those
//! costs directly instead of inferring them from throughput.
//!
//! Counters are **sharded** and each shard has one writer:
//!
//! * A thread claims a shard index on its first count, from a process-wide
//!   64-bit ownership mask, and counts in that shard of every pool. A
//!   thread-local guard releases the index when the thread exits. The
//!   release store and the claiming acquire order the two owners, so the
//!   next owner continues the count exactly.
//! * The owner increments with a plain load and store: no locked
//!   read-modify-write on the hot path, and no cache line shared with
//!   another thread's counters.
//! * A thread that finds all 64 indices owned, or counts after its guard
//!   has gone, counts in one shared overflow shard with `fetch_add`.
//! * [`Stats::reset`] records a baseline that [`Stats::snapshot`]
//!   subtracts instead of zeroing the shards, so no shard ever has a
//!   second writer.
//!
//! Totals are identical to a shared implementation because counter
//! addition commutes.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Acquire, Ordering::Relaxed, Ordering::Release};

use crate::hook;

/// Number of owned shards: one bit each in [`OWNED`].
const SHARDS: usize = 64;

/// Index of the shared overflow shard, which follows the owned ones.
pub(crate) const OVERFLOW: usize = SHARDS;

/// The shard index of a thread that has not counted yet.
pub(crate) const UNCLAIMED: usize = usize::MAX;

/// Bit `i` is set while a live thread owns shard index `i`.
static OWNED: AtomicU64 = AtomicU64::new(0);

/// Releases the thread's shard index when the thread exits.
struct ShardGuard(Cell<usize>);

impl Drop for ShardGuard {
    fn drop(&mut self) {
        let i = self.0.get();
        if i < SHARDS {
            // Later counts on this thread (from other thread-locals'
            // destructors) must not write the shard the next owner takes.
            hook::set_shard(OVERFLOW);
            OWNED.fetch_and(!(1 << i), Release);
        }
    }
}

thread_local! {
    static GUARD: ShardGuard = const { ShardGuard(Cell::new(OVERFLOW)) };
}

/// Claims a free shard index for the calling thread, or [`OVERFLOW`] if
/// all are owned or the thread's guard is already gone.
#[cold]
pub(crate) fn claim_shard() -> usize {
    GUARD
        .try_with(|guard| {
            let mut owned = OWNED.load(Relaxed);
            while owned != u64::MAX {
                let i = owned.trailing_ones() as usize;
                match OWNED.compare_exchange_weak(owned, owned | 1 << i, Acquire, Relaxed) {
                    Ok(_) => {
                        guard.0.set(i);
                        return i;
                    }
                    Err(now) => owned = now,
                }
            }
            OVERFLOW
        })
        .unwrap_or(OVERFLOW)
}

/// One counter of a [`Shard`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Counter {
    Loads,
    Stores,
    CasOk,
    CasFail,
    Flushes,
    FlushesCoalesced,
    Fences,
}

/// Number of [`Counter`]s.
const COUNTERS: usize = 7;

/// One thread's counter set, indexed by [`Counter`], padded to two cache
/// lines so shards never share one, nor an adjacent-line prefetch pair
/// (64-byte lines, fetched in 128-byte pairs, on the x86-64 targets the
/// paper evaluates).
///
/// Ordering: all counters use `Relaxed` — they are monotone event counts
/// read only in aggregate snapshots, never used to synchronise memory.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Shard([AtomicU64; COUNTERS]);

/// Running counters of pmem primitives executed on a pool.
///
/// Increments go to the calling thread's shard; [`Stats::snapshot`] sums
/// all shards. Reset between measurement phases with [`Stats::reset`].
#[derive(Debug)]
pub struct Stats {
    /// The owned shards, then the overflow shard.
    shards: Box<[Shard]>,
    /// The totals at the last [`reset`](Stats::reset).
    baseline: Shard,
}

impl Default for Stats {
    fn default() -> Self {
        Self::new()
    }
}

impl Stats {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Stats {
            shards: (0..=OVERFLOW).map(|_| Shard::default()).collect(),
            baseline: Shard::default(),
        }
    }

    /// Counts one `counter` event in `shard`, which is the calling
    /// thread's (from [`hook::step`] or [`hook::shard`]).
    #[inline]
    pub(crate) fn count(&self, shard: usize, counter: Counter) {
        let word = &self.shards[shard].0[counter as usize];
        if shard == OVERFLOW {
            word.fetch_add(1, Relaxed);
        } else {
            // The calling thread owns the shard, so nothing else writes it.
            word.store(word.load(Relaxed) + 1, Relaxed);
        }
    }

    /// Per-counter sums over every shard.
    fn totals(&self) -> [u64; COUNTERS] {
        let mut sums = [0; COUNTERS];
        for shard in self.shards.iter() {
            for (sum, word) in sums.iter_mut().zip(&shard.0) {
                *sum += word.load(Relaxed);
            }
        }
        sums
    }

    /// Returns a point-in-time copy of the counters, aggregated over all
    /// shards, since the last [`reset`](Stats::reset).
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut c = self.totals();
        for (c, base) in c.iter_mut().zip(&self.baseline.0) {
            *c -= base.load(Relaxed);
        }
        let [loads, stores, cas_ok, cas_fail, flushes, flushes_coalesced, fences] = c;
        StatsSnapshot { loads, stores, cas_ok, cas_fail, flushes, flushes_coalesced, fences }
    }

    /// Zeroes all counters, as [`snapshot`](Stats::snapshot) sees them.
    pub fn reset(&self) {
        for (base, total) in self.baseline.0.iter().zip(self.totals()) {
            base.store(total, Relaxed);
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
    use std::sync::{Arc, Barrier, Mutex};

    /// The tests that count from many threads claim shard indices from the
    /// one process-wide mask, so they run one at a time.
    static MASK_USERS: Mutex<()> = Mutex::new(());

    /// Counts `counter` in the calling thread's shard, as a primitive does.
    fn count(s: &Stats, counter: Counter) {
        s.count(hook::shard(), counter);
    }

    /// Counts `n` of every counter on the calling thread.
    fn count_each(s: &Stats, n: u64) {
        for _ in 0..n {
            for c in [
                Counter::Loads,
                Counter::Stores,
                Counter::CasOk,
                Counter::CasFail,
                Counter::Flushes,
                Counter::FlushesCoalesced,
                Counter::Fences,
            ] {
                count(s, c);
            }
        }
    }

    /// The snapshot [`count_each`] leaves after `n` counts of each.
    fn each(n: u64) -> StatsSnapshot {
        StatsSnapshot {
            loads: n,
            stores: n,
            cas_ok: n,
            cas_fail: n,
            flushes: n,
            flushes_coalesced: n,
            fences: n,
        }
    }

    #[test]
    fn counting_and_snapshot() {
        let s = Stats::new();
        count(&s, Counter::Loads);
        count(&s, Counter::Loads);
        count(&s, Counter::Stores);
        count(&s, Counter::CasOk);
        count(&s, Counter::CasFail);
        count(&s, Counter::Flushes);
        count(&s, Counter::Fences);
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
        count(&s, Counter::Flushes);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
        count(&s, Counter::Flushes);
        assert_eq!(s.snapshot().flushes, 1, "counting resumes from the reset");
    }

    #[test]
    fn since_subtracts() {
        let s = Stats::new();
        count(&s, Counter::Stores);
        let a = s.snapshot();
        count(&s, Counter::Stores);
        count(&s, Counter::Flushes);
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

    /// Per-thread sharded counters aggregate to exactly the totals a
    /// single shared counter set would have reported.
    #[test]
    fn multithreaded_counts_aggregate_exactly() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let _mask = MASK_USERS.lock().unwrap_or_else(|e| e.into_inner());
        let s = Arc::new(Stats::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        count(&s, Counter::Loads);
                        count(&s, Counter::Stores);
                        count(&s, if i % 3 == 0 { Counter::CasOk } else { Counter::CasFail });
                        count(&s, if t % 2 == 0 { Counter::Flushes } else { Counter::Fences });
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

    /// More live threads than owned shards: at least two count in the
    /// overflow shard, beside the owners, and the totals stay exact.
    #[test]
    fn more_live_threads_than_shards_aggregate_exactly() {
        const THREADS: usize = SHARDS + 2;
        const PER_THREAD: u64 = 1_000;
        let _mask = MASK_USERS.lock().unwrap_or_else(|e| e.into_inner());
        let s = Stats::new();
        let all_live = Barrier::new(THREADS);
        let overflowed = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        count_each(&s, PER_THREAD);
                        // Nobody exits, and so releases a shard, until
                        // every thread has claimed one or overflowed.
                        all_live.wait();
                        hook::shard() == OVERFLOW
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).filter(|&o| o).count()
        });
        assert!(overflowed >= 2, "only {overflowed} threads used the overflow shard");
        assert_eq!(s.snapshot(), each(THREADS as u64 * PER_THREAD));
    }

    /// Threads that run one after another re-claim the shards their
    /// predecessors released, and continue their counts exactly.
    #[test]
    fn released_shards_are_reclaimed_without_lost_counts() {
        const THREADS: u64 = 200;
        const PER_THREAD: u64 = 100;
        let _mask = MASK_USERS.lock().unwrap_or_else(|e| e.into_inner());
        let s = Stats::new();
        let owners = (0..THREADS)
            .filter(|_| {
                std::thread::scope(|scope| {
                    scope
                        .spawn(|| {
                            count_each(&s, PER_THREAD);
                            hook::shard() != OVERFLOW
                        })
                        .join()
                        .unwrap()
                })
            })
            .count();
        // Without releases no more than SHARDS threads could ever own one
        // (other tests' threads may hold a few at any moment).
        assert!(owners > SHARDS, "only {owners} of {THREADS} threads owned a shard");
        assert_eq!(s.snapshot(), each(THREADS * PER_THREAD));
    }

    #[test]
    fn reset_between_joined_phases_keeps_only_the_second() {
        let _mask = MASK_USERS.lock().unwrap_or_else(|e| e.into_inner());
        let s = Stats::new();
        let phase = |n: u64| {
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| count_each(&s, n));
                }
            })
        };
        phase(300);
        count_each(&s, 7);
        s.reset();
        phase(50);
        assert_eq!(s.snapshot(), each(4 * 50));
    }
}
