//! Bounded exponential backoff for contended CAS retry loops.
//!
//! Under contention a failed CAS means another thread just made progress;
//! retrying immediately mostly re-collides on the same cache line. Spinning
//! for an exponentially growing, bounded number of iterations before the
//! retry lets the winner's store propagate and spreads the losers out —
//! the classic contention-management layer the paper's evaluation omits
//! but any "as fast as the hardware allows" build needs.
//!
//! [`Backoff`] is constructed per operation (not per structure): the delay
//! resets at every operation boundary so an uncontended phase never pays
//! for an earlier contended one. Construction takes an `enabled` flag so
//! structures can gate backoff behind a runtime knob without branching at
//! every call site; a disabled `Backoff` is free.
//!
//! The spin-exponent *cap* is no longer a global constant: each structure
//! owns a [`BackoffTuner`] that adapts the cap to the CAS-failure rate it
//! actually observes. A window of operations with many retries per op
//! raises the cap (losers wait longer, collisions thin out); a quiet
//! window lowers it back (uncontended phases stop paying for contended
//! ones). Waits past [`YIELD_SHIFT`] yield the CPU instead of spinning —
//! at that point the thread is better off letting the winner run than
//! burning its own timeslice.
//!
//! Spinning, yielding, and tuner bookkeeping execute no pool primitives,
//! so crash sweeps that index operations see identical indices with
//! backoff on and off.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};

/// Default spin exponent cap: waits bounded by `2^6` (= 64) iterations of
/// [`std::hint::spin_loop`]. Small on purpose — the loops this protects
/// are a handful of instructions long, and an over-long bound turns
/// backoff into added latency on lightly contended runs. This is the
/// fixed cap [`Backoff::new`] uses when no tuner is attached.
const DEFAULT_CAP: u32 = 6;

/// The tuned cap never shrinks below this: keeping a little randomising
/// delay is cheaper than re-learning it at the next contention burst.
const MIN_CAP: u32 = 2;

/// The tuned cap never grows past this (`2^10` = 1024 iterations — past
/// that, waits go through [`YIELD_SHIFT`] yields anyway).
const MAX_CAP: u32 = 10;

/// Shift at which a wait yields the CPU ([`std::thread::yield_now`])
/// instead of spinning: a loser that has already backed off 256 iterations
/// is better off ceding its timeslice than burning it.
const YIELD_SHIFT: u32 = 8;

/// Operations per tuning window: the cap moves at most one step per this
/// many completed operations, so one anomalous op cannot swing it.
const WINDOW: u64 = 256;

/// Average retries per operation at or above which a window raises the
/// cap by one step.
const RAISE_AT: u64 = 4;

/// Average retries per operation at or below which a window lowers the
/// cap by one step.
const LOWER_AT: u64 = 1;

/// Per-structure adaptive cap for [`Backoff`], tuned from the observed
/// CAS-failure rate.
///
/// Each completed operation reports how many retries (spins) it needed;
/// every `WINDOW` operations the tuner compares the window's average
/// retry rate against `RAISE_AT`/`LOWER_AT` and moves the cap one
/// step within `[MIN_CAP, MAX_CAP]`. All counters are `Relaxed`: they are
/// monotone tuning inputs, and a lost update merely skews one window.
#[derive(Debug)]
pub struct BackoffTuner {
    cap: AtomicU32,
    ops: AtomicU64,
    retries: AtomicU64,
}

impl Default for BackoffTuner {
    fn default() -> Self {
        Self::new()
    }
}

impl BackoffTuner {
    /// Creates a tuner starting at the default cap (`2^6` iterations).
    pub fn new() -> Self {
        BackoffTuner {
            cap: AtomicU32::new(DEFAULT_CAP),
            ops: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    /// The current spin-exponent cap.
    pub fn cap(&self) -> u32 {
        self.cap.load(Relaxed)
    }

    /// Reports one completed operation that needed `retries` backoff
    /// spins, retuning the cap at window boundaries.
    pub fn record_op(&self, retries: u32) {
        let window_retries =
            self.retries.fetch_add(u64::from(retries), Relaxed) + u64::from(retries);
        let ops = self.ops.fetch_add(1, Relaxed) + 1;
        if ops < WINDOW {
            return;
        }
        // One thread wins the window reset; a racing report that lands in
        // the wrong window only skews that window's average.
        if self.ops.compare_exchange(ops, 0, Relaxed, Relaxed).is_err() {
            return;
        }
        self.retries.store(0, Relaxed);
        let avg = window_retries / ops;
        let cap = self.cap.load(Relaxed);
        if avg >= RAISE_AT && cap < MAX_CAP {
            self.cap.store(cap + 1, Relaxed);
        } else if avg <= LOWER_AT && cap > MIN_CAP {
            self.cap.store(cap - 1, Relaxed);
        }
    }
}

/// A per-operation bounded exponential backoff.
///
/// # Examples
///
/// ```
/// use dss_pmem::Backoff;
///
/// let mut bo = Backoff::new(true);
/// for attempt in 0..3 {
///     // ... CAS failed ...
///     bo.spin(); // 1, then 2, then 4 spin-loop hints
///     let _ = attempt;
/// }
///
/// let mut off = Backoff::new(false);
/// off.spin(); // disabled: returns immediately
/// ```
#[derive(Debug)]
pub struct Backoff<'a> {
    enabled: bool,
    shift: u32,
    cap: u32,
    spins: u32,
    tuner: Option<&'a BackoffTuner>,
}

impl Backoff<'static> {
    /// Creates a backoff starting at one spin iteration with the fixed
    /// default cap; `enabled: false` makes every [`spin`](Self::spin) a
    /// no-op.
    pub fn new(enabled: bool) -> Self {
        Backoff { enabled, shift: 0, cap: DEFAULT_CAP, spins: 0, tuner: None }
    }
}

impl<'a> Backoff<'a> {
    /// Creates a backoff whose cap comes from (and whose retry count is
    /// reported back to) a per-structure [`BackoffTuner`]. The cap is
    /// sampled once at operation start: a mid-operation retune applies
    /// from the next operation on.
    pub fn attached(enabled: bool, tuner: &'a BackoffTuner) -> Self {
        Backoff { enabled, shift: 0, cap: tuner.cap(), spins: 0, tuner: Some(tuner) }
    }

    /// Spins for the current wait (1 → 2 → 4 → … → `2^cap` iterations,
    /// then stays there) and doubles it; waits past `2^8` yield the CPU
    /// instead. No-op when disabled.
    #[inline]
    pub fn spin(&mut self) {
        if !self.enabled {
            return;
        }
        self.spins = self.spins.saturating_add(1);
        if self.shift >= YIELD_SHIFT {
            std::thread::yield_now();
        } else {
            for _ in 0..1u32 << self.shift {
                std::hint::spin_loop();
            }
        }
        if self.shift < self.cap {
            self.shift += 1;
        }
    }

    /// Resets the wait to one iteration (e.g. after making progress).
    #[inline]
    pub fn reset(&mut self) {
        self.shift = 0;
    }
}

impl Drop for Backoff<'_> {
    fn drop(&mut self) {
        // One operation completed (or unwound): report its retry count so
        // the structure's tuner sees failure rates, not just failures.
        if self.enabled {
            if let Some(t) = self.tuner {
                t.record_op(self.spins);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_grows_and_saturates() {
        let mut bo = Backoff::new(true);
        for _ in 0..20 {
            bo.spin();
        }
        assert_eq!(bo.shift, DEFAULT_CAP, "bounded at 2^{DEFAULT_CAP} iterations");
        bo.reset();
        assert_eq!(bo.shift, 0);
    }

    #[test]
    fn disabled_backoff_never_advances() {
        let mut bo = Backoff::new(false);
        for _ in 0..5 {
            bo.spin();
        }
        assert_eq!(bo.shift, 0, "disabled spin is a no-op");
    }

    #[test]
    fn tuner_raises_cap_under_sustained_contention() {
        let t = BackoffTuner::new();
        assert_eq!(t.cap(), DEFAULT_CAP);
        // Two windows of heavily retried operations: cap steps up twice.
        for _ in 0..2 * WINDOW {
            let mut bo = Backoff::attached(true, &t);
            for _ in 0..8 {
                bo.spin();
            }
        }
        assert_eq!(t.cap(), DEFAULT_CAP + 2, "contended windows raise the cap one step each");
    }

    #[test]
    fn tuner_lowers_cap_when_contention_subsides() {
        let t = BackoffTuner::new();
        for _ in 0..WINDOW {
            let mut bo = Backoff::attached(true, &t);
            for _ in 0..8 {
                bo.spin();
            }
        }
        assert_eq!(t.cap(), DEFAULT_CAP + 1);
        // Retry-free windows walk it back down to the floor, no further.
        for _ in 0..20 * WINDOW {
            let _bo = Backoff::attached(true, &t);
        }
        assert_eq!(t.cap(), MIN_CAP, "quiet windows lower the cap to its floor");
    }

    #[test]
    fn attached_backoff_saturates_at_the_tuned_cap() {
        let t = BackoffTuner::new();
        t.cap.store(MAX_CAP, Relaxed);
        let mut bo = Backoff::attached(true, &t);
        for _ in 0..40 {
            bo.spin(); // walks through the yield regime without hanging
        }
        assert_eq!(bo.shift, MAX_CAP);
        drop(bo);
        assert_eq!(t.ops.load(Relaxed), 1, "the finished operation was reported");
        assert_eq!(t.retries.load(Relaxed), 40);
    }

    #[test]
    fn disabled_attached_backoff_reports_nothing() {
        let t = BackoffTuner::new();
        {
            let mut bo = Backoff::attached(false, &t);
            bo.spin();
        }
        assert_eq!(t.ops.load(Relaxed), 0, "disabled operations don't skew the tuner");
    }
}
