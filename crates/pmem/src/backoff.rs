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
//! The cap is fixed at `2^6` spin iterations. Spinning executes no pool
//! primitives, so crash sweeps that index operations see identical
//! indices with backoff on and off.

/// Spin exponent cap: waits bounded by `2^6` (= 64) iterations of
/// [`std::hint::spin_loop`]. Small on purpose — the loops this protects
/// are a handful of instructions long, and an over-long bound turns
/// backoff into added latency on lightly contended runs.
const CAP: u32 = 6;

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
pub struct Backoff {
    enabled: bool,
    shift: u32,
}

impl Backoff {
    /// Creates a backoff starting at one spin iteration; `enabled: false`
    /// makes every [`spin`](Self::spin) a no-op.
    pub fn new(enabled: bool) -> Self {
        Backoff { enabled, shift: 0 }
    }

    /// Spins for the current wait (1 → 2 → 4 → … → `2^6` iterations, then
    /// stays there) and doubles it. No-op when disabled.
    #[inline]
    pub fn spin(&mut self) {
        if !self.enabled {
            return;
        }
        for _ in 0..1u32 << self.shift {
            std::hint::spin_loop();
        }
        if self.shift < CAP {
            self.shift += 1;
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
        assert_eq!(bo.shift, CAP, "bounded at 2^{CAP} iterations");
    }

    #[test]
    fn disabled_backoff_never_advances() {
        let mut bo = Backoff::new(false);
        for _ in 0..5 {
            bo.spin();
        }
        assert_eq!(bo.shift, 0, "disabled spin is a no-op");
    }
}
