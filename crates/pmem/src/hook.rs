//! Crash-point injection.
//!
//! A crash sweep ("inject a crash at every instruction boundary") needs a way
//! to stop a thread mid-operation without instrumenting algorithm code. The
//! pool primitives call [`step`] once per memory operation; when the current
//! thread has an armed plan the counter decrements and, on reaching zero, the
//! thread unwinds with a [`CrashSignal`] panic payload. The harness catches
//! the unwind (`std::panic::catch_unwind`), then calls
//! [`PmemPool::crash`](crate::PmemPool::crash) to discard volatile state.
//!
//! The plan is thread-local: only the thread that called
//! [`arm_crash_after`](crate::PmemPool::arm_crash_after) is interrupted,
//! which is exactly what a sweep over one victim operation needs. A
//! system-wide crash is then simulated by stopping the remaining threads
//! cooperatively and calling `crash` on the pool.

use std::cell::Cell;

use crate::stats;

/// What every instrumented primitive reads of its thread: the crash
/// countdown and the thread's statistics shard, in one const-initialised
/// thread-local so a primitive pays one thread-local lookup, not two.
/// No destructor: the state stays readable while other thread-locals are
/// torn down, which is when a thread's shard is released.
struct ThreadState {
    /// Remaining pmem operations before this thread crashes; 0 = disarmed.
    countdown: Cell<u64>,
    /// This thread's [`Stats`](crate::Stats) shard index, claimed on its
    /// first count ([`stats::UNCLAIMED`] until then).
    shard: Cell<usize>,
}

impl ThreadState {
    #[inline]
    fn shard(&self) -> usize {
        match self.shard.get() {
            stats::UNCLAIMED => {
                let s = stats::claim_shard();
                self.shard.set(s);
                s
            }
            s => s,
        }
    }
}

thread_local! {
    static THREAD: ThreadState = const {
        ThreadState { countdown: Cell::new(0), shard: Cell::new(stats::UNCLAIMED) }
    };
}

/// Panic payload used to simulate a crash of the current thread.
///
/// Algorithms never observe this type; it exists so a harness can tell a
/// simulated crash apart from a genuine bug:
///
/// ```
/// use dss_pmem::{CrashSignal, PmemPool, PAddr};
///
/// let pool = PmemPool::with_capacity(8);
/// pool.arm_crash_after(1);
/// let unwind = std::panic::catch_unwind(|| {
///     pool.store(PAddr::from_index(1), 5); // 1st op: crashes here
/// });
/// let payload = unwind.unwrap_err();
/// assert!(payload.downcast_ref::<CrashSignal>().is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSignal;

/// Arms the current thread to crash after `ops` more pmem operations.
pub(crate) fn arm(ops: u64) {
    silence_crash_signal_reports();
    THREAD.with(|t| t.countdown.set(ops));
}

/// Installs (once, process-wide) a panic hook that suppresses the default
/// "thread panicked" report for [`CrashSignal`] payloads — simulated
/// crashes are expected and caught, and their traces would drown real
/// failures in harness output. All other panics report as usual.
fn silence_crash_signal_reports() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashSignal>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Disarms any pending crash plan for the current thread.
pub(crate) fn disarm() {
    THREAD.with(|t| t.countdown.set(0));
}

/// Returns the number of operations remaining before the armed crash, or 0.
pub(crate) fn remaining() -> u64 {
    THREAD.with(|t| t.countdown.get())
}

/// Called by every instrumented pool primitive before it acts: panics
/// with [`CrashSignal`] when the armed countdown expires, and otherwise
/// returns the shard the primitive counts itself in.
#[inline]
pub(crate) fn step() -> usize {
    THREAD.with(|t| {
        let n = t.countdown.get();
        if n > 0 {
            if n == 1 {
                t.countdown.set(0);
                std::panic::panic_any(CrashSignal);
            }
            t.countdown.set(n - 1);
        }
        t.shard()
    })
}

/// This thread's statistics shard, for counts that are not a primitive
/// of their own (a coalesced flush).
#[inline]
pub(crate) fn shard() -> usize {
    THREAD.with(ThreadState::shard)
}

/// Points this thread's later counts at `shard`: the overflow shard, once
/// the thread has released the shard it owned.
pub(crate) fn set_shard(shard: usize) {
    THREAD.with(|t| t.shard.set(shard));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn countdown_fires_exactly_once() {
        arm(3);
        step();
        step();
        let r = std::panic::catch_unwind(step);
        assert!(r.unwrap_err().downcast_ref::<CrashSignal>().is_some());
        // Disarmed afterwards: further steps are harmless.
        step();
        step();
    }

    /// A fresh thread has no shard until its first primitive: the crash
    /// check runs before the claim, and an armed crash fires at exactly
    /// the k-th primitive either way.
    #[test]
    fn a_crash_armed_on_a_fresh_thread_fires_at_its_kth_primitive() {
        use crate::{PAddr, PmemPool};
        for k in 1..=4 {
            let pool = PmemPool::with_capacity(16);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let shard = || THREAD.with(|t| t.shard.get());
                    assert_eq!(shard(), stats::UNCLAIMED, "a fresh thread");
                    let mut done = 0;
                    let crashed = pool.crashes_within(k, || loop {
                        pool.store(PAddr::from_index(1), done);
                        done += 1;
                    });
                    assert!(crashed);
                    assert_eq!(done, k - 1, "the crash fires at primitive {k}");
                    assert_eq!(pool.stats().stores, k - 1, "every completed primitive counted");
                    assert_eq!(
                        shard() != stats::UNCLAIMED,
                        k > 1,
                        "the first completed one claims"
                    );
                });
            });
        }
    }

    #[test]
    fn disarm_cancels() {
        arm(1);
        disarm();
        step(); // must not panic
        assert_eq!(remaining(), 0);
    }
}
