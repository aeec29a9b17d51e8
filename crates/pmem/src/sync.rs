//! Poison-free mutex.
//!
//! Crash injection unwinds threads with a [`CrashSignal`](crate::CrashSignal)
//! panic while they may hold allocator or reclamation locks. `std`'s mutex
//! would poison on that unwind and fail every later `lock()`; a simulated
//! crash, however, is an *expected* event after which the pool is repaired
//! by an explicit rebuild, not by refusing the lock. This wrapper keeps the
//! no-poisoning semantics the code was written against (previously provided
//! by `parking_lot`, which the offline build environment cannot fetch).

use std::sync::{self, PoisonError};

/// A mutual-exclusion lock whose guard acquisition never fails: a poisoned
/// state (a panic while locked) is ignored and the data returned as-is.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a mutex holding `value`.
    pub fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking the current thread until it is available.
    /// Unlike [`std::sync::Mutex::lock`] this cannot fail.
    pub fn lock(&self) -> sync::MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// `T` alone on its cache lines: aligned (and so sized) to 128 bytes, two
/// 64-byte lines, because x86 prefetches lines in adjacent pairs. Per-thread
/// state that its owner writes on every operation goes in one of these, so
/// two threads' writes never contend for a line.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    #[test]
    fn lock_survives_panicking_holder() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let r = catch_unwind(AssertUnwindSafe(move || {
            let _g = m2.lock();
            panic!("simulated crash while holding the lock");
        }));
        assert!(r.is_err());
        assert_eq!(*m.lock(), 7, "data accessible after a poisoning panic");
    }
}
