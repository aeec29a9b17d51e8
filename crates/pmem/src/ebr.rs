//! Epoch-based memory reclamation (EBR).
//!
//! Lock-free structures cannot free a node the moment it is unlinked:
//! another thread may still hold a reference obtained before the unlink.
//! The paper's evaluation reclaims dequeued nodes "using epoch-based
//! reclamation" (Fraser 2004), borrowed there from the `pmwcas` repository;
//! this module is our own implementation of the same classic three-epoch
//! scheme.
//!
//! Protocol: a thread [`pin`](Ebr::pin)s before operating on the shared
//! structure and unpins when done (the guard's `Drop`). Unlinked nodes are
//! [`retire`](Ebr::retire)d, not freed. The global epoch advances only when
//! every pinned thread has observed it, so a node retired in epoch *e* is
//! safe to reuse once the global epoch reaches *e + 2*:
//! [`collect`](Ebr::collect) returns such nodes to the caller (who typically
//! pushes them back into a [`NodePool`](crate::NodePool)).
//!
//! # Examples
//!
//! ```
//! use dss_pmem::{Ebr, PAddr};
//!
//! let ebr = Ebr::new(2);
//! let node = PAddr::from_index(42);
//! {
//!     let _guard = ebr.pin(0);
//!     ebr.retire(0, node);
//! } // unpinned
//! // With no other pinned threads the epoch can advance twice:
//! let mut freed = Vec::new();
//! for _ in 0..3 {
//!     freed.extend(ebr.collect(0));
//! }
//! assert_eq!(freed, vec![node]);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

use crate::sync::Mutex;

use crate::PAddr;

const INACTIVE: u64 = 0;

/// One thread's reclamation state, padded to its own cache line (two, for
/// adjacent-line prefetch): every pin and unpin stores `announced`, and
/// threads pinning on every operation must not contend for one line.
#[repr(align(128))]
struct Slot {
    /// `INACTIVE`, or `epoch + 1` while the thread is pinned in `epoch`.
    announced: AtomicU64,
    /// Nodes retired by this thread, with the epoch at retirement.
    limbo: Mutex<VecDeque<(u64, PAddr)>>,
}

/// A three-epoch reclamation domain for a fixed set of threads.
///
/// Thread IDs index a fixed slot array; the structure is `Sync` and all
/// methods take `&self`.
#[derive(Debug)]
pub struct Ebr {
    global: AtomicU64,
    slots: Box<[Slot]>,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("announced", &self.announced.load(SeqCst))
            .field("limbo_len", &self.limbo.lock().len())
            .finish()
    }
}

/// RAII guard returned by [`Ebr::pin`]; the thread stays pinned until the
/// guard drops.
#[derive(Debug)]
pub struct EbrGuard<'a> {
    ebr: &'a Ebr,
    tid: usize,
}

impl Drop for EbrGuard<'_> {
    fn drop(&mut self) {
        self.ebr.slots[self.tid].announced.store(INACTIVE, SeqCst);
    }
}

impl Ebr {
    /// Creates a reclamation domain for `nthreads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` is zero.
    pub fn new(nthreads: usize) -> Self {
        assert!(nthreads > 0, "need at least one thread");
        Ebr {
            global: AtomicU64::new(1),
            slots: (0..nthreads)
                .map(|_| Slot {
                    announced: AtomicU64::new(INACTIVE),
                    limbo: Mutex::new(VecDeque::new()),
                })
                .collect(),
        }
    }

    /// The current global epoch (starts at 1).
    pub fn epoch(&self) -> u64 {
        self.global.load(SeqCst)
    }

    /// Pins thread `tid` in the current epoch. While pinned, no node retired
    /// in this epoch or later will be recycled.
    ///
    /// Re-pinning a thread that is already pinned is not supported and may
    /// delay reclamation; each thread holds at most one guard at a time.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn pin(&self, tid: usize) -> EbrGuard<'_> {
        let e = self.global.load(SeqCst);
        self.slots[tid].announced.store(e + 1, SeqCst);
        EbrGuard { ebr: self, tid }
    }

    /// Retires `addr` on behalf of thread `tid`: it becomes reclaimable two
    /// epochs from now.
    pub fn retire(&self, tid: usize, addr: PAddr) {
        let e = self.global.load(SeqCst);
        self.slots[tid].limbo.lock().push_back((e, addr));
    }

    /// Tries to advance the global epoch, then returns thread `tid`'s
    /// retired nodes that are now safe to reuse.
    ///
    /// Call periodically (e.g. when the allocator runs dry); each call
    /// advances the epoch at most once, so draining a long limbo list takes
    /// several calls, which bounds latency.
    pub fn collect(&self, tid: usize) -> Vec<PAddr> {
        let e = self.global.load(SeqCst);
        let all_observed = self.slots.iter().all(|s| {
            let a = s.announced.load(SeqCst);
            a == INACTIVE || a == e + 1
        });
        if all_observed {
            // A racing collect may have advanced it already; that's fine.
            let _ = self.global.compare_exchange(e, e + 1, SeqCst, SeqCst);
        }
        let now = self.global.load(SeqCst);
        let mut out = Vec::new();
        let mut limbo = self.slots[tid].limbo.lock();
        while let Some(&(re, addr)) = limbo.front() {
            if re + 2 <= now {
                out.push(addr);
                limbo.pop_front();
            } else {
                break;
            }
        }
        out
    }

    /// Like [`collect`](Self::collect), but drains the eligible retirees of
    /// **every** thread, not just the caller's.
    ///
    /// Per-thread limbo lists are only drained when their owner allocates;
    /// an allocator under memory pressure uses this to reclaim nodes
    /// stranded in other threads' lists (ownership of the freed nodes
    /// passes to the caller).
    pub fn collect_all(&self, tid: usize) -> Vec<PAddr> {
        let mut out = self.collect(tid);
        let now = self.global.load(SeqCst);
        for s in self.slots.iter() {
            let mut limbo = s.limbo.lock();
            while let Some(&(re, addr)) = limbo.front() {
                if re + 2 <= now {
                    out.push(addr);
                    limbo.pop_front();
                } else {
                    break;
                }
            }
        }
        out
    }

    /// Whether a thread other than `tid` is pinned in an epoch older than
    /// the current one — the only thing that keeps the epoch, and with it
    /// every retiree, from moving on. That thread is typically descheduled
    /// mid-operation and will unpin once it runs again.
    pub fn held_back_by_other(&self, tid: usize) -> bool {
        let e = self.global.load(SeqCst);
        self.slots.iter().enumerate().any(|(s, slot)| {
            let a = slot.announced.load(SeqCst);
            s != tid && a != INACTIVE && a != e + 1
        })
    }

    /// Number of nodes awaiting reclamation across all threads.
    pub fn limbo_len(&self) -> usize {
        self.slots.iter().map(|s| s.limbo.lock().len()).sum()
    }

    /// Takes over slot `tid` from a thread that will never unpin it.
    ///
    /// A thread that vanishes (crash, partial restart) while pinned leaves
    /// a stale epoch announcement behind, which blocks the global epoch —
    /// and with it every thread's reclamation — forever. The adopter
    /// clears the announcement; the dead thread's limbo list is *kept* and
    /// inherited in place, so its retirees are reclaimed through the
    /// ordinary [`collect`](Self::collect)/[`collect_all`](Self::collect_all)
    /// path under the new owner instead of silently aliasing the next
    /// thread to reuse the slot id.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn adopt_slot(&self, tid: usize) {
        self.slots[tid].announced.store(INACTIVE, SeqCst);
    }

    /// Discards all limbo records and resets announcements, e.g. after a
    /// simulated crash when the allocator is rebuilt from a liveness scan
    /// and limbo contents would otherwise double-free.
    pub fn reset(&self) {
        for s in self.slots.iter() {
            s.announced.store(INACTIVE, SeqCst);
            s.limbo.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn retired_node_not_reclaimed_while_epoch_held() {
        let ebr = Ebr::new(2);
        let _g1 = ebr.pin(1); // thread 1 parked in the current epoch
        {
            let _g0 = ebr.pin(0);
            ebr.retire(0, PAddr::from_index(7));
        }
        // Thread 1 still announces the old epoch, so it can advance at most
        // once; retire-epoch + 2 is never reached.
        for _ in 0..5 {
            assert!(ebr.collect(0).is_empty());
        }
        drop(_g1);
        let mut freed = Vec::new();
        for _ in 0..5 {
            freed.extend(ebr.collect(0));
        }
        assert_eq!(freed, vec![PAddr::from_index(7)]);
    }

    #[test]
    fn collect_preserves_order_and_drains_incrementally() {
        let ebr = Ebr::new(1);
        ebr.retire(0, PAddr::from_index(1));
        ebr.retire(0, PAddr::from_index(2));
        assert_eq!(ebr.limbo_len(), 2);
        let mut freed = Vec::new();
        for _ in 0..4 {
            freed.extend(ebr.collect(0));
        }
        assert_eq!(freed, vec![PAddr::from_index(1), PAddr::from_index(2)]);
        assert_eq!(ebr.limbo_len(), 0);
    }

    #[test]
    fn reset_clears_limbo() {
        let ebr = Ebr::new(1);
        ebr.retire(0, PAddr::from_index(1));
        ebr.reset();
        assert_eq!(ebr.limbo_len(), 0);
        for _ in 0..4 {
            assert!(ebr.collect(0).is_empty());
        }
    }

    #[test]
    fn concurrent_pin_retire_collect_smoke() {
        let ebr = Arc::new(Ebr::new(4));
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let ebr = Arc::clone(&ebr);
                std::thread::spawn(move || {
                    let mut freed = 0usize;
                    for i in 0..500u64 {
                        {
                            let _g = ebr.pin(tid);
                            ebr.retire(tid, PAddr::from_index(1 + tid as u64 * 1000 + i));
                        }
                        freed += ebr.collect(tid).len();
                    }
                    // Drain the tail.
                    for _ in 0..8 {
                        freed += ebr.collect(tid).len();
                    }
                    freed
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total + ebr.limbo_len(), 2000, "every retiree is freed or in limbo");
    }

    #[test]
    fn adopt_slot_unblocks_epoch_and_inherits_limbo() {
        let ebr = Ebr::new(2);
        // Thread 1 pins and then "dies" without ever dropping its guard —
        // the stale announcement would block the epoch forever.
        let g = ebr.pin(1);
        std::mem::forget(g);
        ebr.retire(1, PAddr::from_index(9));
        for _ in 0..5 {
            assert!(ebr.collect_all(0).is_empty(), "stale pin must block reclamation");
        }
        // An adopter takes over the slot: the pin clears, the limbo list
        // survives and drains under the new owner.
        ebr.adopt_slot(1);
        let mut freed = Vec::new();
        for _ in 0..5 {
            freed.extend(ebr.collect_all(0));
        }
        assert_eq!(freed, vec![PAddr::from_index(9)], "inherited retiree reclaimed");
    }

    #[test]
    fn epoch_monotonically_advances_when_quiescent() {
        let ebr = Ebr::new(2);
        let e0 = ebr.epoch();
        ebr.collect(0);
        ebr.collect(0);
        assert!(ebr.epoch() >= e0 + 2);
    }
}
