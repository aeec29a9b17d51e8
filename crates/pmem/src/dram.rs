//! The zero-overhead DRAM backend.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

use crate::seg::{self, Layout, PlacementPolicy, SegmentDirectory};
use crate::{FlushGranularity, Memory, PAddr};

/// A pool of plain sequentially consistent `AtomicU64` words: no persisted
/// shadow, no dirty bits, no crash hooks, no statistics.
///
/// This is the peak-throughput baseline backend: running the same algorithm
/// on a [`DramPool`] and a [`PmemPool`](crate::PmemPool) separates the
/// algorithm's own cost from the simulator's bookkeeping (experiment E8).
/// [`Memory::flush`] and [`Memory::fence`] are free-function no-ops — DRAM
/// has no persistence domain to maintain — so the flush-heavy detectable
/// algorithms keep their instruction sequence but pay nothing for it.
///
/// Like [`PmemPool`](crate::PmemPool), the pool grows on demand through a
/// lock-free directory of doubling segments.
///
/// # Examples
///
/// ```
/// use dss_pmem::{DramPool, FlushGranularity, Memory, PAddr};
///
/// let pool = DramPool::new(16);
/// let a = PAddr::from_index(3);
/// assert_eq!(pool.cas(a, 0, 10), Ok(0));
/// pool.flush(a); // no-op: nothing to persist
/// assert_eq!(pool.load(a), 10);
///
/// // Or through the backend-generic constructor:
/// let pool = <DramPool as Memory>::create(16, FlushGranularity::Line);
/// assert!(pool.capacity() >= 16);
/// ```
pub struct DramPool {
    dir: SegmentDirectory<AtomicU64>,
    granularity: FlushGranularity,
}

impl DramPool {
    /// Creates a zero-initialised pool with `words` words of initial
    /// capacity; grows on demand past it.
    ///
    /// # Panics
    ///
    /// Panics if `words` is 0 or exceeds the 48-bit address space.
    pub fn new(words: usize) -> Self {
        <Self as Memory>::create(words, FlushGranularity::default())
    }

    #[inline]
    fn segment(&self, slot: usize) -> &[AtomicU64] {
        self.dir.get_or_init(slot, || {
            (0..self.dir.layout().len(slot)).map(|_| AtomicU64::new(0)).collect()
        })
    }

    #[inline]
    fn word(&self, addr: PAddr) -> &AtomicU64 {
        let (slot, off) = self.dir.locate(addr.index());
        &self.segment(slot)[off]
    }
}

impl Memory for DramPool {
    fn create(words: usize, granularity: FlushGranularity) -> Self {
        let pool = DramPool { dir: SegmentDirectory::new(Layout::new(words)), granularity };
        pool.segment(0);
        pool
    }

    #[inline]
    fn load(&self, addr: PAddr) -> u64 {
        self.word(addr).load(SeqCst)
    }

    #[inline]
    fn store(&self, addr: PAddr, value: u64) {
        self.word(addr).store(value, SeqCst);
    }

    #[inline]
    fn cas(&self, addr: PAddr, expected: u64, new: u64) -> Result<u64, u64> {
        self.word(addr).compare_exchange(expected, new, SeqCst, SeqCst)
    }

    #[inline]
    fn flush(&self, _addr: PAddr) {}

    #[inline]
    fn fence(&self) {}

    fn granularity(&self) -> FlushGranularity {
        self.granularity
    }

    fn capacity(&self) -> usize {
        self.dir.materialised_words() as usize
    }

    fn reserve(&self, words: usize) {
        if words == 0 {
            return;
        }
        let last = self.dir.layout().slot_of(words as u64 - 1);
        for slot in 0..=last {
            self.segment(slot);
        }
    }

    #[inline]
    fn peek(&self, addr: PAddr) -> u64 {
        self.word(addr).load(SeqCst)
    }

    fn set_placement(&self, policy: PlacementPolicy) {
        self.dir.set_policy(policy);
    }

    fn placement(&self) -> PlacementPolicy {
        self.dir.policy()
    }

    fn plan_regions(&self, first_free: u64, region_words: &[u64]) -> Vec<Range<u64>> {
        seg::plan_with(self.dir.layout(), self.dir.policy(), first_free, region_words)
    }
}

impl fmt::Debug for DramPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DramPool").field("capacity", &self.capacity()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(i: u64) -> PAddr {
        PAddr::from_index(i)
    }

    #[test]
    fn load_store_cas_roundtrip() {
        let p = DramPool::new(16);
        p.store(addr(1), 42);
        assert_eq!(p.load(addr(1)), 42);
        assert_eq!(p.cas(addr(1), 42, 43), Ok(42));
        assert_eq!(p.cas(addr(1), 42, 44), Err(43));
        assert_eq!(p.peek(addr(1)), 43);
    }

    #[test]
    fn flush_and_fence_are_noops() {
        let p = DramPool::new(16);
        p.store(addr(2), 5);
        p.flush(addr(2));
        p.fence();
        assert_eq!(p.load(addr(2)), 5);
        assert_eq!(p.stats().total(), 0, "dram backend counts nothing");
    }

    #[test]
    fn grows_past_initial_capacity() {
        let p = DramPool::new(8);
        let far = addr(100_000);
        p.store(far, 9);
        assert_eq!(p.load(far), 9);
        assert!(p.capacity() > 100_000);
    }

    #[test]
    fn reserve_materialises() {
        let p = DramPool::new(8);
        p.reserve(4096);
        assert!(p.capacity() >= 4096);
    }

    #[test]
    fn concurrent_cas_is_atomic() {
        use std::sync::Arc;
        let p = Arc::new(DramPool::new(8));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        loop {
                            let cur = p.load(addr(1));
                            if p.cas(addr(1), cur, cur + 1).is_ok() {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(p.load(addr(1)), 4000);
    }

    #[test]
    fn debug_is_nonempty() {
        let p = DramPool::new(8);
        assert!(format!("{p:?}").contains("DramPool"));
    }
}
