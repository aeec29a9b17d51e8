//! Fixed-size node allocation with per-thread pools.
//!
//! The paper's evaluation pre-allocates "a fixed size pool of queue nodes at
//! initialization" per thread. [`NodePool`] manages a contiguous region of a
//! [`PmemPool`](crate::PmemPool) as an array of equal-sized nodes, with one
//! free list per thread (work-stealing when a thread's own list runs dry).
//!
//! The allocator's metadata (the free lists) is deliberately **volatile** —
//! it lives in ordinary Rust memory and is lost at a crash, just like a real
//! in-DRAM allocator. After a crash, recovery code collects the *live*
//! nodes (reachable from the data structure or referenced by detectability
//! state) into a [`NodeSet`] — one bit per node of the region — and calls
//! [`NodePool::rebuild`], which is how the paper's recovery procedure is
//! "extended straightforwardly to prevent memory leaks" (§4).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::time::{Duration, Instant};

use crate::sync::{CachePadded, Mutex};

use crate::{Ebr, PAddr};

/// The longest an allocator waits, in total, for threads pinned behind the
/// epoch before it counts its reclamation rounds again.
const STALL_BUDGET: Duration = Duration::from_secs(1);

/// A region of persistent memory carved into fixed-size nodes, with
/// per-thread free lists.
///
/// # Examples
///
/// ```
/// use dss_pmem::{NodePool, PAddr};
///
/// // 2 threads, 4 nodes each, 4 words per node, region starting at word 10.
/// let pool = NodePool::new(PAddr::from_index(10), 4, 4, 2);
/// assert_eq!(pool.region_words(), 2 * 4 * 4);
/// let n = pool.alloc(0).expect("fresh pool has free nodes");
/// assert!(pool.contains(n));
/// pool.free(0, n);
/// ```
#[derive(Debug)]
pub struct NodePool {
    region: Region,
    /// One list per thread, padded: every allocation locks its own.
    free: Box<[CachePadded<Mutex<Vec<PAddr>>>]>,
    /// Reclamation rounds in flight: each has drained nodes out of the
    /// epochs that no free list holds yet.
    reclaiming: AtomicUsize,
}

/// Marks one reclamation round in flight for as long as it lives, unwinds
/// included.
struct Reclaiming<'a>(&'a AtomicUsize);

impl<'a> Reclaiming<'a> {
    fn start(rounds: &'a AtomicUsize) -> Self {
        rounds.fetch_add(1, SeqCst);
        Reclaiming(rounds)
    }
}

impl Drop for Reclaiming<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, SeqCst);
    }
}

/// The geometry of a node region: `total_nodes` nodes of `1 << shift`
/// words each, the first at word `base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Region {
    base: u64,
    shift: u32,
    total_nodes: u64,
}

impl Region {
    /// Words per node.
    fn node_words(&self) -> u64 {
        1 << self.shift
    }

    /// The index of the node whose base address is `addr`, or `None` if
    /// `addr` is not a node base address of this region. Recovery asks
    /// this twice per list node, so the power-of-two node size pays a
    /// shift and a mask here instead of a division and a remainder.
    #[inline]
    fn node_index(&self, addr: PAddr) -> Option<u64> {
        let off = addr.index().checked_sub(self.base)?;
        let i = off >> self.shift;
        (off & (self.node_words() - 1) == 0 && i < self.total_nodes).then_some(i)
    }

    /// The base address of node `i`.
    fn node_addr(&self, i: u64) -> PAddr {
        PAddr::from_index(self.base + (i << self.shift))
    }
}

/// A set of nodes of one [`NodePool`] region, one bit per node: the live
/// set recovery hands to [`NodePool::rebuild`], and the reachable set it
/// tests detectability words against. Build one with
/// [`NodePool::node_set`].
///
/// Addresses that are not node base addresses of the region — NULL,
/// sentinels outside the region, mid-node addresses — are never members:
/// [`insert`](Self::insert) ignores them, so callers can pass
/// detectability words' pointers through unfiltered.
///
/// # Examples
///
/// ```
/// use dss_pmem::{NodePool, PAddr};
///
/// let pool = NodePool::new(PAddr::from_index(10), 4, 4, 2);
/// let mut live = pool.node_set();
/// assert!(live.insert(PAddr::from_index(14)));
/// assert!(!live.insert(PAddr::from_index(14)), "already a member");
/// assert!(!live.insert(PAddr::from_index(11)), "mid-node: ignored");
/// pool.rebuild(&live);
/// assert_eq!(pool.free_count(), 7);
/// ```
#[derive(Debug)]
pub struct NodeSet {
    region: Region,
    bits: Vec<u64>,
}

impl NodeSet {
    /// Adds `addr`. Returns `true` if it was a node of the region not yet
    /// in the set, `false` if it was already a member or is not a node
    /// base address of the region (and so is ignored).
    #[inline]
    pub fn insert(&mut self, addr: PAddr) -> bool {
        let Some(i) = self.region.node_index(addr) else {
            return false;
        };
        let (word, bit) = (&mut self.bits[(i / 64) as usize], 1 << (i % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Returns `true` if `addr` is a node of the region in the set.
    #[inline]
    pub fn contains(&self, addr: PAddr) -> bool {
        self.region.node_index(addr).is_some_and(|i| self.has(i))
    }

    /// Whether node `i` of the region is in the set.
    #[inline]
    fn has(&self, i: u64) -> bool {
        self.bits[(i / 64) as usize] & (1 << (i % 64)) != 0
    }
}

impl Extend<PAddr> for NodeSet {
    fn extend<I: IntoIterator<Item = PAddr>>(&mut self, addrs: I) {
        for a in addrs {
            self.insert(a);
        }
    }
}

impl NodePool {
    /// Creates a pool of `nodes_per_thread * nthreads` nodes of
    /// `node_words` words each, starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `node_words` is not a power of two, if `nodes_per_thread`
    /// or `nthreads` is zero, or if `base` is NULL.
    pub fn new(base: PAddr, node_words: u64, nodes_per_thread: u64, nthreads: usize) -> Self {
        assert!(node_words.is_power_of_two(), "node size must be a power of two words");
        assert!(nodes_per_thread > 0, "each thread needs at least one node");
        assert!(nthreads > 0, "need at least one thread");
        assert!(!base.is_null(), "node region cannot start at NULL");
        let total_nodes = nodes_per_thread * nthreads as u64;
        let region = Region { base: base.index(), shift: node_words.trailing_zeros(), total_nodes };
        let free: Box<[CachePadded<Mutex<Vec<PAddr>>>]> = (0..nthreads)
            .map(|t| {
                let t = t as u64;
                CachePadded(Mutex::new(
                    (t * nodes_per_thread..(t + 1) * nodes_per_thread)
                        .map(|i| region.node_addr(i))
                        .collect(),
                ))
            })
            .collect();
        NodePool { region, free, reclaiming: AtomicUsize::new(0) }
    }

    /// Total words spanned by the node region (for pool sizing).
    pub fn region_words(&self) -> u64 {
        self.region.total_nodes << self.region.shift
    }

    /// First word of the region.
    pub fn base(&self) -> PAddr {
        PAddr::from_index(self.region.base)
    }

    /// Words per node.
    pub fn node_words(&self) -> u64 {
        self.region.node_words()
    }

    /// Total number of nodes (free and allocated).
    pub fn total_nodes(&self) -> u64 {
        self.region.total_nodes
    }

    /// Returns `true` if `addr` is the base address of a node in this
    /// region.
    pub fn contains(&self, addr: PAddr) -> bool {
        self.region.node_index(addr).is_some()
    }

    /// An empty [`NodeSet`] over this region.
    pub fn node_set(&self) -> NodeSet {
        NodeSet {
            region: self.region,
            bits: vec![0; self.region.total_nodes.div_ceil(64) as usize],
        }
    }

    /// Allocates a node for thread `tid`, stealing from other threads'
    /// free lists if its own is empty. Returns `None` when the region is
    /// exhausted.
    ///
    /// The node's contents are whatever its previous use left behind;
    /// callers initialize (and flush) fields themselves, as the paper's
    /// `new Node(val)` does.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn alloc(&self, tid: usize) -> Option<PAddr> {
        if let Some(a) = self.free[tid].lock().pop() {
            return Some(a);
        }
        for (t, list) in self.free.iter().enumerate() {
            if t != tid {
                if let Some(a) = list.lock().pop() {
                    return Some(a);
                }
            }
        }
        None
    }

    /// Allocates a node for thread `tid`, retrying through epoch-based
    /// reclamation when the free lists run dry: collect every node `ebr`
    /// has quiesced, return it to the free lists, and try again, yielding
    /// between rounds (another thread may hold the missing nodes pinned
    /// until it passes through an unpinned state). While another thread is
    /// pinned behind the epoch — on a loaded host, usually descheduled
    /// mid-operation — the allocator sleeps instead of spending rounds,
    /// and while another thread's round holds the nodes it drained out of
    /// the epochs, it yields instead; for up to a second in all. Returns `None` after the retry budget
    /// is exhausted — the region is genuinely over-committed.
    ///
    /// This is the one retry-through-EBR dance every structure in the
    /// workspace shares; callers map `None` onto their own full-pool error.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn alloc_with_reclaim(&self, tid: usize, ebr: &Ebr) -> Option<PAddr> {
        self.alloc_with_reclaim_guarded(tid, ebr, Vec::new)
    }

    /// [`alloc_with_reclaim`](Self::alloc_with_reclaim) with a
    /// detectability guard: `protected` returns the nodes that must not be
    /// recycled yet even though the epochs have quiesced them — typically
    /// the nodes a structure's per-thread detectability words still
    /// reference, which `resolve` may dereference arbitrarily long after
    /// the operation completed (the crash-free counterpart of the liveness
    /// rule recovery's allocator rebuild applies). Protected nodes are
    /// re-retired and become reclaimable once no longer protected.
    ///
    /// `protected` is consulted once per reclamation round, *after* the
    /// epoch check has quiesced the candidates: any thread that could
    /// still publish a reference to a candidate was pinned when the
    /// candidate was retired, so its announcement store precedes the epoch
    /// advance that released the candidate, and a post-collect read
    /// observes it. If `protected` unwinds — a simulated crash of the
    /// calling thread while it reads detectability words — the candidates
    /// go back to `ebr`'s limbo before the unwind resumes, so the threads
    /// that live on can still reclaim them.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn alloc_with_reclaim_guarded<F: FnMut() -> Vec<PAddr>>(
        &self,
        tid: usize,
        ebr: &Ebr,
        mut protected: F,
    ) -> Option<PAddr> {
        if let Some(a) = self.alloc(tid) {
            return Some(a);
        }
        let deadline = Instant::now() + STALL_BUDGET;
        let mut rounds = 0;
        while rounds < 64 {
            let round = Reclaiming::start(&self.reclaiming);
            let collected = ebr.collect_all(tid);
            if !collected.is_empty() {
                let guard = match catch_unwind(AssertUnwindSafe(&mut protected)) {
                    Ok(guard) => guard,
                    Err(crash) => {
                        for a in collected {
                            ebr.retire(tid, a);
                        }
                        resume_unwind(crash);
                    }
                };
                // A handful of nodes per thread: a linear scan beats hashing.
                for a in collected {
                    if guard.contains(&a) {
                        ebr.retire(tid, a);
                    } else {
                        self.free(tid, a);
                    }
                }
            }
            drop(round);
            if let Some(a) = self.alloc(tid) {
                return Some(a);
            }
            let stalled = Instant::now() < deadline;
            if stalled && self.reclaiming.load(SeqCst) > 0 {
                // Another round holds the nodes it drained until it frees
                // them, within microseconds unless it is descheduled.
                std::thread::yield_now();
            } else if stalled && ebr.held_back_by_other(tid) {
                std::thread::sleep(Duration::from_micros(50));
            } else {
                rounds += 1;
                std::thread::yield_now();
            }
        }
        None
    }

    /// Returns `addr` to thread `tid`'s free list.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a node base address of this region (double
    /// frees are *not* detected; use the type system or EBR discipline for
    /// that).
    pub fn free(&self, tid: usize, addr: PAddr) {
        assert!(self.contains(addr), "freeing {addr:?} which is not a node of this region");
        self.free[tid].lock().push(addr);
    }

    /// Number of currently free nodes (approximate under concurrency).
    pub fn free_count(&self) -> u64 {
        self.free.iter().map(|l| l.lock().len() as u64).sum()
    }

    /// Rebuilds the free lists after a crash: every node *not* in `live`
    /// becomes free, distributed round-robin over the per-thread lists in
    /// ascending node order (node `i` goes to thread `i % nthreads`).
    ///
    /// `live` is a [`NodeSet`] from this pool's
    /// [`node_set`](Self::node_set), which has already dropped every
    /// address that is not a node of this region (detectability words often
    /// hold tagged pointers to nodes plus sentinel values; callers insert
    /// them unfiltered).
    ///
    /// # Panics
    ///
    /// Panics if `live` was built over a different region.
    pub fn rebuild(&self, live: &NodeSet) {
        assert_eq!(live.region, self.region, "live set built over another node region");
        // Refill the lists in place, keeping their capacity. Only a rebuild
        // holds more than one list lock, always in ascending order.
        let mut lists: Vec<_> = self.free.iter().map(|l| l.lock()).collect();
        for list in &mut lists {
            list.clear();
        }
        let (n, total) = (lists.len() as u64, self.region.total_nodes);
        for (w, &bits) in live.bits.iter().enumerate() {
            let first = w as u64 * 64;
            // In the last word, the bits past the region's end name no node.
            let in_region = if total - first < 64 { (1 << (total - first)) - 1 } else { u64::MAX };
            let mut free = !bits & in_region;
            while free != 0 {
                let i = first + u64::from(free.trailing_zeros());
                lists[(i % n) as usize].push(self.region.node_addr(i));
                free &= free - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nodes at words 8, 12, 16 and 20; the region ends at 24.
    fn pool() -> NodePool {
        NodePool::new(PAddr::from_index(8), 4, 2, 2)
    }

    #[test]
    fn geometry() {
        let p = pool();
        assert_eq!(p.region_words(), 16);
        assert_eq!(p.total_nodes(), 4);
        assert_eq!(p.node_words(), 4);
        assert_eq!(p.base(), PAddr::from_index(8));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn new_rejects_a_node_size_that_is_not_a_power_of_two() {
        NodePool::new(PAddr::from_index(8), 3, 2, 2);
    }

    #[test]
    fn contains_only_node_bases() {
        let p = pool();
        assert!(p.contains(PAddr::from_index(8)));
        assert!(p.contains(PAddr::from_index(12)));
        assert!(p.contains(PAddr::from_index(20)));
        assert!(!p.contains(PAddr::from_index(9)), "mid-node address");
        assert!(!p.contains(PAddr::from_index(24)), "past the region");
        assert!(!p.contains(PAddr::from_index(7)), "before the region");
    }

    #[test]
    fn alloc_free_round_trip() {
        let p = pool();
        let a = p.alloc(0).unwrap();
        let b = p.alloc(0).unwrap();
        assert_ne!(a, b);
        p.free(0, a);
        p.free(0, b);
        assert_eq!(p.free_count(), 4);
    }

    #[test]
    fn alloc_steals_when_own_list_empty() {
        let p = pool();
        // Drain thread 0's two nodes, then two more must come from thread 1.
        let mut got = Vec::new();
        for _ in 0..4 {
            got.push(p.alloc(0).expect("steals from thread 1"));
        }
        assert_eq!(p.alloc(0), None, "region exhausted");
        assert_eq!(p.alloc(1), None);
        got.sort();
        got.dedup();
        assert_eq!(got.len(), 4, "no node handed out twice");
    }

    #[test]
    fn node_set_holds_only_node_bases_of_its_region() {
        // Nodes at words 8, 12, 16, 20.
        let p = pool();
        let mut set = p.node_set();
        let (first, last) = (PAddr::from_index(8), PAddr::from_index(20));
        for a in [first, last] {
            assert!(!set.contains(a));
            assert!(set.insert(a), "a fresh node is inserted");
            assert!(set.contains(a));
            assert!(!set.insert(a), "a duplicate insert reports no change");
        }
        for ignored in [
            PAddr::from_index(24), // one node past the region
            PAddr::from_index(9),  // mid-node
            PAddr::from_index(7),  // base - 1
            PAddr::NULL,
        ] {
            assert!(!set.insert(ignored), "{ignored:?} is not a node of the region");
            assert!(!set.contains(ignored));
        }
        assert!(!set.contains(PAddr::from_index(12)) && !set.contains(PAddr::from_index(16)));
    }

    #[test]
    fn rebuild_matches_a_hash_set_reference() {
        // 3 threads, 70 nodes each: the region spans several bitmap words
        // and ends inside one. 2 threads, 64 nodes each: it ends on a word
        // boundary.
        for (per_thread, n) in [(70, 3), (64, 2)] {
            let p = NodePool::new(PAddr::from_index(40), 4, per_thread, n);
            let total = p.total_nodes();
            let mut live = p.node_set();
            let mut reference = std::collections::HashSet::new();
            let mut x = 0x9e37_79b9_u64;
            for _ in 0..240 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Scattered node bases, plus mid-node and out-of-region words.
                let a = PAddr::from_index(38 + x % (4 * (total + 2)));
                live.insert(a);
                if p.contains(a) {
                    reference.insert(a);
                }
            }
            assert!(reference.len() > 30, "enough scattered live nodes");
            let mut expected = vec![Vec::new(); n];
            for i in 0..total {
                let a = PAddr::from_index(40 + i * 4);
                if !reference.contains(&a) {
                    expected[i as usize % n].push(a);
                }
            }
            // A second rebuild refills the lists the first one left.
            for _ in 0..2 {
                p.rebuild(&live);
                let lists: Vec<Vec<PAddr>> = p.free.iter().map(|l| l.lock().clone()).collect();
                assert_eq!(lists, expected);
            }
        }
    }

    #[test]
    #[should_panic(expected = "another node region")]
    fn rebuild_rejects_a_foreign_set() {
        pool().rebuild(&NodePool::new(PAddr::from_index(8), 4, 3, 2).node_set());
    }

    #[test]
    fn rebuild_frees_exactly_the_dead_nodes() {
        let p = pool();
        let live = PAddr::from_index(12);
        let mut set = p.node_set();
        set.extend([live, PAddr::from_index(9) /* ignored: not a base */]);
        p.rebuild(&set);
        assert_eq!(p.free_count(), 3);
        // The live node is never handed out again.
        let mut handed = Vec::new();
        while let Some(a) = p.alloc(0) {
            handed.push(a);
        }
        assert!(!handed.contains(&live));
        assert_eq!(handed.len(), 3);
    }

    #[test]
    fn reclaiming_alloc_waits_for_a_thread_pinned_behind_the_epoch() {
        // Both nodes retired while slot 1 is pinned: the epoch can advance
        // once but not twice until that thread unpins, as a descheduled
        // thread would 20 ms later.
        let p = NodePool::new(PAddr::from_index(8), 4, 1, 2);
        let ebr = Ebr::new(2);
        let held = ebr.pin(1);
        for _ in 0..2 {
            let n = p.alloc(0).unwrap();
            ebr.retire(0, n);
        }
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                drop(held);
            });
            assert!(p.alloc_with_reclaim(0, &ebr).is_some(), "the retirees come back");
        });
    }

    #[test]
    fn reclaiming_alloc_waits_for_a_thread_handing_back_what_it_reclaimed() {
        // Both nodes retired and unpinned. Slot 1's reclaim round drains
        // them both out of the epochs and is descheduled, here inside its
        // guard read, for 20 ms before it hands them to the free lists.
        // Slot 0 finds nothing free and nothing in limbo meanwhile; it
        // must wait for the round rather than give up.
        let p = NodePool::new(PAddr::from_index(8), 4, 1, 2);
        let ebr = Ebr::new(2);
        for _ in 0..2 {
            let n = p.alloc(0).unwrap();
            ebr.retire(0, n);
        }
        let (entered, in_guard) = std::sync::mpsc::channel();
        let got = std::thread::scope(|s| {
            let reclaimer = s.spawn(|| {
                p.alloc_with_reclaim_guarded(1, &ebr, || {
                    entered.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(20));
                    Vec::new()
                })
            });
            in_guard.recv().unwrap();
            let waiter = p.alloc_with_reclaim(0, &ebr);
            [reclaimer.join().unwrap(), waiter]
        });
        assert!(got.iter().all(Option::is_some), "both allocations succeed: {got:?}");
        assert_ne!(got[0], got[1]);
    }

    #[test]
    fn a_crash_while_reading_the_guard_hands_the_candidates_back() {
        // Both nodes retired; the allocator unwinds inside `protected`, as
        // a thread does whose guard read hits a simulated crash. Losing the
        // nodes it had collected would starve every thread that lives on.
        let p = NodePool::new(PAddr::from_index(8), 4, 1, 2);
        let ebr = Ebr::new(2);
        for _ in 0..2 {
            let n = p.alloc(0).unwrap();
            ebr.retire(0, n);
        }
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            p.alloc_with_reclaim_guarded(0, &ebr, || resume_unwind(Box::new("crash")))
        }));
        assert!(crashed.is_err());
        assert_eq!(ebr.limbo_len(), 2, "the candidates are back in limbo");
        assert!(p.alloc_with_reclaim(1, &ebr).is_some(), "a surviving thread reclaims them");
    }

    #[test]
    #[should_panic(expected = "not a node")]
    fn free_rejects_foreign_address() {
        pool().free(0, PAddr::from_index(100));
    }
}
