//! The persistent multi-word CAS protocol.

use std::fmt;
use std::sync::Arc;

use dss_pmem::{tag, Ebr, Memory, NodePool, PAddr, PmemPool};

/// Maximum shared (reserved via CAS) words per PMwCAS.
pub const MAX_SHARED: usize = 3;
/// Maximum private (written at commit) words per PMwCAS.
pub const MAX_PRIVATE: usize = 2;

// Descriptor layout (16 words = 2 cache lines).
const D_STATUS: u64 = 0;
const D_NSHARED: u64 = 1;
const D_NPRIVATE: u64 = 2;
const D_SHARED: u64 = 3; // 3 entries × (addr, expected, new)
const D_PRIVATE: u64 = 12; // 2 entries × (addr, value)
const DESC_WORDS: u64 = 16;

const ST_FREE: u64 = 0;
const ST_UNDECIDED: u64 = 1;
const ST_SUCCEEDED: u64 = 2;
const ST_FAILED: u64 = 3;

/// A region of a [`PmemPool`] managing PMwCAS descriptors, plus the
/// operations over arbitrary words of that pool.
///
/// The arena does not own the pool: data structures lay out their words as
/// usual and route multi-word updates through
/// [`pmwcas`](PmwcasArena::pmwcas) and reads of contended words through
/// [`read`](PmwcasArena::read) (which resolves descriptor pointers by
/// helping).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use dss_pmem::{PmemPool, PAddr};
/// use dss_pmwcas::PmwcasArena;
///
/// let pool = Arc::new(PmemPool::with_capacity(1024));
/// // Descriptors live in [512, 1024); 2 threads, 8 descriptors each.
/// let arena = PmwcasArena::new(Arc::clone(&pool), PAddr::from_index(512), 8, 2);
/// let a = PAddr::from_index(1);
/// let b = PAddr::from_index(9);
/// assert!(arena.pmwcas(0, &[(a, 0, 5), (b, 0, 6)], &[]));
/// assert_eq!(arena.read(0, a), 5);
/// assert_eq!(arena.read(0, b), 6);
/// assert!(!arena.pmwcas(1, &[(a, 0, 7), (b, 6, 8)], &[]), "a is 5, not 0");
/// assert_eq!(arena.read(1, b), 6, "failed PMwCAS rolls back completely");
/// ```
pub struct PmwcasArena<M: Memory = PmemPool> {
    pool: Arc<M>,
    descs: NodePool,
    ebr: Ebr,
}

impl PmwcasArena {
    /// Words needed for a descriptor region (pool-sizing helper;
    /// backend-independent).
    pub fn region_words(descs_per_thread: u64, nthreads: usize) -> u64 {
        descs_per_thread * nthreads as u64 * DESC_WORDS
    }
}

impl<M: Memory> PmwcasArena<M> {
    /// Creates an arena whose descriptors occupy
    /// `descs_per_thread * nthreads * 16` words starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if the region is empty or `base` is not 16-word aligned
    /// (descriptors must not straddle flush lines unpredictably).
    pub fn new(pool: Arc<M>, base: PAddr, descs_per_thread: u64, nthreads: usize) -> Self {
        assert_eq!(base.index() % DESC_WORDS, 0, "descriptor region must be 16-word aligned");
        let descs = NodePool::new(base, DESC_WORDS, descs_per_thread, nthreads);
        PmwcasArena { pool, descs, ebr: Ebr::new(nthreads) }
    }

    fn alloc_desc(&self, tid: usize) -> PAddr {
        // Reclaim eagerly rather than only on exhaustion: a just-released
        // descriptor's status flush is usually still write-pending, so
        // prompt LIFO reuse lets the next initialization flush coalesce
        // into it instead of writing the line back twice.
        for a in self.ebr.collect_all(tid) {
            self.descs.free(tid, a);
        }
        if let Some(a) = self.descs.alloc(tid) {
            return a;
        }
        // Reclamation needs every pinned thread to pass through an
        // unpinned state; with oversubscribed cores a pinned thread can be
        // descheduled for a whole quantum, so escalate from yields to
        // short sleeps before declaring exhaustion.
        for attempt in 0..512 {
            for a in self.ebr.collect_all(tid) {
                self.descs.free(tid, a);
            }
            if let Some(a) = self.descs.alloc(tid) {
                return a;
            }
            if attempt < 64 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }
        panic!("PMwCAS descriptor pool exhausted (size it for the workload)");
    }

    fn flush_desc(&self, desc: PAddr) {
        // Two cache lines under line granularity; the fields that matter
        // individually (status) are flushed separately by the protocol.
        self.pool.flush(desc);
        self.pool.flush(desc.offset(8));
    }

    /// Atomically compare-and-swaps up to [`MAX_SHARED`] `(addr, expected,
    /// new)` shared words and, on success, writes up to [`MAX_PRIVATE`]
    /// `(addr, value)` private words — all persisted, all-or-nothing
    /// across crashes.
    ///
    /// Private words are the Fast-variant optimization: they are owned by
    /// the calling thread (no concurrent writer), so they skip the
    /// descriptor-reservation CAS and are simply stored at commit.
    ///
    /// Returns `true` if the operation committed. On `false`, no shared or
    /// private word changed.
    ///
    /// # Panics
    ///
    /// Panics if entry limits are exceeded, `shared` is empty, or any new
    /// value collides with the descriptor tag bits.
    pub fn pmwcas(
        &self,
        tid: usize,
        shared: &[(PAddr, u64, u64)],
        private: &[(PAddr, u64)],
    ) -> bool {
        assert!(!shared.is_empty(), "PMwCAS needs at least one shared word");
        assert!(shared.len() <= MAX_SHARED, "too many shared entries");
        assert!(private.len() <= MAX_PRIVATE, "too many private entries");
        for (_, e, n) in shared {
            assert_eq!(e & tag::PMWCAS_DESC, 0, "value collides with the descriptor tag");
            assert_eq!(n & tag::PMWCAS_DESC, 0, "value collides with the descriptor tag");
        }
        // Allocate and initialize before pinning: a pinned thread blocks
        // epoch advancement, which descriptor reclamation depends on.
        let desc = self.alloc_desc(tid);

        // Initialize the descriptor, install order sorted by address so
        // concurrent PMwCAS operations cannot deadlock-livelock each other.
        let mut entries: Vec<(PAddr, u64, u64)> = shared.to_vec();
        entries.sort_by_key(|(a, _, _)| a.index());
        self.pool.store(desc.offset(D_NSHARED), entries.len() as u64);
        self.pool.store(desc.offset(D_NPRIVATE), private.len() as u64);
        for (i, (a, e, n)) in entries.iter().enumerate() {
            let base = desc.offset(D_SHARED + 3 * i as u64);
            self.pool.store(base, a.to_word());
            self.pool.store(base.offset(1), *e);
            self.pool.store(base.offset(2), *n);
        }
        for (j, (a, v)) in private.iter().enumerate() {
            let base = desc.offset(D_PRIVATE + 2 * j as u64);
            self.pool.store(base, a.to_word());
            self.pool.store(base.offset(1), *v);
        }
        self.pool.store(desc.offset(D_STATUS), ST_UNDECIDED);
        self.flush_desc(desc);
        // The descriptor must be persistent before any shared word can
        // point at it: recovery interprets a persisted descriptor pointer
        // through the descriptor's persisted contents.
        self.pool.drain_lines(&[desc, desc.offset(8)]);

        let _g = self.ebr.pin(tid);
        let ok = self.install_and_decide(desc);
        self.finalize(desc, true);

        // Release the descriptor: recovery must no longer consider it.
        self.pool.store(desc.offset(D_STATUS), ST_FREE);
        self.pool.flush(desc.offset(D_STATUS));
        self.ebr.retire(tid, desc);
        ok
    }

    /// Phase 1: reserve every shared word with a descriptor pointer, then
    /// decide the status. Runs identically for the owner and for helpers.
    fn install_and_decide(&self, desc: PAddr) -> bool {
        let n = self.pool.load(desc.offset(D_NSHARED));
        let desc_ptr = tag::set(desc.to_word(), tag::PMWCAS_DESC);
        let mut reserved = [PAddr::NULL; MAX_SHARED];
        let mut nreserved = 0;
        'entries: for i in 0..n {
            let base = desc.offset(D_SHARED + 3 * i);
            let addr = PAddr::from_word(self.pool.load(base));
            let expected = self.pool.load(base.offset(1));
            loop {
                if self.pool.load(desc.offset(D_STATUS)) != ST_UNDECIDED {
                    break 'entries; // someone already decided
                }
                match self.pool.cas(addr, expected, desc_ptr) {
                    Ok(_) => {
                        // Re-validate: without RDCSS a helper can install
                        // into a descriptor that was *just* decided and
                        // finalized — nobody would ever clean that pointer
                        // up. Settle it as finalize would and stop. A
                        // SUCCEEDED verdict counted this very reservation
                        // (every entry was reserved, and this word held
                        // `expected` until now), so it rolls forward:
                        // rolling it back would undo one word of a
                        // committed operation, e.g. unlink a node the
                        // operation's tail swing already published.
                        let status = self.pool.load(desc.offset(D_STATUS));
                        if status != ST_UNDECIDED {
                            let target = if status == ST_SUCCEEDED {
                                self.pool.load(base.offset(2))
                            } else {
                                expected
                            };
                            if self.pool.cas(addr, desc_ptr, target).is_ok() {
                                self.pool.flush(addr);
                                self.pool.drain_line(addr);
                            }
                            break 'entries;
                        }
                        self.pool.flush(addr);
                        reserved[nreserved] = addr;
                        nreserved += 1;
                        continue 'entries;
                    }
                    Err(cur) if cur == desc_ptr => continue 'entries, // a helper did it
                    Err(cur) if tag::has(cur, tag::PMWCAS_DESC) => {
                        // Another operation holds the word: help it finish,
                        // then retry ours.
                        let other = tag::addr_of(cur);
                        self.help(other);
                        continue;
                    }
                    Err(_) => {
                        // Genuine value mismatch.
                        let _ = self.pool.cas(desc.offset(D_STATUS), ST_UNDECIDED, ST_FAILED);
                        self.pool.flush(desc.offset(D_STATUS));
                        break 'entries;
                    }
                }
            }
        }
        // Every reservation this thread flushed must be persistent before
        // the success decision can be: recovery rolls a SUCCEEDED
        // descriptor forward only through persisted descriptor pointers.
        self.pool.drain_lines(&reserved[..nreserved]);
        let _ = self.pool.cas(desc.offset(D_STATUS), ST_UNDECIDED, ST_SUCCEEDED);
        self.pool.flush(desc.offset(D_STATUS));
        self.pool.load(desc.offset(D_STATUS)) == ST_SUCCEEDED
    }

    /// Phase 2: replace descriptor pointers by final values (roll forward
    /// on success, back on failure) and, on success, write the private
    /// words. Idempotent.
    ///
    /// `write_privates` is true only for the owner and for post-crash
    /// recovery: a *helper* must never store private words, because a
    /// stale helper could otherwise overwrite a value the owner wrote in a
    /// later operation (private words have no descriptor reservation to
    /// make the write conditional). The owner always finalizes before
    /// returning, and after a crash the single-threaded recovery does, so
    /// nothing is lost.
    fn finalize(&self, desc: PAddr, write_privates: bool) {
        // The decision must be persistent before any word is finalized:
        // recovery rolls forward or back by the *persisted* status, so a
        // final value must never outlive the verdict that justifies it.
        self.pool.drain_line(desc.offset(D_STATUS));
        let status = self.pool.load(desc.offset(D_STATUS));
        let succeeded = status == ST_SUCCEEDED;
        let desc_ptr = tag::set(desc.to_word(), tag::PMWCAS_DESC);
        let n = self.pool.load(desc.offset(D_NSHARED));
        let mut written = [PAddr::NULL; MAX_SHARED + MAX_PRIVATE];
        let mut nwritten = 0;
        for i in 0..n {
            let base = desc.offset(D_SHARED + 3 * i);
            let addr = PAddr::from_word(self.pool.load(base));
            let expected = self.pool.load(base.offset(1));
            let new = self.pool.load(base.offset(2));
            let target = if succeeded { new } else { expected };
            if self.pool.cas(addr, desc_ptr, target).is_ok() {
                self.pool.flush(addr);
                written[nwritten] = addr;
                nwritten += 1;
            }
        }
        if succeeded && write_privates {
            let m = self.pool.load(desc.offset(D_NPRIVATE));
            for j in 0..m {
                let base = desc.offset(D_PRIVATE + 2 * j);
                let addr = PAddr::from_word(self.pool.load(base));
                let val = self.pool.load(base.offset(1));
                self.pool.store(addr, val);
                self.pool.flush(addr);
                written[nwritten] = addr;
                nwritten += 1;
            }
        }
        // Finalized words must be persistent before the descriptor can be
        // released: a persisted FREE status over a surviving descriptor
        // pointer would strand that pointer forever.
        self.pool.drain_lines(&written[..nwritten]);
    }

    fn help(&self, desc: PAddr) {
        if self.pool.load(desc.offset(D_STATUS)) == ST_UNDECIDED {
            let _ = self.install_and_decide(desc);
        }
        if self.pool.load(desc.offset(D_STATUS)) != ST_FREE {
            self.finalize(desc, false);
        }
    }

    /// Reads a word, resolving (by helping) any descriptor currently
    /// reserving it.
    pub fn read(&self, tid: usize, addr: PAddr) -> u64 {
        let _g = self.ebr.pin(tid);
        loop {
            let v = self.pool.load(addr);
            if !tag::has(v, tag::PMWCAS_DESC) {
                return v;
            }
            self.help(tag::addr_of(v));
        }
    }

    /// Post-crash recovery: every descriptor still marked in-flight is
    /// rolled forward (`SUCCEEDED`) or back (`UNDECIDED`/`FAILED` — an
    /// undecided operation never took effect), then released.
    ///
    /// Run before any thread resumes operations on structures using this
    /// arena. Idempotent.
    pub fn recover(&self) {
        for i in 0..self.descs.total_nodes() {
            let desc = PAddr::from_index(self.descs.base().index() + i * DESC_WORDS);
            let status = self.pool.load(desc.offset(D_STATUS));
            if status == ST_FREE {
                continue;
            }
            if status == ST_UNDECIDED {
                // Crash interrupted the decision: the operation fails.
                self.pool.store(desc.offset(D_STATUS), ST_FAILED);
                self.pool.flush(desc.offset(D_STATUS));
            }
            self.finalize(desc, true);
            self.pool.store(desc.offset(D_STATUS), ST_FREE);
            self.pool.flush(desc.offset(D_STATUS));
        }
        // Volatile allocator state is gone; all descriptors are now free.
        self.ebr.reset();
        self.descs.rebuild(&self.descs.node_set());
    }
}

impl<M: Memory> fmt::Debug for PmwcasArena<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PmwcasArena")
            .field("descriptors", &self.descs.total_nodes())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_pmem::{CrashSignal, WritebackAdversary};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn setup(nthreads: usize) -> (Arc<PmemPool>, PmwcasArena) {
        let region = PmwcasArena::region_words(8, nthreads);
        let pool = Arc::new(PmemPool::with_capacity((64 + region) as usize));
        let arena = PmwcasArena::new(Arc::clone(&pool), PAddr::from_index(64), 8, nthreads);
        (pool, arena)
    }

    fn a(i: u64) -> PAddr {
        PAddr::from_index(i)
    }

    #[test]
    fn two_word_swap_commits_atomically() {
        let (pool, arena) = setup(1);
        assert!(arena.pmwcas(0, &[(a(1), 0, 10), (a(9), 0, 20)], &[]));
        assert_eq!(pool.peek(a(1)), 10);
        assert_eq!(pool.peek(a(9)), 20);
        // And it persisted.
        pool.crash(&WritebackAdversary::None);
        assert_eq!(pool.peek(a(1)), 10);
        assert_eq!(pool.peek(a(9)), 20);
    }

    #[test]
    fn mismatch_rolls_back_installed_words() {
        let (pool, arena) = setup(1);
        pool.store(a(9), 99);
        pool.flush(a(9));
        // First word matches (would install), second does not.
        assert!(!arena.pmwcas(0, &[(a(1), 0, 10), (a(9), 0, 20)], &[]));
        assert_eq!(arena.read(0, a(1)), 0, "rolled back");
        assert_eq!(arena.read(0, a(9)), 99);
    }

    #[test]
    fn private_words_written_only_on_success() {
        let (pool, arena) = setup(1);
        assert!(arena.pmwcas(0, &[(a(1), 0, 1)], &[(a(17), 42)]));
        assert_eq!(pool.peek(a(17)), 42);
        assert_eq!(pool.persisted_value(a(17)), 42);
        assert!(!arena.pmwcas(0, &[(a(1), 0, 1)], &[(a(17), 77)]));
        assert_eq!(pool.peek(a(17)), 42, "failure leaves privates alone");
    }

    #[test]
    fn crash_mid_pmwcas_rolls_back_undecided() {
        for k in 1..80 {
            let (pool, arena) = setup(1);
            pool.arm_crash_after(k);
            let r = catch_unwind(AssertUnwindSafe(|| {
                arena.pmwcas(0, &[(a(1), 0, 10), (a(9), 0, 20)], &[(a(17), 5)])
            }));
            pool.disarm_crash();
            let crashed = match r {
                Ok(_) => false,
                Err(p) if p.downcast_ref::<CrashSignal>().is_some() => true,
                Err(p) => std::panic::resume_unwind(p),
            };
            if !crashed {
                break;
            }
            pool.crash(&WritebackAdversary::None);
            arena.recover();
            let (v1, v9, v17) = (pool.peek(a(1)), pool.peek(a(9)), pool.peek(a(17)));
            // All-or-nothing across every crash point:
            assert!(
                (v1, v9, v17) == (0, 0, 0) || (v1, v9, v17) == (10, 20, 5),
                "k={k}: torn PMwCAS state ({v1}, {v9}, {v17})"
            );
        }
    }

    #[test]
    fn crash_mid_pmwcas_with_writeback_adversary() {
        for k in 1..80 {
            let (pool, arena) = setup(1);
            pool.arm_crash_after(k);
            let r = catch_unwind(AssertUnwindSafe(|| {
                arena.pmwcas(0, &[(a(1), 0, 10), (a(9), 0, 20)], &[])
            }));
            pool.disarm_crash();
            if r.is_ok() {
                break;
            }
            pool.crash(&WritebackAdversary::All);
            arena.recover();
            let (v1, v9) = (pool.peek(a(1)), pool.peek(a(9)));
            assert!(
                (v1, v9) == (0, 0) || (v1, v9) == (10, 20),
                "k={k}: torn PMwCAS state ({v1}, {v9})"
            );
        }
    }

    #[test]
    fn concurrent_pmwcas_transfers_conserve_sum() {
        // Classic bank-transfer test: move 1 between two accounts under
        // contention; the sum is invariant and no update is ever torn.
        use std::sync::Arc as StdArc;
        let (pool, arena) = setup(4);
        pool.store(a(1), 1000);
        pool.store(a(9), 1000);
        pool.flush(a(1));
        pool.flush(a(9));
        let arena = StdArc::new(arena);
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let arena = StdArc::clone(&arena);
                std::thread::spawn(move || {
                    let mut done = 0;
                    while done < 100 {
                        let x = arena.read(tid, a(1));
                        let y = arena.read(tid, a(9));
                        let (nx, ny) = if tid % 2 == 0 { (x - 1, y + 1) } else { (x + 1, y - 1) };
                        if arena.pmwcas(tid, &[(a(1), x, nx), (a(9), y, ny)], &[]) {
                            done += 1;
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(arena.read(0, a(1)) + arena.read(0, a(9)), 2000);
    }

    #[test]
    #[should_panic(expected = "at least one shared")]
    fn empty_shared_rejected() {
        let (_pool, arena) = setup(1);
        arena.pmwcas(0, &[], &[(a(17), 1)]);
    }

    #[test]
    fn recover_is_idempotent() {
        let (pool, arena) = setup(1);
        assert!(arena.pmwcas(0, &[(a(1), 0, 3)], &[]));
        pool.crash(&WritebackAdversary::None);
        arena.recover();
        arena.recover();
        assert_eq!(pool.peek(a(1)), 3);
    }
}
