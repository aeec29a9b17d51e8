//! The General and Fast CASWithEffect detectable queues (paper Figure 5b).

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

use dss_pmem::{
    tag, AppKind, AttachError, Backoff, BackoffTuner, Ebr, FlushGranularity, Memory, NodePool,
    PAddr, PmemPool, Registry, SlotError, ThreadHandle, WORDS_PER_LINE,
};
use dss_spec::types::QueueResp;

use crate::PmwcasArena;

// Node: {value, next, deqTid, pad}. Unlike the DSS queue, `deqTid` uses 0
// for "unclaimed" and `tid + 1` for a claim — u64::MAX would collide with
// the PMwCAS descriptor tag bits.
const F_VALUE: u64 = 0;
const F_NEXT: u64 = 1;
const F_DEQ_TID: u64 = 2;
const NODE_WORDS: u64 = 4;

const UNCLAIMED: u64 = 0;

// Head, tail and each X[tid] slot on their own cache line.
const A_HEAD: u64 = WORDS_PER_LINE;
const A_TAIL: u64 = 2 * WORDS_PER_LINE;
const A_X_BASE: u64 = 3 * WORDS_PER_LINE;

// Each thread has at most one PMwCAS in flight, but helpers and EBR lag
// keep a few descriptors alive.
const DESCS_PER_THREAD: u64 = 128;

/// Superblock structure-kind word of a pool file holding a
/// [`CasWithEffectQueue`]. Both variants share the kind: whether the file
/// was created General or Fast is the third application-config word, and
/// [`attach`](CasWithEffectQueue::attach) reconstructs whichever variant
/// the file records.
pub const KIND_CWE_QUEUE: u64 = AppKind::CweQueue.word();

/// The CASWithEffect queue's pool layout, derived from
/// `(nthreads, nodes_per_thread)` alone — which is exactly why those
/// parameters in a pool file's superblock make the file self-describing.
/// (The `fast` flag changes protocol, not layout.)
struct CweLayout {
    sentinel: u64,
    node_region: u64,
    desc_region: u64,
    reg_base: u64,
    words: u64,
}

impl CweLayout {
    fn new(nthreads: usize, nodes_per_thread: u64) -> Self {
        assert!(nthreads > 0 && nodes_per_thread > 0);
        let x_end = A_X_BASE + nthreads as u64 * WORDS_PER_LINE;
        let sentinel = x_end.next_multiple_of(NODE_WORDS);
        let node_region = sentinel + NODE_WORDS;
        let node_words = nodes_per_thread * nthreads as u64 * NODE_WORDS;
        // Descriptor region, 16-word aligned.
        let desc_region = (node_region + node_words).next_multiple_of(16);
        let desc_end =
            desc_region + PmwcasArena::<PmemPool>::region_words(DESCS_PER_THREAD, nthreads);
        let reg_base = desc_end.next_multiple_of(WORDS_PER_LINE);
        let words = reg_base + Registry::<PmemPool>::region_words(nthreads);
        CweLayout { sentinel, node_region, desc_region, reg_base, words }
    }
}

/// Enqueue-side error: the node pool is exhausted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CweFull;

impl fmt::Display for CweFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CASWithEffect queue node pool exhausted")
    }
}

impl std::error::Error for CweFull {}

/// The operation reported by [`CasWithEffectQueue::resolve`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CweResolvedOp {
    /// The last prepared operation was `enqueue(value)`.
    Enqueue(u64),
    /// The last prepared operation was `dequeue()`.
    Dequeue,
}

/// The `(A[pᵢ], R[pᵢ])` answer of [`CasWithEffectQueue::resolve`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CweResolved {
    /// The most recently prepared operation, if any.
    pub op: Option<CweResolvedOp>,
    /// Its response, if it took effect.
    pub resp: Option<QueueResp>,
}

/// A detectable recoverable queue whose linked list **and** detectability
/// state are manipulated with PMwCAS (paper §4, Figure 5b).
///
/// Each enqueue is one PMwCAS over `{last.next, tail, X[tid]}`; each
/// non-empty dequeue is one PMwCAS over `{head, next.deqTid, X[tid]}` —
/// head and tail therefore never lag, recovery reduces to the arena's
/// descriptor roll-forward/roll-back, and the implementation is a fraction
/// of the DSS queue's size. The price is the descriptor protocol on every
/// operation, which is exactly the bottleneck Figure 5b shows.
///
/// The **General** variant routes `X[tid]` through the full protocol as a
/// shared word; the **Fast** variant declares it private (it is only ever
/// written by its owner and the single-threaded recovery), skipping one
/// reservation CAS and flush per operation — the paper measures this
/// optimization at up to 1.5×.
///
/// # Examples
///
/// ```
/// use dss_pmwcas::CasWithEffectQueue;
/// use dss_spec::types::QueueResp;
///
/// let q = CasWithEffectQueue::new_fast(2, 16);
/// let h0 = q.register_thread().unwrap();
/// let h1 = q.register_thread().unwrap();
/// q.prep_enqueue(h0, 7).unwrap();
/// q.exec_enqueue(h0);
/// q.prep_dequeue(h1);
/// assert_eq!(q.exec_dequeue(h1), QueueResp::Value(7));
/// assert_eq!(q.resolve(h1).resp, Some(QueueResp::Value(7)));
/// ```
pub struct CasWithEffectQueue<M: Memory = PmemPool> {
    pool: Arc<M>,
    arena: PmwcasArena<M>,
    nodes: NodePool,
    ebr: Ebr,
    nthreads: usize,
    fast: bool,
    backoff: AtomicBool,
    tuner: BackoffTuner,
    registry: Registry<M>,
}

impl CasWithEffectQueue {
    /// Creates the **General** variant (detectability word treated as a
    /// shared word of the PMwCAS) on a fresh [`PmemPool`].
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn new_general(nthreads: usize, nodes_per_thread: u64) -> Self {
        Self::new_general_in(nthreads, nodes_per_thread)
    }

    /// Creates the **Fast** variant (detectability word written as a
    /// private word at commit) on a fresh [`PmemPool`].
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn new_fast(nthreads: usize, nodes_per_thread: u64) -> Self {
        Self::new_fast_in(nthreads, nodes_per_thread)
    }

    /// Creates the **General** variant on a **file-backed** pool at `path`:
    /// the file records [`KIND_CWE_QUEUE`], `nthreads`, `nodes_per_thread`
    /// and the variant flag, so a fresh process rebuilds everything with
    /// [`attach`](Self::attach) from the path alone.
    ///
    /// # Errors
    ///
    /// [`AttachError::Io`] if the pool file cannot be created.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn create_general<P: AsRef<std::path::Path>>(
        path: P,
        nthreads: usize,
        nodes_per_thread: u64,
    ) -> Result<Self, AttachError> {
        Self::create(path, nthreads, nodes_per_thread, false)
    }

    /// Creates the **Fast** variant on a **file-backed** pool at `path`.
    ///
    /// # Errors
    ///
    /// [`AttachError::Io`] if the pool file cannot be created.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn create_fast<P: AsRef<std::path::Path>>(
        path: P,
        nthreads: usize,
        nodes_per_thread: u64,
    ) -> Result<Self, AttachError> {
        Self::create(path, nthreads, nodes_per_thread, true)
    }

    fn create<P: AsRef<std::path::Path>>(
        path: P,
        nthreads: usize,
        nodes_per_thread: u64,
        fast: bool,
    ) -> Result<Self, AttachError> {
        let layout = CweLayout::new(nthreads, nodes_per_thread);
        let pool =
            Arc::new(PmemPool::create(path, layout.words as usize, FlushGranularity::default())?);
        pool.set_app_config(KIND_CWE_QUEUE, &[nthreads as u64, nodes_per_thread, fast as u64]);
        let registry = Registry::create(Arc::clone(&pool), layout.reg_base, nthreads);
        let q = Self::assemble(pool, registry, &layout, nthreads, nodes_per_thread, fast);
        q.format(layout.sentinel);
        Ok(q)
    }

    /// Rebuilds a queue (of whichever variant the file records) from a pool
    /// file with no in-process state: the registry is re-bound, the node
    /// allocator is rebuilt from the persisted list, a fresh descriptor
    /// arena is bound over the persisted descriptor region, and fresh EBR
    /// domains replace the dead process's.
    ///
    /// Attaching is a crash boundary: follow with
    /// [`recover`](Self::recover) (the descriptor roll-forward/roll-back),
    /// then [`begin_recovery`](Self::begin_recovery) /
    /// [`adopt_orphans`](Self::adopt_orphans) and
    /// [`resolve`](Self::resolve) per adopted handle.
    ///
    /// # Errors
    ///
    /// Any [`AttachError`]: I/O or superblock validation failure, or
    /// [`AttachError::AppMismatch`] if the file holds a different
    /// structure.
    pub fn attach<P: AsRef<std::path::Path>>(path: P) -> Result<Self, AttachError> {
        let pool = Arc::new(PmemPool::attach(path)?);
        let found = pool.app_kind();
        if found != KIND_CWE_QUEUE {
            return Err(AttachError::AppMismatch { expected: KIND_CWE_QUEUE, found });
        }
        let [nthreads, nodes_per_thread, fast, ..] = pool.app_config();
        if nthreads == 0 || nodes_per_thread == 0 {
            return Err(AttachError::Corrupt("CASWithEffect queue parameter words are zero"));
        }
        let nthreads = nthreads as usize;
        let layout = CweLayout::new(nthreads, nodes_per_thread);
        if (pool.capacity() as u64) < layout.words {
            return Err(AttachError::Corrupt(
                "pool smaller than the CASWithEffect queue layout requires",
            ));
        }
        let registry = Registry::attach(Arc::clone(&pool), layout.reg_base)?;
        let q = Self::assemble(pool, registry, &layout, nthreads, nodes_per_thread, fast != 0);
        // Superset-safe before `recover`: reachability from the persisted
        // head only over-approximates the live set.
        q.rebuild_allocator();
        Ok(q)
    }
}

impl<M: Memory> CasWithEffectQueue<M> {
    /// Backend-generic constructor for the **General** variant
    /// ([`Memory::create`]).
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn new_general_in(nthreads: usize, nodes_per_thread: u64) -> Self {
        Self::build(nthreads, nodes_per_thread, false)
    }

    /// Backend-generic constructor for the **Fast** variant
    /// ([`Memory::create`]).
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn new_fast_in(nthreads: usize, nodes_per_thread: u64) -> Self {
        Self::build(nthreads, nodes_per_thread, true)
    }

    fn build(nthreads: usize, nodes_per_thread: u64, fast: bool) -> Self {
        let layout = CweLayout::new(nthreads, nodes_per_thread);
        let pool = Arc::new(M::create(layout.words as usize, FlushGranularity::default()));
        let registry = Registry::create(Arc::clone(&pool), layout.reg_base, nthreads);
        let q = Self::assemble(pool, registry, &layout, nthreads, nodes_per_thread, fast);
        q.format(layout.sentinel);
        q
    }

    /// The shared constructor tail: in-DRAM side tables (descriptor arena
    /// handle, node allocator, EBR domain, backoff tuner) over an existing
    /// pool + registry — everything `attach` must rebuild rather than map.
    fn assemble(
        pool: Arc<M>,
        registry: Registry<M>,
        layout: &CweLayout,
        nthreads: usize,
        nodes_per_thread: u64,
        fast: bool,
    ) -> Self {
        let arena = PmwcasArena::new(
            Arc::clone(&pool),
            PAddr::from_index(layout.desc_region),
            DESCS_PER_THREAD,
            nthreads,
        );
        let nodes = NodePool::new(
            PAddr::from_index(layout.node_region),
            NODE_WORDS,
            nodes_per_thread,
            nthreads,
        );
        CasWithEffectQueue {
            pool,
            arena,
            nodes,
            ebr: Ebr::new(nthreads),
            nthreads,
            fast,
            backoff: AtomicBool::new(false),
            tuner: BackoffTuner::new(),
            registry,
        }
    }

    /// Writes and persists the initial queue state (fresh pools only —
    /// never run on attach).
    fn format(&self, sentinel: u64) {
        let s = PAddr::from_index(sentinel);
        self.pool.store(s.offset(F_VALUE), 0);
        self.pool.store(s.offset(F_NEXT), 0);
        self.pool.store(s.offset(F_DEQ_TID), UNCLAIMED);
        self.pool.flush(s);
        self.pool.store(self.head(), s.to_word());
        self.pool.flush(self.head());
        self.pool.store(self.tail(), s.to_word());
        self.pool.flush(self.tail());
        for i in 0..self.nthreads {
            self.pool.store(self.x(i), 0);
            self.pool.flush(self.x(i));
        }
        self.pool.drain();
    }

    /// Enables or disables bounded exponential backoff after failed PMwCAS.
    /// Default off.
    pub fn set_backoff(&self, on: bool) {
        self.backoff.store(on, Relaxed);
    }

    fn new_backoff(&self) -> Backoff<'_> {
        Backoff::attached(self.backoff.load(Relaxed), &self.tuner)
    }

    fn head(&self) -> PAddr {
        PAddr::from_index(A_HEAD)
    }

    fn tail(&self) -> PAddr {
        PAddr::from_index(A_TAIL)
    }

    // Handles are valid by construction (the registry hands out only
    // in-range slots), so the index needs no range check.
    fn x(&self, tid: usize) -> PAddr {
        PAddr::from_index(A_X_BASE + tid as u64 * WORDS_PER_LINE)
    }

    /// The queue's pool.
    pub fn pool(&self) -> &Arc<M> {
        &self.pool
    }

    /// Number of threads the queue was built for.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Whether this is the Fast variant.
    pub fn is_fast(&self) -> bool {
        self.fast
    }

    /// The persistent slot registry governing thread identity. (The PMwCAS
    /// descriptor arena keeps using raw slot indices internally.)
    pub fn registry(&self) -> &Registry<M> {
        &self.registry
    }

    /// Claims a free slot and returns the [`ThreadHandle`] every operation
    /// requires. Fails with [`SlotError::Exhausted`] once all `nthreads`
    /// slots are taken.
    pub fn register_thread(&self) -> Result<ThreadHandle, SlotError> {
        let h = self.registry.acquire()?;
        self.ebr.adopt_slot(h.slot());
        Ok(h)
    }

    /// Returns a handle's slot to the free pool for reuse.
    pub fn release_thread(&self, h: ThreadHandle) -> Result<(), SlotError> {
        self.registry.release(h)
    }

    /// Marks the crash boundary in the registry: every slot LIVE at the
    /// crash becomes ORPHANED. [`recover`](Self::recover) stays a
    /// descriptor roll-forward (the queue's own pointers need no repair);
    /// this exists to let harnesses reclaim dead threads' slots via
    /// [`adopt`](Self::adopt) / [`adopt_orphans`](Self::adopt_orphans).
    pub fn begin_recovery(&self) {
        self.registry.begin_recovery();
    }

    /// Adopts one orphaned slot, inheriting its EBR state.
    pub fn adopt(&self, slot: usize) -> Result<ThreadHandle, SlotError> {
        let h = self.registry.adopt(slot)?;
        self.ebr.adopt_slot(slot);
        Ok(h)
    }

    /// Adopts every orphaned slot in ascending order.
    pub fn adopt_orphans(&self) -> Vec<ThreadHandle> {
        let hs = self.registry.adopt_orphans();
        for h in &hs {
            self.ebr.adopt_slot(h.slot());
        }
        hs
    }

    fn alloc(&self, tid: usize) -> Result<PAddr, CweFull> {
        self.nodes.alloc_with_reclaim(tid, &self.ebr).ok_or(CweFull)
    }

    /// One multi-word update covering the shared entries plus the `X[tid]`
    /// transition — as a shared word (General) or a private word (Fast).
    fn update(
        &self,
        tid: usize,
        shared: &[(PAddr, u64, u64)],
        x_expected: u64,
        x_new: u64,
    ) -> bool {
        // The announce in `X[tid]` must be persistent before the op can
        // take effect: the Fast variant never CASes X (it rewrites it as a
        // private word), so nothing downstream would write the prep flush
        // back before the commit.
        self.pool.drain_line(self.x(tid));
        if self.fast {
            self.arena.pmwcas(tid, shared, &[(self.x(tid), x_new)])
        } else {
            let mut all = shared.to_vec();
            all.push((self.x(tid), x_expected, x_new));
            self.arena.pmwcas(tid, &all, &[])
        }
    }

    /// **prep-enqueue(val)**: persists a fresh node and announces it in
    /// `X[tid]` (a plain store + flush; preparation is inherently
    /// single-threaded).
    ///
    /// # Errors
    ///
    /// Returns [`CweFull`] when the node pool is exhausted.
    pub fn prep_enqueue(&self, h: ThreadHandle, val: u64) -> Result<(), CweFull> {
        let tid = h.slot();
        let node = self.alloc(tid)?;
        self.pool.store(node.offset(F_VALUE), val);
        self.pool.store(node.offset(F_NEXT), 0);
        self.pool.store(node.offset(F_DEQ_TID), UNCLAIMED);
        self.pool.flush(node);
        // Ordering point: the announce must not persist ahead of the node
        // it names. Its own flush may stay pending — exec drains it before
        // the enqueue can take effect.
        self.pool.drain_line(node);
        self.pool.store(self.x(tid), tag::set(node.to_word(), tag::ENQ_PREP));
        self.pool.flush(self.x(tid));
        Ok(())
    }

    /// **exec-enqueue()**: a single PMwCAS links the node, swings the
    /// tail, and marks completion in `X[tid]` — atomically.
    ///
    /// Idempotent after completion: re-executing a completed enqueue (e.g.
    /// a retry loop that crashed before observing the return) is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if no enqueue is prepared.
    pub fn exec_enqueue(&self, h: ThreadHandle) {
        let tid = h.slot();
        let _g = self.ebr.pin(tid);
        let x = self.arena.read(tid, self.x(tid));
        assert!(tag::has(x, tag::ENQ_PREP), "exec-enqueue without a prepared enqueue");
        if tag::has(x, tag::ENQ_COMPL) {
            return; // already took effect
        }
        let node = tag::addr_of(x);
        let mut bo = self.new_backoff();
        loop {
            let last_w = self.arena.read(tid, self.tail());
            let last = tag::addr_of(last_w);
            let next_w = self.arena.read(tid, last.offset(F_NEXT));
            if !tag::addr_of(next_w).is_null() {
                bo.spin();
                continue; // stale tail snapshot; retry
            }
            if self.update(
                tid,
                &[(last.offset(F_NEXT), 0, node.to_word()), (self.tail(), last_w, node.to_word())],
                x,
                tag::set(x, tag::ENQ_COMPL),
            ) {
                // Every effect word was drained by the PMwCAS finalizer;
                // only the descriptor-release flush may stay pending, and
                // recovery re-finalizes an un-released descriptor.
                self.pool.drain_lines(&[]);
                return;
            }
            bo.spin();
        }
    }

    /// **prep-dequeue()**.
    pub fn prep_dequeue(&self, h: ThreadHandle) {
        let tid = h.slot();
        self.pool.store(self.x(tid), tag::DEQ_PREP);
        self.pool.flush(self.x(tid));
        // No drain: see prep_enqueue — exec fences before any effect.
    }

    /// **exec-dequeue()**: a single PMwCAS claims the node, advances the
    /// head, and records the predecessor in `X[tid]` — atomically.
    ///
    /// # Panics
    ///
    /// Panics if no dequeue is prepared.
    pub fn exec_dequeue(&self, h: ThreadHandle) -> QueueResp {
        let tid = h.slot();
        let _g = self.ebr.pin(tid);
        let x = self.arena.read(tid, self.x(tid));
        assert!(tag::has(x, tag::DEQ_PREP), "exec-dequeue without a prepared dequeue");
        let mut bo = self.new_backoff();
        loop {
            let first_w = self.arena.read(tid, self.head());
            let last_w = self.arena.read(tid, self.tail());
            let first = tag::addr_of(first_w);
            let next_w = self.arena.read(tid, first.offset(F_NEXT));
            let next = tag::addr_of(next_w);
            if self.arena.read(tid, self.head()) != first_w {
                bo.spin();
                continue;
            }
            if first_w == last_w {
                if next.is_null() {
                    // Empty queue: record EMPTY in the detectability word.
                    if self.fast {
                        // A purely private single-word update: a plain
                        // failure-atomic store + flush suffices.
                        self.pool.store(self.x(tid), tag::DEQ_PREP | tag::EMPTY);
                        self.pool.flush(self.x(tid));
                        // No descriptor exists for recovery to replay: the
                        // EMPTY verdict must be durable before the return.
                        self.pool.drain_line(self.x(tid));
                        return QueueResp::Empty;
                    }
                    if self.arena.pmwcas(tid, &[(self.x(tid), x, tag::DEQ_PREP | tag::EMPTY)], &[])
                    {
                        self.pool.drain_lines(&[]);
                        return QueueResp::Empty;
                    }
                }
                bo.spin();
                continue; // stale snapshot; retry
            }
            if self.update(
                tid,
                &[
                    (self.head(), first_w, next_w),
                    (next.offset(F_DEQ_TID), UNCLAIMED, tid as u64 + 1),
                ],
                x,
                tag::set(first.to_word(), tag::DEQ_PREP),
            ) {
                if self.nodes.contains(first) {
                    self.ebr.retire(tid, first);
                }
                let val = self.arena.read(tid, next.offset(F_VALUE));
                self.pool.drain_lines(&[]);
                return QueueResp::Value(val);
            }
            bo.spin();
        }
    }

    /// **resolve()**: the `(A[pᵢ], R[pᵢ])` pair, same case analysis as the
    /// DSS queue (§3), but with `ENQ_COMPL` guaranteed atomic with the
    /// link, so no recovery fix-up of `X` is ever needed.
    pub fn resolve(&self, h: ThreadHandle) -> CweResolved {
        let tid = h.slot();
        let x = self.arena.read(tid, self.x(tid));
        if tag::has(x, tag::ENQ_PREP) {
            let node = tag::addr_of(x);
            let value = self.pool.load(node.offset(F_VALUE));
            CweResolved {
                op: Some(CweResolvedOp::Enqueue(value)),
                resp: tag::has(x, tag::ENQ_COMPL).then_some(QueueResp::Ok),
            }
        } else if tag::has(x, tag::DEQ_PREP) {
            let ptr = tag::addr_of(x);
            let resp = if ptr.is_null() {
                tag::has(x, tag::EMPTY).then_some(QueueResp::Empty)
            } else {
                // The claim and the X update committed atomically, so a
                // predecessor pointer implies effect; the check is kept
                // defensive.
                let next = tag::addr_of(self.pool.load(ptr.offset(F_NEXT)));
                if !next.is_null() && self.pool.load(next.offset(F_DEQ_TID)) == tid as u64 + 1 {
                    Some(QueueResp::Value(self.pool.load(next.offset(F_VALUE))))
                } else {
                    None
                }
            };
            CweResolved { op: Some(CweResolvedOp::Dequeue), resp }
        } else {
            CweResolved { op: None, resp: None }
        }
    }

    /// Post-crash recovery: rolls PMwCAS descriptors (the queue's own
    /// pointers need no separate repair — every update was atomic).
    pub fn recover(&self) {
        self.arena.recover();
        self.pool.drain();
    }

    /// Rebuilds the volatile allocator after a crash.
    pub fn rebuild_allocator(&self) {
        let mut live = self.nodes.node_set();
        let mut cur = tag::addr_of(self.pool.load(self.head()));
        loop {
            live.insert(cur);
            let next = tag::addr_of(self.pool.load(cur.offset(F_NEXT)));
            if next.is_null() {
                break;
            }
            cur = next;
        }
        for i in 0..self.nthreads {
            let d = tag::addr_of(self.pool.load(self.x(i)));
            if !d.is_null() {
                live.insert(d);
                live.insert(tag::addr_of(self.pool.load(d.offset(F_NEXT))));
            }
        }
        self.nodes.rebuild(&live);
        self.ebr.reset();
    }

    /// Volatile snapshot of queued values (test helper; skips in-flight
    /// descriptor links).
    pub fn snapshot_values(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = tag::addr_of(self.pool.peek(self.head()));
        loop {
            let next_w = self.pool.peek(cur.offset(F_NEXT));
            if tag::has(next_w, tag::PMWCAS_DESC) {
                return out;
            }
            let next = tag::addr_of(next_w);
            if next.is_null() {
                return out;
            }
            if self.pool.peek(next.offset(F_DEQ_TID)) == UNCLAIMED {
                out.push(self.pool.peek(next.offset(F_VALUE)));
            }
            cur = next;
        }
    }
}

impl<M: Memory> fmt::Debug for CasWithEffectQueue<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CasWithEffectQueue")
            .field("nthreads", &self.nthreads)
            .field("fast", &self.fast)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_pmem::{CrashSignal, WritebackAdversary};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    fn both() -> Vec<CasWithEffectQueue> {
        vec![CasWithEffectQueue::new_general(2, 32), CasWithEffectQueue::new_fast(2, 32)]
    }

    #[test]
    fn fifo_order_both_variants() {
        for q in both() {
            let h0 = q.register_thread().unwrap();
            let h1 = q.register_thread().unwrap();
            for v in [1, 2, 3] {
                q.prep_enqueue(h0, v).unwrap();
                q.exec_enqueue(h0);
            }
            for v in [1, 2, 3] {
                q.prep_dequeue(h1);
                assert_eq!(q.exec_dequeue(h1), QueueResp::Value(v), "fast={}", q.is_fast());
            }
            q.prep_dequeue(h1);
            assert_eq!(q.exec_dequeue(h1), QueueResp::Empty);
        }
    }

    #[test]
    fn resolve_round_trips() {
        for q in both() {
            let h0 = q.register_thread().unwrap();
            q.prep_enqueue(h0, 9).unwrap();
            assert_eq!(
                q.resolve(h0),
                CweResolved { op: Some(CweResolvedOp::Enqueue(9)), resp: None }
            );
            q.exec_enqueue(h0);
            assert_eq!(
                q.resolve(h0),
                CweResolved { op: Some(CweResolvedOp::Enqueue(9)), resp: Some(QueueResp::Ok) }
            );
            q.prep_dequeue(h0);
            assert_eq!(q.resolve(h0), CweResolved { op: Some(CweResolvedOp::Dequeue), resp: None });
            assert_eq!(q.exec_dequeue(h0), QueueResp::Value(9));
            assert_eq!(
                q.resolve(h0),
                CweResolved { op: Some(CweResolvedOp::Dequeue), resp: Some(QueueResp::Value(9)) }
            );
        }
    }

    #[test]
    fn enqueue_crash_sweep_both_variants() {
        for fast in [false, true] {
            for adv in [WritebackAdversary::None, WritebackAdversary::All] {
                for k in 1..150 {
                    let q = if fast {
                        CasWithEffectQueue::new_fast(1, 8)
                    } else {
                        CasWithEffectQueue::new_general(1, 8)
                    };
                    let h0 = q.register_thread().unwrap();
                    q.pool().arm_crash_after(k);
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        q.prep_enqueue(h0, 42).unwrap();
                        q.exec_enqueue(h0);
                    }));
                    q.pool().disarm_crash();
                    let crashed = match r {
                        Ok(_) => false,
                        Err(p) if p.downcast_ref::<CrashSignal>().is_some() => true,
                        Err(p) => std::panic::resume_unwind(p),
                    };
                    if !crashed {
                        break;
                    }
                    q.pool().crash(&adv);
                    q.recover();
                    q.rebuild_allocator();
                    let in_queue = q.snapshot_values() == vec![42];
                    match q.resolve(h0) {
                        CweResolved { op: None, resp: None } => {
                            assert!(!in_queue, "fast={fast} k={k} {adv:?}")
                        }
                        CweResolved { op: Some(CweResolvedOp::Enqueue(42)), resp } => match resp {
                            Some(QueueResp::Ok) => {
                                assert!(in_queue, "fast={fast} k={k} {adv:?}")
                            }
                            None => assert!(!in_queue, "fast={fast} k={k} {adv:?}"),
                            other => panic!("impossible response {other:?}"),
                        },
                        other => panic!("fast={fast} k={k}: impossible {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn dequeue_crash_sweep_both_variants() {
        for fast in [false, true] {
            for adv in [WritebackAdversary::None, WritebackAdversary::All] {
                for k in 1..150 {
                    let q = if fast {
                        CasWithEffectQueue::new_fast(1, 8)
                    } else {
                        CasWithEffectQueue::new_general(1, 8)
                    };
                    let h0 = q.register_thread().unwrap();
                    q.prep_enqueue(h0, 7).unwrap();
                    q.exec_enqueue(h0);
                    q.pool().arm_crash_after(k);
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        q.prep_dequeue(h0);
                        let _ = q.exec_dequeue(h0);
                    }));
                    q.pool().disarm_crash();
                    let crashed = match r {
                        Ok(_) => false,
                        Err(p) if p.downcast_ref::<CrashSignal>().is_some() => true,
                        Err(p) => std::panic::resume_unwind(p),
                    };
                    if !crashed {
                        break;
                    }
                    q.pool().crash(&adv);
                    q.recover();
                    q.rebuild_allocator();
                    let still_there = q.snapshot_values() == vec![7];
                    match q.resolve(h0) {
                        // Crash before the prep persisted: X still shows the
                        // completed enqueue.
                        CweResolved {
                            op: Some(CweResolvedOp::Enqueue(7)),
                            resp: Some(QueueResp::Ok),
                        } => assert!(still_there, "fast={fast} k={k} {adv:?}"),
                        CweResolved { op: Some(CweResolvedOp::Dequeue), resp } => match resp {
                            Some(QueueResp::Value(7)) => {
                                assert!(!still_there, "fast={fast} k={k} {adv:?}")
                            }
                            None => assert!(still_there, "fast={fast} k={k} {adv:?}"),
                            other => panic!("impossible response {other:?}"),
                        },
                        other => panic!("fast={fast} k={k}: impossible {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_stress_conserves_values() {
        for fast in [false, true] {
            let q = Arc::new(if fast {
                CasWithEffectQueue::new_fast(4, 64)
            } else {
                CasWithEffectQueue::new_general(4, 64)
            });
            let hs: Vec<_> = (0..4).map(|_| q.register_thread().unwrap()).collect();
            let handles: Vec<_> = (0..4)
                .map(|tid| {
                    let q = Arc::clone(&q);
                    let h = hs[tid];
                    std::thread::spawn(move || {
                        let mut got = Vec::new();
                        for i in 0..150u64 {
                            q.prep_enqueue(h, (tid as u64) << 32 | (i + 1)).unwrap();
                            q.exec_enqueue(h);
                            q.prep_dequeue(h);
                            if let QueueResp::Value(v) = q.exec_dequeue(h) {
                                got.push(v);
                            }
                        }
                        got
                    })
                })
                .collect();
            let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
            all.extend(q.snapshot_values());
            all.sort_unstable();
            let mut expected: Vec<u64> =
                (0..4u64).flat_map(|t| (1..=150).map(move |i| t << 32 | i)).collect();
            expected.sort_unstable();
            assert_eq!(all, expected, "fast={fast}");
        }
    }

    #[test]
    fn fast_variant_issues_fewer_ops_than_general() {
        let measure = |q: &CasWithEffectQueue| {
            let h0 = q.register_thread().unwrap();
            q.pool().reset_stats();
            q.prep_enqueue(h0, 1).unwrap();
            q.exec_enqueue(h0);
            q.prep_dequeue(h0);
            let _ = q.exec_dequeue(h0);
            q.pool().stats().total()
        };
        let general = CasWithEffectQueue::new_general(1, 8);
        let fast = CasWithEffectQueue::new_fast(1, 8);
        assert!(measure(&fast) < measure(&general), "the Fast variant must do less work per op");
    }
}
