//! The DSS queue (paper §3): layout, construction, and detection.

mod combining;
mod ops;
mod recovery;
mod replicated;
#[cfg(test)]
mod tests;

pub use combining::{CombiningQueue, KIND_DSS_QUEUE_COMBINING};
pub use replicated::{
    ReplicatedQueue, DEFAULT_REPLICAS, KIND_DSS_QUEUE_REPLICATED, LOG_CAP as REPLICATED_LOG_CAP,
};

use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use dss_pmem::object::{checked_words, thread_count};
use dss_pmem::{
    tag, AppKind, AttachError, FlushGranularity, Memory, NodePool, ObjectCore, ObjectLayout, PAddr,
    PmemPool, ThreadHandle, WORDS_PER_LINE,
};

use crate::detect::DetectableCore;
use dss_spec::types::QueueResp;

/// The structure-kind tag a [`DssQueue`] records in its pool file's
/// superblock (see [`PmemPool::set_app_config`]), making the file
/// self-describing for [`DssQueue::attach`].
pub const KIND_DSS_QUEUE: u64 = AppKind::DssQueue.word();

/// Node field offsets (a queue node is `{ value, next, deqThreadID }`,
/// padded to 4 words so a node never straddles a cache line and the paper's
/// whole-node `FLUSH(node)` is a single flush under line granularity).
pub(crate) const F_VALUE: u64 = 0;
pub(crate) const F_NEXT: u64 = 1;
pub(crate) const F_DEQ_TID: u64 = 2;
pub(crate) const NODE_WORDS: u64 = 4;

/// The paper's `deqThreadID = −1`: no thread has dequeued this node.
pub(crate) const NO_DEQUEUER: u64 = u64::MAX;

/// The enqueue-side error: the pre-allocated node pool is exhausted.
///
/// The paper's setup pre-allocates a fixed pool per thread; running out is
/// an explicit, recoverable condition rather than a panic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueueFull;

impl fmt::Display for QueueFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("queue node pool exhausted")
    }
}

impl std::error::Error for QueueFull {}

/// The operation reported by [`DssQueue::resolve`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResolvedOp {
    /// The last prepared operation was `enqueue(value)`.
    Enqueue(u64),
    /// The last prepared operation was `dequeue()`.
    Dequeue,
}

/// The answer of [`DssQueue::resolve`]: the DSS `(A[pᵢ], R[pᵢ])` pair.
///
/// `op == None` means no operation was ever prepared (`(⊥, ⊥)`).
/// `resp == None` means the prepared operation did not take effect.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Resolved {
    /// The most recently prepared operation, if any.
    pub op: Option<ResolvedOp>,
    /// Its response, if it took effect.
    pub resp: Option<QueueResp>,
}

/// The DSS queue: a lock-free, strictly linearizable, detectable
/// recoverable MPMC FIFO queue (paper §3, Figures 3, 4 and 6).
///
/// The queue is a Michael–Scott singly-linked list in persistent memory,
/// extended with
///
/// * flush instructions in the style of Friedman et al.'s durable queue;
/// * a `deqThreadID` field per node identifying the dequeuer;
/// * a per-thread detectability word `X[tid]` holding a tagged node
///   pointer (`ENQ_PREP`/`ENQ_COMPL`/`DEQ_PREP`/`EMPTY` in the pointer's
///   high bits — footnote 5's "borrowed" bits).
///
/// Detectable operations go through `prep-*`/`exec-*` pairs; plain
/// [`enqueue`](Self::enqueue)/[`dequeue`](Self::dequeue) skip every access
/// to `X` (Axiom 4's non-detectable path). After a crash, run either the
/// centralized [`recover`](Self::recover) (Figure 6, restructured as
/// "adopt every orphaned slot, then resolve each") or the per-slot
/// [`recover_one`](Self::recover_one) (§3.3), then ask
/// [`resolve`](Self::resolve) what happened.
///
/// Thread identity comes from a persistent slot
/// [`Registry`](dss_pmem::Registry) embedded in the pool: call
/// [`register_thread`](ObjectCore::register_thread) to obtain a
/// [`ThreadHandle`], thread it through every operation, and after a crash
/// either keep using the (Copy) handle — the paper §2's
/// recover-under-the-same-ID model — or let any surviving thread
/// [`adopt`](ObjectCore::adopt) the orphaned slots of threads that never
/// came back (§3.3's generalization). A bad slot index is a typed
/// [`SlotError`](dss_pmem::SlotError), not an abort. The slot API, like
/// the pool and the backoff knob, is the shared skeleton's: the queue
/// dereferences to its [`DetectableCore`]. With backoff on
/// ([`set_backoff`](ObjectCore::set_backoff)), `exec-dequeue` also elides
/// provably redundant announce flushes.
///
/// The queue is generic over its [`Memory`] backend: the default
/// [`PmemPool`] simulates persistence and supports crash injection, while
/// [`DramPool`](dss_pmem::DramPool) (via [`new_in`](Self::new_in)) runs the
/// identical instruction sequence on plain atomics.
pub struct DssQueue<M: Memory = PmemPool> {
    /// The shared detectability skeleton: the per-thread `X` words over
    /// the object skeleton (pool, registry, EBR, backoff).
    core: DetectableCore<M>,
    pub(crate) nodes: NodePool,
    /// Monotone per-thread counters of completed operations (volatile;
    /// used by workloads and tests, never by the algorithm).
    ops_done: Box<[AtomicU64]>,
}

// Fixed low-address layout, one cache line per hot word: head, tail and
// each thread's X entry get their own line so CAS retries on one never
// invalidate the others (false sharing).
pub(crate) const A_HEAD: u64 = WORDS_PER_LINE;
pub(crate) const A_TAIL: u64 = 2 * WORDS_PER_LINE;
pub(crate) const A_X_BASE: u64 = 3 * WORDS_PER_LINE;

/// The queue's pool layout, derived from `(nthreads, nodes_per_thread)`
/// alone — which is exactly why those two parameters in a pool file's
/// superblock make the file self-describing.
struct QueueLayout {
    nthreads: usize,
    nodes_per_thread: u64,
    sentinel: u64,
    region: u64,
    reg_base: u64,
}

impl ObjectLayout for QueueLayout {
    const KIND: AppKind = AppKind::DssQueue;

    fn params(&self) -> Vec<u64> {
        vec![self.nthreads as u64, self.nodes_per_thread]
    }

    fn from_params(p: &[u64]) -> Result<Self, &'static str> {
        let (nthreads, nodes_per_thread) = (thread_count(p[0])?, p[1]);
        let nodes = checked_words(&[nthreads as u64, nodes_per_thread, NODE_WORDS])?;
        // Layout: [0:NULL][head line][tail line][n X lines][sentinel]
        // [region...], with the sentinel and region aligned to NODE_WORDS
        // so each node sits within one cache line.
        let x_end = A_X_BASE + nthreads as u64 * WORDS_PER_LINE;
        let sentinel = x_end.next_multiple_of(NODE_WORDS);
        let region = sentinel + NODE_WORDS;
        // The registry region goes *after* every pre-registry region, so
        // persisted layouts of head/tail/X/nodes are unchanged.
        let reg_base = (region + nodes).next_multiple_of(WORDS_PER_LINE);
        Ok(QueueLayout { nthreads, nodes_per_thread, sentinel, region, reg_base })
    }

    fn registry_base(&self) -> u64 {
        self.reg_base
    }
}

impl DssQueue {
    /// Creates a queue for `nthreads` threads with `nodes_per_thread`
    /// pre-allocated nodes each, on a fresh line-granular pool.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn new(nthreads: usize, nodes_per_thread: u64) -> Self {
        Self::new_in(nthreads, nodes_per_thread, FlushGranularity::Line)
    }

    /// Creates a queue on a **file-backed** pool at `path` (line-granular):
    /// the file holds the queue's entire persistence domain plus enough
    /// superblock metadata ([`KIND_DSS_QUEUE`], `nthreads`,
    /// `nodes_per_thread`) for a fresh process to rebuild everything with
    /// [`attach`](Self::attach) from the path alone.
    ///
    /// # Errors
    ///
    /// [`AttachError::Io`] if the pool file cannot be created.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn create<P: AsRef<std::path::Path>>(
        path: P,
        nthreads: usize,
        nodes_per_thread: u64,
    ) -> Result<Self, AttachError> {
        Self::create_with(path, nthreads, nodes_per_thread, FlushGranularity::Line)
    }

    /// [`create`](Self::create) with an explicit flush granularity.
    ///
    /// # Errors
    ///
    /// [`AttachError::Io`] if the pool file cannot be created.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn create_with<P: AsRef<std::path::Path>>(
        path: P,
        nthreads: usize,
        nodes_per_thread: u64,
        granularity: FlushGranularity,
    ) -> Result<Self, AttachError> {
        let layout = QueueLayout::from_args(&[nthreads as u64, nodes_per_thread]);
        let q = Self::assemble(ObjectCore::create(path, &layout, granularity)?, &layout);
        q.format(layout.sentinel);
        Ok(q)
    }

    /// Rebuilds a queue from a pool file **with no in-process state**: the
    /// superblock's kind/parameter words identify the structure, the
    /// registry is re-bound (not reformatted), the node allocator is
    /// rebuilt from the persisted list, and fresh EBR domains replace the
    /// dead process's. The previous owner's operations are exactly where
    /// its last fenced flush left them.
    ///
    /// Attaching is a crash boundary, so the usual post-crash workflow
    /// applies: run [`recover`](Self::recover) (Figure 6 adopt-then-
    /// resolve) or per-slot [`adopt`](ObjectCore::adopt)/
    /// [`recover_one`](Self::recover_one), then [`resolve`](Self::resolve)
    /// each adopted handle.
    ///
    /// # Errors
    ///
    /// Any [`AttachError`] of [`ObjectCore::attach`]; in particular
    /// [`AttachError::AppMismatch`] if the file holds a different
    /// structure.
    pub fn attach<P: AsRef<std::path::Path>>(path: P) -> Result<Self, AttachError> {
        let (object, layout) = ObjectCore::attach(path)?;
        let q = Self::assemble(object, &layout);
        // The allocator is volatile: rebuild it from the persisted list
        // right away so an early alloc cannot hand out a node the dead
        // process left in the queue. (Reachability from the possibly-lagging
        // persisted head is a superset of the true live set, so this is
        // safe even before `recover` repairs head/tail.)
        q.rebuild_allocator();
        Ok(q)
    }
}

impl<M: Memory> DssQueue<M> {
    /// Creates a queue on a freshly created backend of type `M`
    /// ([`Memory::create`]) with the given flush granularity (experiment
    /// E7 sweeps it) — the backend-generic constructor behind
    /// [`new`](DssQueue::new).
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn new_in(nthreads: usize, nodes_per_thread: u64, granularity: FlushGranularity) -> Self {
        let layout = QueueLayout::from_args(&[nthreads as u64, nodes_per_thread]);
        let q = Self::assemble(ObjectCore::fresh(&layout, granularity), &layout);
        q.format(layout.sentinel);
        q
    }

    /// The shared constructor tail: in-DRAM side tables (node allocator,
    /// op counters) over an object skeleton — everything `attach` must
    /// rebuild rather than map.
    fn assemble(object: ObjectCore<M>, layout: &QueueLayout) -> Self {
        let (n, region) = (layout.nthreads, PAddr::from_index(layout.region));
        DssQueue {
            core: DetectableCore::new(object, A_X_BASE, WORDS_PER_LINE),
            nodes: NodePool::new(region, NODE_WORDS, layout.nodes_per_thread, n),
            ops_done: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Writes and persists the initial queue state (fresh pools only —
    /// never run on attach).
    fn format(&self, sentinel: u64) {
        // Initial state: head = tail = sentinel; sentinel.next = NULL,
        // sentinel unmarked; X[i] = NULL for all i. Persist everything.
        let s = PAddr::from_index(sentinel);
        self.pool().store(s.offset(F_VALUE), 0);
        self.pool().store(s.offset(F_NEXT), PAddr::NULL.to_word());
        self.pool().store(s.offset(F_DEQ_TID), NO_DEQUEUER);
        self.flush_node(s);
        self.pool().store(self.head_addr(), s.to_word());
        self.pool().flush(self.head_addr());
        self.pool().store(self.tail_addr(), s.to_word());
        self.pool().flush(self.tail_addr());
        self.core.format_x();
        self.pool().drain();
    }

    pub(crate) fn head_addr(&self) -> PAddr {
        PAddr::from_index(A_HEAD)
    }

    pub(crate) fn tail_addr(&self) -> PAddr {
        PAddr::from_index(A_TAIL)
    }

    /// `FLUSH(node)`: persists a whole node. One flush under line
    /// granularity (nodes are line-aligned), one per field under word
    /// granularity.
    pub(crate) fn flush_node(&self, node: PAddr) {
        match self.pool().granularity() {
            FlushGranularity::Line => self.pool().flush(node),
            FlushGranularity::Word => {
                self.pool().flush(node.offset(F_VALUE));
                self.pool().flush(node.offset(F_NEXT));
                self.pool().flush(node.offset(F_DEQ_TID));
            }
        }
    }

    /// Per-address ordering drain of a whole node: the targeted
    /// counterpart of [`flush_node`](Self::flush_node), writing back only
    /// the node's own pending flush units (one line, or three words under
    /// word granularity) so every other pending flush stays coalescible.
    pub(crate) fn drain_node(&self, node: PAddr) {
        self.pool().drain_lines(&[
            node.offset(F_VALUE),
            node.offset(F_NEXT),
            node.offset(F_DEQ_TID),
        ]);
    }

    /// The nodes some thread's detectability word still references:
    /// `X[i]`'s own node plus, for an announced dequeue predecessor, its
    /// successor — `resolve` dereferences both, however long ago the
    /// operation completed. These must survive both a crash-time allocator
    /// rebuild *and* crash-free epoch reclamation; recycling one would
    /// make a later `resolve` chase reinitialized memory and misreport
    /// the operation as not having taken effect.
    pub(crate) fn x_referenced_nodes(&self) -> Vec<PAddr> {
        let mut out = Vec::new();
        for i in 0..self.nthreads() {
            let x = self.pool().load(self.x_addr(i));
            let d = tag::addr_of(x);
            if !d.is_null() {
                out.push(d);
                let next = tag::addr_of(self.pool().load(d.offset(F_NEXT)));
                if !next.is_null() {
                    out.push(next);
                }
            }
        }
        out
    }

    /// Allocates a node, recycling retired nodes through EBR when the free
    /// lists run dry — except nodes `resolve` can still reach through a
    /// detectability word ([`x_referenced_nodes`](Self::x_referenced_nodes)),
    /// which stay in limbo until the word moves on.
    pub(crate) fn alloc_node(&self, tid: usize) -> Result<PAddr, QueueFull> {
        self.nodes
            .alloc_with_reclaim_guarded(tid, self.ebr(), || self.x_referenced_nodes())
            .ok_or(QueueFull)
    }

    /// Retires a dequeued predecessor node (ignored for the static initial
    /// sentinel, which is not part of the node region).
    pub(crate) fn retire_node(&self, tid: usize, node: PAddr) {
        if self.nodes.contains(node) {
            self.ebr().retire(tid, node);
        }
    }

    pub(crate) fn bump_ops(&self, tid: usize) {
        self.ops_done[tid].fetch_add(1, Relaxed);
    }

    /// Total completed operations (volatile; for workloads and tests).
    pub fn ops_completed(&self) -> u64 {
        self.ops_done.iter().map(|c| c.load(Relaxed)).sum()
    }

    /// **resolve** (Figure 3, lines 20–27): reports the status of the
    /// calling thread's most recently prepared operation.
    ///
    /// Idempotent and total: call it any number of times, from any state,
    /// including immediately after recovery from a crash.
    pub fn resolve(&self, h: ThreadHandle) -> Resolved {
        let tid = h.slot();
        let x = self.pool().load(self.x_addr(tid)); // inspect X[TID]
        if tag::has(x, tag::ENQ_PREP) {
            // line 21-22
            let (value, resp) = self.resolve_enqueue(x);
            Resolved { op: Some(ResolvedOp::Enqueue(value)), resp }
        } else if tag::has(x, tag::DEQ_PREP) {
            // line 23-25
            let resp = self.resolve_dequeue(tid, x);
            Resolved { op: Some(ResolvedOp::Dequeue), resp }
        } else {
            // line 26-27: no operation was prepared
            Resolved { op: None, resp: None }
        }
    }

    /// **resolve-enqueue** (Figure 3, lines 28–31).
    fn resolve_enqueue(&self, x: u64) -> (u64, Option<QueueResp>) {
        let node = tag::addr_of(x);
        let value = self.pool().load(node.offset(F_VALUE));
        if tag::has(x, tag::ENQ_COMPL) {
            // enqueue was prepared and took effect (line 29)
            (value, Some(QueueResp::Ok))
        } else {
            // enqueue was prepared and did not take effect (line 31)
            (value, None)
        }
    }

    /// **resolve-dequeue** (Figure 4, lines 56–63).
    fn resolve_dequeue(&self, tid: usize, x: u64) -> Option<QueueResp> {
        let ptr = tag::addr_of(x);
        if ptr.is_null() {
            if tag::has(x, tag::EMPTY) {
                // dequeue took effect on an empty queue (lines 58-59)
                Some(QueueResp::Empty)
            } else {
                // prepared but did not take effect (lines 56-57)
                None
            }
        } else {
            // X holds the predecessor of the node this thread tried to
            // claim (written at lines 47-48).
            let next = tag::addr_of(self.pool().load(ptr.offset(F_NEXT)));
            if next.is_null() {
                // The claimed node's linkage never persisted, so the claim
                // cannot have persisted either (the paper's flush order
                // guarantees next is persisted before any claim on it).
                return None;
            }
            if self.pool().load(next.offset(F_DEQ_TID)) == tid as u64 {
                // dequeue took effect on a non-empty queue (lines 60-61)
                Some(QueueResp::Value(self.pool().load(next.offset(F_VALUE))))
            } else {
                // crashed between announcing the predecessor and the claim
                // (lines 62-63); the node may be claimed by someone else,
                // by this thread's *non-detectable* dequeue, or unclaimed.
                None
            }
        }
    }

    /// Read-only front probe through the shared structure: walks from the
    /// head pointer past claimed nodes to the first live one and returns
    /// its value. This is the single-instance read path the replicated
    /// layer's replica-local reads are benchmarked against — every call
    /// traverses the same shared head line all writers contend on.
    pub fn peek_front(&self, h: ThreadHandle) -> Option<u64> {
        let tid = h.slot();
        let _guard = self.pin(tid);
        let mut cur = tag::addr_of(self.pool().load(self.head_addr()));
        loop {
            let next = tag::addr_of(self.pool().load(cur.offset(F_NEXT)));
            if next.is_null() {
                return None;
            }
            if self.pool().load(next.offset(F_DEQ_TID)) == NO_DEQUEUER {
                return Some(self.pool().load(next.offset(F_VALUE)));
            }
            cur = next;
        }
    }

    /// Volatile inspection helper: the values currently in the queue, head
    /// to tail (test/debug only — not atomic with respect to concurrent
    /// operations).
    pub fn snapshot_values(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = tag::addr_of(self.pool().peek(self.head_addr()));
        loop {
            let next = tag::addr_of(self.pool().peek(cur.offset(F_NEXT)));
            if next.is_null() {
                break;
            }
            // A marked successor has been dequeued already.
            if self.pool().peek(next.offset(F_DEQ_TID)) == NO_DEQUEUER {
                out.push(self.pool().peek(next.offset(F_VALUE)));
            }
            cur = next;
        }
        out
    }
}

impl<M: Memory> Deref for DssQueue<M> {
    type Target = DetectableCore<M>;

    fn deref(&self) -> &DetectableCore<M> {
        &self.core
    }
}

impl<M: Memory> fmt::Debug for DssQueue<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DssQueue")
            .field("nthreads", &self.nthreads())
            .field("total_nodes", &self.nodes.total_nodes())
            .finish_non_exhaustive()
    }
}
