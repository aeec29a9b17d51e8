//! The DSS queue (paper §3): layout, construction, and detection.
//!
//! The queue is a [claimed-node list](crate::linked) — the node recipe,
//! the claim, `resolve`, the Figure 6 insert repair and the allocator
//! rebuild are the stack's too — under a Michael–Scott head, tail and
//! static sentinel. This module and its submodules keep only what is the
//! queue's own: the layout, the tail-appending enqueue, the
//! predecessor-announcing dequeue, and the head/tail repair.

mod ops;
mod recovery;
mod replicated;
#[cfg(test)]
mod tests;

pub use replicated::{
    ReplicatedQueue, DEFAULT_REPLICAS, KIND_DSS_QUEUE_REPLICATED, LOG_CAP as REPLICATED_LOG_CAP,
};

use std::fmt;
use std::ops::Deref;

use dss_pmem::object::{checked_words, thread_count};
use dss_pmem::{
    tag, AppKind, AttachError, FlushGranularity, Memory, ObjectCore, ObjectLayout, PAddr, PmemPool,
    ThreadHandle, WORDS_PER_LINE,
};

use crate::detect::DetectableCore;
use crate::linked::{NodeList, Prepared, NODE_WORDS};
use dss_spec::types::QueueResp;

/// The structure-kind tag a [`DssQueue`] records in its pool file's
/// superblock (see [`PmemPool::set_app_config`]), making the file
/// self-describing for [`DssQueue::attach`].
pub const KIND_DSS_QUEUE: u64 = AppKind::DssQueue.word();

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
    /// The claimed-node list: its nodes and the per-thread `X` words over
    /// the object skeleton (pool, registry, EBR, backoff).
    list: NodeList<M>,
}

// Fixed low-address layout, one cache line per hot word: head, tail and
// each thread's X entry get their own line so CAS retries on one never
// invalidate the others (false sharing).
const A_HEAD: u64 = WORDS_PER_LINE;
const A_TAIL: u64 = 2 * WORDS_PER_LINE;
const A_X_BASE: u64 = 3 * WORDS_PER_LINE;

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
        DssQueue {
            // A dequeue announces the predecessor of the node it claims.
            list: NodeList::new(
                object,
                A_HEAD,
                A_X_BASE,
                layout.region,
                layout.nodes_per_thread,
                |l, n| l.next(n),
            ),
        }
    }

    /// Writes and persists the initial queue state (fresh pools only —
    /// never run on attach).
    fn format(&self, sentinel: u64) {
        // Initial state: head = tail = sentinel; sentinel.next = NULL,
        // sentinel unmarked; X[i] = NULL for all i. Persist everything.
        let s = PAddr::from_index(sentinel);
        self.list.init(s, 0);
        self.pool().store(self.head_addr(), s.to_word());
        self.pool().flush(self.head_addr());
        self.pool().store(self.tail_addr(), s.to_word());
        self.pool().flush(self.tail_addr());
        self.list.format_x();
        self.pool().drain();
    }

    fn head_addr(&self) -> PAddr {
        PAddr::from_index(A_HEAD)
    }

    fn tail_addr(&self) -> PAddr {
        PAddr::from_index(A_TAIL)
    }

    /// **resolve** (Figure 3, lines 20–27): reports the status of the
    /// calling thread's most recently prepared operation.
    ///
    /// Idempotent and total: call it any number of times, from any state,
    /// including immediately after recovery from a crash.
    pub fn resolve(&self, h: ThreadHandle) -> Resolved {
        match self.list.resolve(h.slot()) {
            Some(Prepared::Insert { value, done }) => Resolved {
                op: Some(ResolvedOp::Enqueue(value)),
                resp: done.then_some(QueueResp::Ok),
            },
            Some(Prepared::Claim(taken)) => Resolved {
                op: Some(ResolvedOp::Dequeue),
                resp: taken.map(|v| v.map_or(QueueResp::Empty, QueueResp::Value)),
            },
            None => Resolved { op: None, resp: None },
        }
    }

    /// Read-only front probe through the shared structure: walks from the
    /// head pointer past claimed nodes to the first live one and returns
    /// its value. This is the single-instance read path the replicated
    /// layer's replica-local reads are benchmarked against — every call
    /// traverses the same shared head line all writers contend on.
    ///
    /// A returned value's enqueue survives any later crash: like a
    /// dequeuer at Figure 4 line 44, the probe persists the link it read
    /// the value through while the tail still names that link's node. A
    /// link the tail has passed was persisted before the tail moved.
    pub fn peek_front(&self, h: ThreadHandle) -> Option<u64> {
        let tid = h.slot();
        let _guard = self.pin(tid);
        let mut cur = tag::addr_of(self.pool().load(self.head_addr()));
        loop {
            let next = self.list.next(cur);
            if next.is_null() {
                return None;
            }
            if !self.list.claimed(next) {
                if tag::addr_of(self.pool().load(self.tail_addr())) == cur {
                    self.list.persist_link(cur);
                }
                return Some(self.list.value(next));
            }
            cur = next;
        }
    }

    /// Volatile inspection helper: the values currently in the queue, head
    /// to tail (test/debug only — not atomic with respect to concurrent
    /// operations).
    pub fn snapshot_values(&self) -> Vec<u64> {
        // The head is the sentinel: the values start after it.
        let head = tag::addr_of(self.pool().peek(self.head_addr()));
        self.list.unclaimed_values(self.list.peek_next(head))
    }
}

impl<M: Memory> Deref for DssQueue<M> {
    type Target = DetectableCore<M>;

    fn deref(&self) -> &DetectableCore<M> {
        &self.list
    }
}

impl<M: Memory> fmt::Debug for DssQueue<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DssQueue")
            .field("nthreads", &self.nthreads())
            .field("total_nodes", &self.list.nodes().total_nodes())
            .finish_non_exhaustive()
    }
}
