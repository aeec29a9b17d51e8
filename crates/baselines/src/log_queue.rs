//! Friedman et al.'s detectable **log queue** — per-operation log entries.
//!
//! The paper (§4) describes it as follows: "our own implementation of
//! Friedman et al.'s detectable log queue algorithm, which uses per-thread
//! logs. Operation arguments and return values are stored directly in the
//! logs, and are accessed by other threads via helping mechanisms." And the
//! two structural costs the evaluation attributes its deficit to: "the log
//! queue dynamically allocates log objects in addition to queue nodes, and
//! these objects are shared during concurrent execution of dequeue."
//!
//! Both properties are reproduced here: every operation allocates a fresh
//! log entry (double allocation), a dequeuer claims a queue node by CAS-ing
//! a pointer to *its log entry* into the node, and any helper completes the
//! dequeue by writing the value and the done flag into that (shared) log
//! entry before advancing the head.

use std::fmt;
use std::ops::Deref;

use dss_pmem::object::{checked_words, thread_count};
use dss_pmem::{
    tag, AppKind, AttachError, Ebr, FlushGranularity, Memory, NodePool, ObjectCore, ObjectLayout,
    PAddr, PmemPool, SlotError, ThreadHandle, WORDS_PER_LINE,
};
use dss_spec::types::QueueResp;

use crate::QueueFull;

// Queue node: {value, next, deqLog, enqLog}.
const N_VALUE: u64 = 0;
const N_NEXT: u64 = 1;
const N_DEQ_LOG: u64 = 2;
const N_ENQ_LOG: u64 = 3;
const NODE_WORDS: u64 = 4;

// Log entry: {kind, payload, node, status}.
const L_KIND: u64 = 0;
const L_PAYLOAD: u64 = 1; // enqueue: the argument; dequeue: the result
const L_NODE: u64 = 2;
const L_STATUS: u64 = 3;
const LOG_WORDS: u64 = 4;

const KIND_ENQ: u64 = 1;
const KIND_DEQ: u64 = 2;

const STATUS_PENDING: u64 = 0;
const STATUS_DONE: u64 = 1;

/// Payload sentinel for a dequeue that observed an empty queue.
const PAYLOAD_EMPTY: u64 = u64::MAX;

// Head, tail and each logPtr slot on their own cache line.
const A_HEAD: u64 = WORDS_PER_LINE;
const A_TAIL: u64 = 2 * WORDS_PER_LINE;
const A_LOG_BASE: u64 = 3 * WORDS_PER_LINE; // logPtr[tid]: the thread's current log entry

/// Structure-kind word a file-backed log queue records in its pool
/// superblock.
pub const KIND_LOG_QUEUE: u64 = AppKind::LogQueue.word();

/// The log queue's pool layout, derived from `(nthreads,
/// nodes_per_thread)` alone. Two node regions: queue nodes, then log
/// entries.
struct LogLayout {
    nthreads: usize,
    nodes_per_thread: u64,
    sentinel: u64,
    node_region: u64,
    log_region: u64,
    reg_base: u64,
}

impl ObjectLayout for LogLayout {
    const KIND: AppKind = AppKind::LogQueue;

    fn params(&self) -> Vec<u64> {
        vec![self.nthreads as u64, self.nodes_per_thread]
    }

    fn from_params(p: &[u64]) -> Result<Self, &'static str> {
        let (nthreads, nodes_per_thread) = (thread_count(p[0])?, p[1]);
        let nodes = checked_words(&[nthreads as u64, nodes_per_thread, NODE_WORDS])?;
        let logs = checked_words(&[nthreads as u64, nodes_per_thread, LOG_WORDS])?;
        let lp_end = A_LOG_BASE + nthreads as u64 * WORDS_PER_LINE;
        let sentinel = lp_end.next_multiple_of(NODE_WORDS);
        let node_region = sentinel + NODE_WORDS;
        let log_region = node_region + nodes;
        let reg_base = (log_region + logs).next_multiple_of(WORDS_PER_LINE);
        Ok(LogLayout { nthreads, nodes_per_thread, sentinel, node_region, log_region, reg_base })
    }

    fn registry_base(&self) -> u64 {
        self.reg_base
    }
}

/// What [`LogQueue::resolve`] reports about a thread's last announced
/// operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LogResolved {
    /// `Some(Some(v))` — an enqueue of `v`; `Some(None)` — a dequeue;
    /// `None` — no operation announced.
    pub op: Option<Option<u64>>,
    /// The operation's response, if it completed (directly or via
    /// recovery).
    pub resp: Option<QueueResp>,
}

/// Friedman et al.'s detectable log queue.
///
/// # Examples
///
/// ```
/// use dss_baselines::LogQueue;
/// use dss_spec::types::QueueResp;
///
/// let q = LogQueue::new(1, 16);
/// let h0 = q.register_thread().unwrap();
/// q.enqueue(h0, 5).unwrap();
/// assert_eq!(q.dequeue(h0).unwrap(), QueueResp::Value(5));
/// let r = q.resolve(h0);
/// assert_eq!(r.resp, Some(QueueResp::Value(5)));
/// ```
///
/// The slot API (`register_thread`, `adopt`, …), the pool and the backoff
/// knob are the shared [`ObjectCore`]'s, which the queue dereferences to;
/// the core's EBR domain reclaims queue nodes. Log entries retire through
/// a second domain, so the queue shadows the three calls that adopt a
/// slot's EBR state ([`register_thread`](ObjectCore::register_thread),
/// [`adopt`](Self::adopt), [`adopt_orphans`](ObjectCore::adopt_orphans)) to
/// adopt it in both.
pub struct LogQueue<M: Memory = PmemPool> {
    core: ObjectCore<M>,
    nodes: NodePool,
    logs: NodePool,
    /// Reclamation of log entries (queue nodes use the core's domain).
    ebr_logs: Ebr,
}

impl LogQueue {
    /// Creates a queue for `nthreads` threads, with `nodes_per_thread`
    /// queue nodes *and* as many log entries pre-allocated per thread, on
    /// a fresh line-granular [`PmemPool`].
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn new(nthreads: usize, nodes_per_thread: u64) -> Self {
        Self::new_in(nthreads, nodes_per_thread)
    }

    /// Creates a queue on a **file-backed** pool at `path`, recording
    /// [`KIND_LOG_QUEUE`] and the construction parameters in the
    /// superblock so [`attach`](Self::attach) needs only the path.
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
        let layout = LogLayout::from_args(&[nthreads as u64, nodes_per_thread]);
        let object = ObjectCore::create(path, &layout, FlushGranularity::default())?;
        let q = Self::assemble(object, &layout);
        q.format(layout.sentinel);
        Ok(q)
    }

    /// Rebuilds a queue from a pool file with no in-process state; follow
    /// with the centralized [`recover`](Self::recover), then
    /// [`resolve`](Self::resolve) per adopted handle.
    ///
    /// # Errors
    ///
    /// Any [`AttachError`], including [`AttachError::AppMismatch`] if the
    /// file holds a different structure.
    pub fn attach<P: AsRef<std::path::Path>>(path: P) -> Result<Self, AttachError> {
        let (object, layout) = ObjectCore::attach(path)?;
        let q = Self::assemble(object, &layout);
        q.rebuild_allocator();
        Ok(q)
    }
}

impl<M: Memory> LogQueue<M> {
    /// Creates a queue on a freshly created backend of type `M`
    /// ([`Memory::create`]) — the backend-generic constructor behind
    /// [`new`](LogQueue::new).
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn new_in(nthreads: usize, nodes_per_thread: u64) -> Self {
        let layout = LogLayout::from_args(&[nthreads as u64, nodes_per_thread]);
        let q = Self::assemble(ObjectCore::fresh(&layout, FlushGranularity::default()), &layout);
        q.format(layout.sentinel);
        q
    }

    /// The shared constructor tail: both node pools and the log-entry
    /// EBR domain over an object skeleton — everything `attach` must
    /// rebuild rather than map.
    fn assemble(object: ObjectCore<M>, layout: &LogLayout) -> Self {
        let (n, per_thread) = (layout.nthreads, layout.nodes_per_thread);
        let node_region = PAddr::from_index(layout.node_region);
        let log_region = PAddr::from_index(layout.log_region);
        LogQueue {
            core: object,
            nodes: NodePool::new(node_region, NODE_WORDS, per_thread, n),
            logs: NodePool::new(log_region, LOG_WORDS, per_thread, n),
            ebr_logs: Ebr::new(n),
        }
    }

    /// Writes and persists the initial queue state (fresh pools only —
    /// never run on attach).
    fn format(&self, sentinel: u64) {
        let s = PAddr::from_index(sentinel);
        self.pool().store(s.offset(N_VALUE), 0);
        self.pool().store(s.offset(N_NEXT), 0);
        self.pool().store(s.offset(N_DEQ_LOG), 0);
        self.pool().store(s.offset(N_ENQ_LOG), 0);
        self.pool().flush(s);
        self.pool().store(self.head(), s.to_word());
        self.pool().flush(self.head());
        self.pool().store(self.tail(), s.to_word());
        self.pool().flush(self.tail());
        for i in 0..self.nthreads() {
            self.pool().store(self.log_ptr(i), 0);
            self.pool().flush(self.log_ptr(i));
        }
        self.pool().drain();
    }

    fn head(&self) -> PAddr {
        PAddr::from_index(A_HEAD)
    }

    fn tail(&self) -> PAddr {
        PAddr::from_index(A_TAIL)
    }

    // Handles are valid by construction (the registry hands out only
    // in-range slots), so the index needs no range check.
    fn log_ptr(&self, tid: usize) -> PAddr {
        PAddr::from_index(A_LOG_BASE + tid as u64 * WORDS_PER_LINE)
    }

    /// [`ObjectCore::register_thread`], adopting the slot's EBR state in
    /// both reclamation domains (queue nodes and log entries).
    ///
    /// # Errors
    ///
    /// [`SlotError::Exhausted`] when all `nthreads` slots are taken.
    pub fn register_thread(&self) -> Result<ThreadHandle, SlotError> {
        let h = self.core.register_thread()?;
        self.ebr_logs.adopt_slot(h.slot());
        Ok(h)
    }

    /// [`ObjectCore::adopt`], inheriting the slot's EBR state in both
    /// reclamation domains (queue nodes and log entries).
    ///
    /// # Errors
    ///
    /// [`SlotError::OutOfRange`] / [`SlotError::NotOrphaned`] per
    /// [`Registry::adopt`](dss_pmem::Registry::adopt).
    pub fn adopt(&self, slot: usize) -> Result<ThreadHandle, SlotError> {
        let h = self.core.adopt(slot)?;
        self.ebr_logs.adopt_slot(slot);
        Ok(h)
    }

    /// [`adopt`](Self::adopt) over every orphaned slot, ascending.
    pub fn adopt_orphans(&self) -> Vec<ThreadHandle> {
        (0..self.nthreads()).filter_map(|slot| self.adopt(slot).ok()).collect()
    }

    /// Persists the head, as every reclamation round does before it
    /// recycles anything, and protects nothing more. The head moves with
    /// an unflushed CAS, so the persisted head can lag before nodes the
    /// queue has left; recovery walks the list from it and completes each
    /// claim after it through the claim's log entry. A node retires once
    /// the head has passed it, and a claim log once its dequeue has
    /// returned, when the head has passed the claimed node: once the flush
    /// is drained, recovery reaches no candidate from the persisted head
    /// (the DSS queue's `NodeList::new_node` does the same).
    fn persist_head(&self) -> Vec<PAddr> {
        self.pool().flush(self.head());
        self.pool().drain_line(self.head());
        Vec::new()
    }

    /// A queue node for `tid`, reclaiming behind a persisted head: a
    /// recycled node the persisted head still named would cut the list
    /// recovery walks.
    fn alloc_node(&self, tid: usize) -> Result<PAddr, QueueFull> {
        let persist_head = || self.persist_head();
        self.nodes.alloc_with_reclaim_guarded(tid, self.ebr(), persist_head).ok_or(QueueFull)
    }

    /// A log entry for `tid`, reclaiming behind a persisted head: recovery
    /// would complete a claim the persisted head lagged before through its
    /// recycled claim log, overwriting another operation's entry.
    fn alloc_log(&self, tid: usize) -> Result<PAddr, QueueFull> {
        let persist_head = || self.persist_head();
        self.logs.alloc_with_reclaim_guarded(tid, &self.ebr_logs, persist_head).ok_or(QueueFull)
    }

    /// Writes and announces a fresh log entry; retires the previous one.
    fn publish_log(
        &self,
        tid: usize,
        kind: u64,
        payload: u64,
        node: PAddr,
    ) -> Result<PAddr, QueueFull> {
        let old = tag::addr_of(self.pool().load(self.log_ptr(tid)));
        let log = self.alloc_log(tid)?;
        self.pool().store(log.offset(L_KIND), kind);
        self.pool().store(log.offset(L_PAYLOAD), payload);
        self.pool().store(log.offset(L_NODE), node.to_word());
        self.pool().store(log.offset(L_STATUS), STATUS_PENDING);
        self.pool().flush(log);
        // Ordering point: the per-thread log pointer must not persist
        // ahead of the entry it names (the pointer word is dirty from the
        // store below, so the entry must already be persistent).
        self.pool().drain_line(log);
        self.pool().store(self.log_ptr(tid), log.to_word());
        self.pool().flush(self.log_ptr(tid));
        if !old.is_null() {
            self.ebr_logs.retire(tid, old);
        }
        Ok(log)
    }

    /// Detectable enqueue: log entry, node, link, completion flag.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when a node or log pool is exhausted.
    pub fn enqueue(&self, h: ThreadHandle, val: u64) -> Result<(), QueueFull> {
        let tid = h.slot();
        let node = self.alloc_node(tid)?;
        let log = self.publish_log(tid, KIND_ENQ, val, node)?;
        self.pool().store(node.offset(N_VALUE), val);
        self.pool().store(node.offset(N_NEXT), 0);
        self.pool().store(node.offset(N_DEQ_LOG), 0);
        self.pool().store(node.offset(N_ENQ_LOG), log.to_word());
        self.pool().flush(node);
        let _g = self.ebr().pin(tid);
        let mut bo = self.new_backoff();
        loop {
            let last_w = self.pool().load(self.tail());
            let last = tag::addr_of(last_w);
            let next_w = self.pool().load(last.offset(N_NEXT));
            if self.pool().load(self.tail()) == last_w {
                if tag::addr_of(next_w).is_null() {
                    // The node and the announced log pointer must be
                    // persistent before the link can take effect: recovery
                    // walks persisted links and resolves through the
                    // pointer.
                    self.pool().drain_lines(&[self.log_ptr(tid), node]);
                    if self.pool().cas(last.offset(N_NEXT), 0, node.to_word()).is_ok() {
                        self.pool().flush(last.offset(N_NEXT));
                        // Ordering point: the DONE mark must not persist
                        // ahead of the link it certifies.
                        self.pool().drain_line(last.offset(N_NEXT));
                        self.pool().store(log.offset(L_STATUS), STATUS_DONE);
                        self.pool().flush(log.offset(L_STATUS));
                        let _ = self.pool().cas(self.tail(), last_w, node.to_word());
                        // The DONE flush may stay pending past the op:
                        // recovery re-derives it from the persisted link.
                        self.pool().drain_lines(&[]);
                        return Ok(());
                    }
                } else {
                    self.pool().flush(last.offset(N_NEXT));
                    let _ = self.pool().cas(self.tail(), last_w, next_w);
                }
            }
            bo.spin();
        }
    }

    /// Completes a claimed dequeue by writing the value and done flag into
    /// the claimer's (shared) log entry.
    fn complete_dequeue(&self, node: PAddr, log: PAddr) {
        let val = self.pool().load(node.offset(N_VALUE));
        self.pool().store(log.offset(L_PAYLOAD), val);
        self.pool().flush(log.offset(L_PAYLOAD));
        // Ordering point: DONE must not persist ahead of the payload it
        // validates — or of the (still-pending) claim that justifies it.
        self.pool().drain_lines(&[log.offset(L_PAYLOAD), node.offset(N_DEQ_LOG)]);
        self.pool().store(log.offset(L_STATUS), STATUS_DONE);
        self.pool().flush(log.offset(L_STATUS));
    }

    /// Detectable dequeue through a fresh log entry.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the log pool is exhausted.
    pub fn dequeue(&self, h: ThreadHandle) -> Result<QueueResp, QueueFull> {
        let tid = h.slot();
        let log = self.publish_log(tid, KIND_DEQ, 0, PAddr::NULL)?;
        let _g = self.ebr().pin(tid);
        let _gl = self.ebr_logs.pin(tid);
        let mut bo = self.new_backoff();
        loop {
            let first_w = self.pool().load(self.head());
            let last_w = self.pool().load(self.tail());
            let first = tag::addr_of(first_w);
            let next_w = self.pool().load(first.offset(N_NEXT));
            let next = tag::addr_of(next_w);
            if self.pool().load(self.head()) != first_w {
                bo.spin();
                continue;
            }
            if first_w == last_w {
                if next.is_null() {
                    self.pool().store(log.offset(L_PAYLOAD), PAYLOAD_EMPTY);
                    self.pool().flush(log.offset(L_PAYLOAD));
                    // Ordering point: see complete_dequeue.
                    self.pool().drain_line(log.offset(L_PAYLOAD));
                    self.pool().store(log.offset(L_STATUS), STATUS_DONE);
                    self.pool().flush(log.offset(L_STATUS));
                    // No claim exists for recovery to rediscover: the DONE
                    // verdict must be durable before the op returns.
                    self.pool().drain_line(log.offset(L_STATUS));
                    return Ok(QueueResp::Empty);
                }
                self.pool().flush(first.offset(N_NEXT));
                let _ = self.pool().cas(self.tail(), last_w, next_w);
            } else {
                // The announced log pointer must be persistent before a
                // claim naming its entry can be — resolve interprets the
                // claim through it.
                self.pool().drain_line(self.log_ptr(tid));
                if self.pool().cas(next.offset(N_DEQ_LOG), 0, log.to_word()).is_ok() {
                    self.pool().flush(next.offset(N_DEQ_LOG));
                    self.complete_dequeue(next, log);
                    // The DONE verdict must not be lost behind an advanced
                    // head: recovery only completes the claimed prefix
                    // still behind the persisted head.
                    self.pool().drain_line(log.offset(L_STATUS));
                    if self.pool().cas(self.head(), first_w, next_w).is_ok()
                        && self.nodes.contains(first)
                    {
                        self.ebr().retire(tid, first);
                    }
                    let val = self.pool().load(log.offset(L_PAYLOAD));
                    self.pool().drain_lines(&[]);
                    return Ok(QueueResp::Value(val));
                } else if self.pool().load(self.head()) == first_w {
                    // Helping: persist the claim, complete the *claimer's*
                    // log entry, then advance head.
                    self.pool().flush(next.offset(N_DEQ_LOG));
                    let claim_log = tag::addr_of(self.pool().load(next.offset(N_DEQ_LOG)));
                    if !claim_log.is_null() {
                        self.complete_dequeue(next, claim_log);
                        // Ordering point: see the claiming branch above.
                        self.pool().drain_line(claim_log.offset(L_STATUS));
                    }
                    if self.pool().cas(self.head(), first_w, next_w).is_ok()
                        && self.nodes.contains(first)
                    {
                        self.ebr().retire(tid, first);
                    }
                    bo.spin();
                }
            }
        }
    }

    /// Detectability: reports the thread's last announced operation and,
    /// if it completed, its response. Run [`recover`](Self::recover)
    /// first after a crash.
    pub fn resolve(&self, h: ThreadHandle) -> LogResolved {
        let log = tag::addr_of(self.pool().load(self.log_ptr(h.slot())));
        if log.is_null() {
            return LogResolved { op: None, resp: None };
        }
        let kind = self.pool().load(log.offset(L_KIND));
        let status = self.pool().load(log.offset(L_STATUS));
        let payload = self.pool().load(log.offset(L_PAYLOAD));
        match kind {
            KIND_ENQ => LogResolved {
                op: Some(Some(payload)),
                resp: (status == STATUS_DONE).then_some(QueueResp::Ok),
            },
            KIND_DEQ => LogResolved {
                op: Some(None),
                resp: if status == STATUS_DONE {
                    Some(if payload == PAYLOAD_EMPTY {
                        QueueResp::Empty
                    } else {
                        QueueResp::Value(payload)
                    })
                } else {
                    None
                },
            },
            k => unreachable!("corrupt log kind {k}"),
        }
    }

    /// Centralized recovery: repairs tail/head, completes claimed dequeue
    /// logs, and completes enqueue logs whose nodes persisted.
    pub fn recover(&self) {
        let old_head = tag::addr_of(self.pool().load(self.head()));
        // Collect the chain; repair tail.
        let mut chain = vec![old_head];
        loop {
            let next = tag::addr_of(self.pool().load(chain.last().unwrap().offset(N_NEXT)));
            if next.is_null() {
                break;
            }
            chain.push(next);
        }
        let last = *chain.last().unwrap();
        self.pool().store(self.tail(), last.to_word());
        self.pool().flush(self.tail());
        // Complete claimed dequeues in the marked prefix; advance head.
        let mut new_head = old_head;
        for pair in chain.windows(2) {
            let node = pair[1];
            let claim_log = tag::addr_of(self.pool().load(node.offset(N_DEQ_LOG)));
            if claim_log.is_null() {
                break;
            }
            self.complete_dequeue(node, claim_log);
            new_head = node;
        }
        self.pool().store(self.head(), new_head.to_word());
        self.pool().flush(self.head());
        // Complete enqueue logs whose node persisted in (or through) the list.
        let mut in_chain = self.nodes.node_set();
        in_chain.extend(chain.iter().copied());
        for tid in 0..self.nthreads() {
            let log = tag::addr_of(self.pool().load(self.log_ptr(tid)));
            if log.is_null() || self.pool().load(log.offset(L_KIND)) != KIND_ENQ {
                continue;
            }
            if self.pool().load(log.offset(L_STATUS)) == STATUS_DONE {
                continue;
            }
            let node = tag::addr_of(self.pool().load(log.offset(L_NODE)));
            let effective = in_chain.contains(node)
                || !tag::addr_of(self.pool().load(node.offset(N_DEQ_LOG))).is_null();
            if effective {
                self.pool().store(log.offset(L_STATUS), STATUS_DONE);
                self.pool().flush(log.offset(L_STATUS));
            }
        }
        self.pool().drain();
    }

    /// Rebuilds the volatile allocators after a crash. A queue node stays
    /// allocated iff it is reachable from the head or a slot's log entry
    /// names it. A log entry stays allocated iff recovery or `resolve` can
    /// still read it: a slot's `logPtr` entry, or the claim log of a node
    /// in the claimed prefix after the head node, which
    /// [`recover`](Self::recover) completes (`attach` rebuilds before it
    /// recovers). The entry a node's `enqLog` word names is never read.
    pub fn rebuild_allocator(&self) {
        let mut live_nodes = self.nodes.node_set();
        let mut live_logs = self.logs.node_set();
        let mut cur = tag::addr_of(self.pool().load(self.head()));
        let mut in_prefix = true;
        loop {
            live_nodes.insert(cur);
            let next = tag::addr_of(self.pool().load(cur.offset(N_NEXT)));
            if next.is_null() {
                break;
            }
            if in_prefix {
                let claim_log = tag::addr_of(self.pool().load(next.offset(N_DEQ_LOG)));
                in_prefix = !claim_log.is_null();
                live_logs.insert(claim_log);
            }
            cur = next;
        }
        for tid in 0..self.nthreads() {
            let log = tag::addr_of(self.pool().load(self.log_ptr(tid)));
            if !log.is_null() {
                live_logs.insert(log);
                live_nodes.insert(tag::addr_of(self.pool().load(log.offset(L_NODE))));
            }
        }
        self.nodes.rebuild(&live_nodes);
        self.logs.rebuild(&live_logs);
        self.ebr().reset();
        self.ebr_logs.reset();
    }

    /// Volatile snapshot of queued (unclaimed) values (test helper).
    pub fn snapshot_values(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = tag::addr_of(self.pool().peek(self.head()));
        loop {
            let next = tag::addr_of(self.pool().peek(cur.offset(N_NEXT)));
            if next.is_null() {
                return out;
            }
            if tag::addr_of(self.pool().peek(next.offset(N_DEQ_LOG))).is_null() {
                out.push(self.pool().peek(next.offset(N_VALUE)));
            }
            cur = next;
        }
    }
}

impl<M: Memory> Deref for LogQueue<M> {
    type Target = ObjectCore<M>;

    fn deref(&self) -> &ObjectCore<M> {
        &self.core
    }
}

impl<M: Memory> fmt::Debug for LogQueue<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogQueue").field("nthreads", &self.nthreads()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_pmem::WritebackAdversary;
    use std::sync::Arc;

    #[test]
    fn fifo_and_empty() {
        let q = LogQueue::new(1, 8);
        let h0 = q.register_thread().unwrap();
        q.enqueue(h0, 1).unwrap();
        q.enqueue(h0, 2).unwrap();
        assert_eq!(q.dequeue(h0).unwrap(), QueueResp::Value(1));
        assert_eq!(q.dequeue(h0).unwrap(), QueueResp::Value(2));
        assert_eq!(q.dequeue(h0).unwrap(), QueueResp::Empty);
    }

    #[test]
    fn resolve_reports_last_op() {
        let q = LogQueue::new(1, 8);
        let h0 = q.register_thread().unwrap();
        q.enqueue(h0, 9).unwrap();
        assert_eq!(q.resolve(h0), LogResolved { op: Some(Some(9)), resp: Some(QueueResp::Ok) });
        q.dequeue(h0).unwrap();
        assert_eq!(q.resolve(h0), LogResolved { op: Some(None), resp: Some(QueueResp::Value(9)) });
    }

    #[test]
    fn crash_sweep_enqueue_detects_consistently() {
        // Run once on an empty queue and once behind a committed value,
        // which every crash point and recovery must keep at the front.
        for prefill in [None, Some(41)] {
            for adv in [WritebackAdversary::None, WritebackAdversary::All] {
                for k in 1..60 {
                    let q = LogQueue::new(1, 8);
                    let h0 = q.register_thread().unwrap();
                    if let Some(v) = prefill {
                        q.enqueue(h0, v).unwrap();
                        q.pool().drain();
                    }
                    let crashed = q.pool().crashes_within(k, || {
                        let _ = q.enqueue(h0, 42);
                    });
                    if !crashed {
                        break;
                    }
                    q.pool().crash(&adv);
                    q.recover();
                    q.rebuild_allocator();
                    let values = q.snapshot_values();
                    let committed: Vec<u64> = prefill.into_iter().collect();
                    assert!(
                        values.starts_with(&committed),
                        "k={k} {adv:?}: lost the committed prefix ({values:?})"
                    );
                    let in_queue = values[committed.len()..] == [42];
                    match q.resolve(h0) {
                        LogResolved { op: None, resp: None } if prefill.is_none() => {
                            assert!(!in_queue, "k={k}")
                        }
                        // The 42 announce was lost: resolve reports the
                        // prefill's completed enqueue.
                        LogResolved { op: Some(Some(41)), resp: Some(QueueResp::Ok) }
                            if prefill.is_some() =>
                        {
                            assert!(!in_queue, "k={k} {adv:?}")
                        }
                        LogResolved { op: Some(Some(42)), resp: Some(QueueResp::Ok) } => {
                            assert!(in_queue, "k={k} {adv:?}")
                        }
                        LogResolved { op: Some(Some(42)), resp: None } => {
                            assert!(!in_queue, "k={k} {adv:?}")
                        }
                        other => panic!("k={k} {adv:?}: impossible resolution {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn crash_sweep_dequeue_detects_consistently() {
        for adv in [WritebackAdversary::None, WritebackAdversary::All] {
            for k in 1..60 {
                let q = LogQueue::new(1, 8);
                let h0 = q.register_thread().unwrap();
                q.enqueue(h0, 7).unwrap();
                let crashed = q.pool().crashes_within(k, || {
                    let _ = q.dequeue(h0);
                });
                if !crashed {
                    break;
                }
                q.pool().crash(&adv);
                q.recover();
                q.rebuild_allocator();
                let still_there = q.snapshot_values() == vec![7];
                match q.resolve(h0) {
                    // The pre-crash enqueue's log may still be announced.
                    LogResolved { op: Some(Some(7)), resp: Some(QueueResp::Ok) } => {
                        assert!(still_there, "k={k} {adv:?}")
                    }
                    LogResolved { op: Some(None), resp: Some(QueueResp::Value(7)) } => {
                        assert!(!still_there, "k={k} {adv:?}")
                    }
                    LogResolved { op: Some(None), resp: None } => {
                        assert!(still_there, "k={k} {adv:?}")
                    }
                    other => panic!("k={k} {adv:?}: impossible resolution {other:?}"),
                }
            }
        }
    }

    #[test]
    fn concurrent_stress_conserves_values() {
        let q = Arc::new(LogQueue::new(4, 64));
        let hs: Vec<_> = (0..4).map(|_| q.register_thread().unwrap()).collect();
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let q = Arc::clone(&q);
                let h = hs[tid];
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..300u64 {
                        q.enqueue(h, (tid as u64) << 32 | (i + 1)).unwrap();
                        if let QueueResp::Value(v) = q.dequeue(h).unwrap() {
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
            (0..4u64).flat_map(|t| (1..=300).map(move |i| t << 32 | i)).collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn a_crash_keeps_enqueues_after_the_node_the_persisted_head_named_is_recycled() {
        // The enqueue of 4 recycles the queue node the head left first,
        // which the persisted head names unless the reclamation round
        // persisted the head; each round costs one flush.
        let q = LogQueue::new(1, 3);
        let h0 = q.register_thread().unwrap();
        for v in 1..=2 {
            q.enqueue(h0, v).unwrap();
            assert_eq!(q.dequeue(h0), Ok(QueueResp::Value(v)));
        }
        let flushes = |v| {
            let before = q.pool().stats();
            q.enqueue(h0, v).unwrap();
            q.pool().stats().since(&before).flushes
        };
        let counted = [flushes(3), flushes(4)];
        q.pool().crash(&WritebackAdversary::None);
        q.recover();
        q.rebuild_allocator();
        assert_eq!(q.snapshot_values(), vec![3, 4]);
        // The enqueue of 4 runs a node and a log reclamation round.
        assert_eq!(counted, [5, 7], "log, pointer, node, link, DONE; + head per round");
    }

    #[test]
    fn a_crash_never_completes_a_claim_through_a_recycled_log_entry() {
        // The dequeue's claim log retires when the enqueue of 2 publishes
        // its own, and the enqueue of 7 recycles it. Unless that log
        // reclamation round persisted the head, the persisted head still
        // lags before the claimed node, and recovery completes the claim
        // through the recycled entry: enqueue(7)'s log.
        for k in 1.. {
            let q = LogQueue::new(1, 3);
            let h0 = q.register_thread().unwrap();
            q.enqueue(h0, 1).unwrap();
            assert_eq!(q.dequeue(h0), Ok(QueueResp::Value(1)));
            q.enqueue(h0, 2).unwrap();
            let crashed = q.pool().crashes_within(k, || {
                q.enqueue(h0, 7).unwrap();
            });
            q.pool().crash(&WritebackAdversary::None);
            q.recover();
            q.rebuild_allocator();
            let values = q.snapshot_values();
            match q.resolve(h0) {
                LogResolved { op: Some(Some(2)), resp: Some(QueueResp::Ok) }
                | LogResolved { op: Some(Some(7)), resp: None } => {
                    assert_eq!(values, [2], "crash at op {k}")
                }
                LogResolved { op: Some(Some(7)), resp: Some(QueueResp::Ok) } => {
                    assert_eq!(values, [2, 7], "crash at op {k}")
                }
                other => panic!("crash at op {k}: impossible resolution {other:?}"),
            }
            if !crashed {
                break;
            }
        }
    }

    #[test]
    fn a_recovered_queue_dequeues_with_every_log_entry_named_by_a_queued_node() {
        // Each queued node names its enqueue's log entry, and the three
        // enqueues used all three: a rebuild that kept those live would
        // leave the dequeue no log entry.
        let q = LogQueue::new(1, 3);
        let h0 = q.register_thread().unwrap();
        for v in 1..=3 {
            q.enqueue(h0, v).unwrap();
        }
        q.pool().crash(&WritebackAdversary::None);
        q.recover();
        q.rebuild_allocator();
        assert_eq!(q.dequeue(h0), Ok(QueueResp::Value(1)));
    }

    #[test]
    fn log_allocation_doubles_per_op_allocations() {
        // The structural cost the paper highlights: one log entry per op.
        let q = LogQueue::new(1, 16);
        let h0 = q.register_thread().unwrap();
        q.enqueue(h0, 1).unwrap();
        assert_eq!(q.logs.total_nodes() - q.logs.free_count(), 1);
        let _ = q.dequeue(h0).unwrap();
        assert_eq!(q.logs.total_nodes() - q.logs.free_count(), 2);
    }
}
