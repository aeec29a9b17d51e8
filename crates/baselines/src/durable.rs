//! Friedman et al.'s durable queue (PPoPP 2018) — recoverable but not
//! detectable.

use std::fmt;
use std::ops::Deref;

use dss_pmem::object::{checked_words, thread_count};
use dss_pmem::{
    tag, AppKind, AttachError, FlushGranularity, Memory, NodePool, ObjectCore, ObjectLayout, PAddr,
    PmemPool, ThreadHandle, WORDS_PER_LINE,
};
use dss_spec::types::QueueResp;

use crate::QueueFull;

const F_VALUE: u64 = 0;
const F_NEXT: u64 = 1;
const F_DEQ_TID: u64 = 2;
const NODE_WORDS: u64 = 4;

const NO_DEQUEUER: u64 = u64::MAX;

/// `returnedValues[tid]` sentinel: a dequeue is in progress.
pub const RV_PENDING: u64 = u64::MAX;
/// `returnedValues[tid]` sentinel: the last dequeue found the queue empty.
pub const RV_EMPTY: u64 = u64::MAX - 1;

// Head, tail and each returnedValues slot on their own cache line.
const A_HEAD: u64 = WORDS_PER_LINE;
const A_TAIL: u64 = 2 * WORDS_PER_LINE;
const A_RV_BASE: u64 = 3 * WORDS_PER_LINE;

/// Structure-kind word a file-backed durable queue records in its pool
/// superblock.
pub const KIND_DURABLE_QUEUE: u64 = AppKind::DurableQueue.word();

/// The durable queue's pool layout, derived from `(nthreads,
/// nodes_per_thread)` alone (cf. dss-core's layout structs).
struct DurableLayout {
    nthreads: usize,
    nodes_per_thread: u64,
    sentinel: u64,
    region: u64,
    reg_base: u64,
}

impl ObjectLayout for DurableLayout {
    const KIND: AppKind = AppKind::DurableQueue;

    fn params(&self) -> Vec<u64> {
        vec![self.nthreads as u64, self.nodes_per_thread]
    }

    fn from_params(p: &[u64]) -> Result<Self, &'static str> {
        let (nthreads, nodes_per_thread) = (thread_count(p[0])?, p[1]);
        let nodes = checked_words(&[nthreads as u64, nodes_per_thread, NODE_WORDS])?;
        let rv_end = A_RV_BASE + nthreads as u64 * WORDS_PER_LINE;
        let sentinel = rv_end.next_multiple_of(NODE_WORDS);
        let region = sentinel + NODE_WORDS;
        let reg_base = (region + nodes).next_multiple_of(WORDS_PER_LINE);
        Ok(DurableLayout { nthreads, nodes_per_thread, sentinel, region, reg_base })
    }

    fn registry_base(&self) -> u64 {
        self.reg_base
    }
}

/// The durable queue of Friedman, Herlihy, Marathe & Petrank: the DSS
/// queue's direct ancestor (paper §3: "the durable queue adds the
/// necessary flush instructions … and also augments the queue node
/// structure by adding a `deqThreadID` field").
///
/// Unlike the DSS queue it reports dequeued values through a shared
/// `returnedValues` array that a **centralized recovery procedure** fills
/// in after a crash — there is no notion of *preparing* an operation, so a
/// thread cannot distinguish "my dequeue never ran" from "it ran and I
/// crashed before reading the result slot". That gap is precisely what
/// detectability (and the DSS) adds.
///
/// Values must be below [`RV_EMPTY`] (the top two values are sentinels).
///
/// # Examples
///
/// ```
/// use dss_baselines::DurableQueue;
/// use dss_spec::types::QueueResp;
///
/// let q = DurableQueue::new(1, 16);
/// let h0 = q.register_thread().unwrap();
/// q.enqueue(h0, 7).unwrap();
/// assert_eq!(q.dequeue(h0), QueueResp::Value(7));
/// assert_eq!(q.last_returned(h0), Some(QueueResp::Value(7)));
/// ```
pub struct DurableQueue<M: Memory = PmemPool> {
    core: ObjectCore<M>,
    nodes: NodePool,
}

impl DurableQueue {
    /// Creates a queue for `nthreads` threads with `nodes_per_thread`
    /// pre-allocated nodes each, on a fresh line-granular [`PmemPool`].
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn new(nthreads: usize, nodes_per_thread: u64) -> Self {
        Self::new_in(nthreads, nodes_per_thread)
    }

    /// Creates a queue on a **file-backed** pool at `path`, recording
    /// [`KIND_DURABLE_QUEUE`] and the construction parameters in the
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
        let layout = DurableLayout::from_args(&[nthreads as u64, nodes_per_thread]);
        let object = ObjectCore::create(path, &layout, FlushGranularity::default())?;
        let q = Self::assemble(object, &layout);
        q.format(layout.sentinel);
        Ok(q)
    }

    /// Rebuilds a queue from a pool file with no in-process state; follow
    /// with the centralized [`recover`](Self::recover) (the durable queue
    /// has no per-thread recovery story).
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

impl<M: Memory> DurableQueue<M> {
    /// Creates a queue on a freshly created backend of type `M`
    /// ([`Memory::create`]) — the backend-generic constructor behind
    /// [`new`](DurableQueue::new).
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn new_in(nthreads: usize, nodes_per_thread: u64) -> Self {
        let layout = DurableLayout::from_args(&[nthreads as u64, nodes_per_thread]);
        let q = Self::assemble(ObjectCore::fresh(&layout, FlushGranularity::default()), &layout);
        q.format(layout.sentinel);
        q
    }

    /// The shared constructor tail: the node allocator over an object
    /// skeleton — everything `attach` must rebuild rather than map.
    fn assemble(object: ObjectCore<M>, layout: &DurableLayout) -> Self {
        let region = PAddr::from_index(layout.region);
        let nodes = NodePool::new(region, NODE_WORDS, layout.nodes_per_thread, layout.nthreads);
        DurableQueue { core: object, nodes }
    }

    /// Writes and persists the initial queue state (fresh pools only —
    /// never run on attach).
    fn format(&self, sentinel: u64) {
        let s = PAddr::from_index(sentinel);
        self.pool().store(s.offset(F_VALUE), 0);
        self.pool().store(s.offset(F_NEXT), 0);
        self.pool().store(s.offset(F_DEQ_TID), NO_DEQUEUER);
        self.pool().flush(s);
        self.pool().store(self.head(), s.to_word());
        self.pool().flush(self.head());
        self.pool().store(self.tail(), s.to_word());
        self.pool().flush(self.tail());
        for i in 0..self.nthreads() {
            self.pool().store(self.rv(i), 0);
            self.pool().flush(self.rv(i));
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
    fn rv(&self, tid: usize) -> PAddr {
        PAddr::from_index(A_RV_BASE + tid as u64 * WORDS_PER_LINE)
    }

    fn alloc(&self, tid: usize) -> Result<PAddr, QueueFull> {
        self.nodes.alloc_with_reclaim(tid, self.ebr()).ok_or(QueueFull)
    }

    /// Appends `val` at the tail (flushing the node and the link, as the
    /// durable queue prescribes).
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the node pool is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `val` is one of the reserved sentinels.
    pub fn enqueue(&self, h: ThreadHandle, val: u64) -> Result<(), QueueFull> {
        let tid = h.slot();
        assert!(val < RV_EMPTY, "values {RV_EMPTY} and above are reserved");
        let node = self.alloc(tid)?;
        self.pool().store(node.offset(F_VALUE), val);
        self.pool().store(node.offset(F_NEXT), 0);
        self.pool().store(node.offset(F_DEQ_TID), NO_DEQUEUER);
        self.pool().flush(node);
        let _g = self.ebr().pin(tid);
        let mut bo = self.new_backoff();
        loop {
            let last_w = self.pool().load(self.tail());
            let last = tag::addr_of(last_w);
            let next_w = self.pool().load(last.offset(F_NEXT));
            if self.pool().load(self.tail()) == last_w {
                if tag::addr_of(next_w).is_null() {
                    // The node must be persistent before it can be linked
                    // (recovery walks persisted links from head).
                    self.pool().drain_lines(&[
                        node.offset(F_VALUE),
                        node.offset(F_NEXT),
                        node.offset(F_DEQ_TID),
                    ]);
                    if self.pool().cas(last.offset(F_NEXT), 0, node.to_word()).is_ok() {
                        self.pool().flush(last.offset(F_NEXT));
                        let _ = self.pool().cas(self.tail(), last_w, node.to_word());
                        self.pool().drain();
                        return Ok(());
                    }
                } else {
                    self.pool().flush(last.offset(F_NEXT));
                    let _ = self.pool().cas(self.tail(), last_w, next_w);
                }
            }
            bo.spin();
        }
    }

    /// Dequeues, publishing the result through `returnedValues[tid]`
    /// (persisted before the head advances, so recovery can re-deliver it).
    pub fn dequeue(&self, h: ThreadHandle) -> QueueResp {
        let tid = h.slot();
        let _g = self.ebr().pin(tid);
        // Announce a pending dequeue in the returnedValues slot.
        self.pool().store(self.rv(tid), RV_PENDING);
        self.pool().flush(self.rv(tid));
        let mut bo = self.new_backoff();
        loop {
            let first_w = self.pool().load(self.head());
            let last_w = self.pool().load(self.tail());
            let first = tag::addr_of(first_w);
            let next_w = self.pool().load(first.offset(F_NEXT));
            let next = tag::addr_of(next_w);
            if self.pool().load(self.head()) != first_w {
                bo.spin();
                continue;
            }
            if first_w == last_w {
                if next.is_null() {
                    self.pool().store(self.rv(tid), RV_EMPTY);
                    self.pool().flush(self.rv(tid));
                    self.pool().drain();
                    return QueueResp::Empty;
                }
                self.pool().flush(first.offset(F_NEXT));
                let _ = self.pool().cas(self.tail(), last_w, next_w);
            } else if self.pool().cas(next.offset(F_DEQ_TID), NO_DEQUEUER, tid as u64).is_ok() {
                self.pool().flush(next.offset(F_DEQ_TID));
                // Ordering point: the published result must not persist
                // ahead of the claim it reports (a surviving result over a
                // lost claim would let the value be delivered twice).
                self.pool().drain_line(next.offset(F_DEQ_TID));
                let val = self.pool().load(next.offset(F_VALUE));
                self.pool().store(self.rv(tid), val);
                self.pool().flush(self.rv(tid));
                // The result must be persistent before head advances past
                // the node: recovery re-publishes only the claimed prefix
                // still behind the persisted head.
                self.pool().drain_line(self.rv(tid));
                if self.pool().cas(self.head(), first_w, next_w).is_ok()
                    && self.nodes.contains(first)
                {
                    self.ebr().retire(tid, first);
                }
                self.pool().drain();
                return QueueResp::Value(val);
            } else if self.pool().load(self.head()) == first_w {
                // Helping: persist the claim, publish the claimer's result,
                // then advance head — one flush more than the DSS queue's
                // helper, as §3.2 notes.
                self.pool().flush(next.offset(F_DEQ_TID));
                // Ordering point: see the claiming branch above.
                self.pool().drain_line(next.offset(F_DEQ_TID));
                let claimer = self.pool().load(next.offset(F_DEQ_TID)) as usize;
                if claimer < self.nthreads() {
                    let val = self.pool().load(next.offset(F_VALUE));
                    self.pool().store(self.rv(claimer), val);
                    self.pool().flush(self.rv(claimer));
                    self.pool().drain_line(self.rv(claimer));
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

    /// The last value published for `tid` through `returnedValues`:
    /// `None` — no dequeue recorded (or one is pending and unrecovered);
    /// `Some(Empty)` / `Some(Value(v))` otherwise.
    pub fn last_returned(&self, h: ThreadHandle) -> Option<QueueResp> {
        match self.pool().load(self.rv(h.slot())) {
            0 | RV_PENDING => None,
            RV_EMPTY => Some(QueueResp::Empty),
            v => Some(QueueResp::Value(v)),
        }
    }

    /// Centralized recovery: repairs tail and head and publishes the
    /// results of claimed-but-unfinished dequeues into `returnedValues`.
    pub fn recover(&self) {
        let old_head = tag::addr_of(self.pool().load(self.head()));
        // Repair tail.
        let mut last = old_head;
        loop {
            let next = tag::addr_of(self.pool().load(last.offset(F_NEXT)));
            if next.is_null() {
                break;
            }
            last = next;
        }
        self.pool().store(self.tail(), last.to_word());
        self.pool().flush(self.tail());
        // Publish results of marked nodes and advance head past them.
        let mut new_head = old_head;
        let mut cur = old_head;
        loop {
            let next = tag::addr_of(self.pool().load(cur.offset(F_NEXT)));
            if next.is_null() {
                break;
            }
            let claimer = self.pool().load(next.offset(F_DEQ_TID));
            if claimer == NO_DEQUEUER {
                break; // unmarked: the dequeued prefix has ended
            }
            let val = self.pool().load(next.offset(F_VALUE));
            if (claimer as usize) < self.nthreads() {
                self.pool().store(self.rv(claimer as usize), val);
                self.pool().flush(self.rv(claimer as usize));
            }
            new_head = next;
            cur = next;
        }
        self.pool().store(self.head(), new_head.to_word());
        self.pool().flush(self.head());
        self.pool().drain();
    }

    /// Rebuilds the volatile allocator after a crash.
    pub fn rebuild_allocator(&self) {
        let mut live = self.nodes.node_set();
        let mut cur = tag::addr_of(self.pool().load(self.head()));
        loop {
            live.insert(cur);
            let next = tag::addr_of(self.pool().load(cur.offset(F_NEXT)));
            if next.is_null() {
                break;
            }
            cur = next;
        }
        self.nodes.rebuild(&live);
        self.ebr().reset();
    }

    /// Volatile snapshot of queued (unmarked) values (test helper).
    pub fn snapshot_values(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = tag::addr_of(self.pool().peek(self.head()));
        loop {
            let next = tag::addr_of(self.pool().peek(cur.offset(F_NEXT)));
            if next.is_null() {
                return out;
            }
            if self.pool().peek(next.offset(F_DEQ_TID)) == NO_DEQUEUER {
                out.push(self.pool().peek(next.offset(F_VALUE)));
            }
            cur = next;
        }
    }
}

impl<M: Memory> Deref for DurableQueue<M> {
    type Target = ObjectCore<M>;

    fn deref(&self) -> &ObjectCore<M> {
        &self.core
    }
}

impl<M: Memory> fmt::Debug for DurableQueue<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableQueue").field("nthreads", &self.nthreads()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_pmem::{CrashSignal, WritebackAdversary};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    #[test]
    fn fifo_and_empty() {
        let q = DurableQueue::new(1, 8);
        let h0 = q.register_thread().unwrap();
        q.enqueue(h0, 1).unwrap();
        q.enqueue(h0, 2).unwrap();
        assert_eq!(q.dequeue(h0), QueueResp::Value(1));
        assert_eq!(q.dequeue(h0), QueueResp::Value(2));
        assert_eq!(q.dequeue(h0), QueueResp::Empty);
        assert_eq!(q.last_returned(h0), Some(QueueResp::Empty));
    }

    #[test]
    fn contents_survive_crash() {
        let q = DurableQueue::new(2, 16);
        let h0 = q.register_thread().unwrap();
        let h1 = q.register_thread().unwrap();
        for v in [1, 2, 3] {
            q.enqueue(h0, v).unwrap();
        }
        assert_eq!(q.dequeue(h1), QueueResp::Value(1));
        q.pool().crash(&WritebackAdversary::None);
        q.recover();
        q.rebuild_allocator();
        assert_eq!(q.snapshot_values(), vec![2, 3]);
        assert_eq!(q.dequeue(h0), QueueResp::Value(2));
    }

    #[test]
    fn recovery_publishes_claimed_dequeue() {
        let q = DurableQueue::new(1, 8);
        let h0 = q.register_thread().unwrap();
        q.enqueue(h0, 42).unwrap();
        // Crash right after the claim CAS + its flush, before the RV store:
        // dequeue ops: RV store, RV flush, head, tail, next, head, CAS
        // claim (7), flush claim (8) — crash on op 9 (the RV store).
        q.pool().arm_crash_after(9);
        let r = catch_unwind(AssertUnwindSafe(|| q.dequeue(h0)));
        q.pool().disarm_crash();
        assert!(r.unwrap_err().downcast_ref::<CrashSignal>().is_some());
        q.pool().crash(&WritebackAdversary::None);
        q.recover();
        // The claim persisted, so recovery must deliver the value.
        assert_eq!(q.last_returned(h0), Some(QueueResp::Value(42)));
        assert!(q.snapshot_values().is_empty());
    }

    #[test]
    fn pending_rv_without_claim_stays_unresolved() {
        let q = DurableQueue::new(1, 8);
        let h0 = q.register_thread().unwrap();
        q.enqueue(h0, 42).unwrap();
        // Crash right after the RV_PENDING announcement (op 3 = head load).
        q.pool().arm_crash_after(3);
        let r = catch_unwind(AssertUnwindSafe(|| q.dequeue(h0)));
        q.pool().disarm_crash();
        assert!(r.is_err());
        q.pool().crash(&WritebackAdversary::None);
        q.recover();
        // No claim persisted: the slot still reads as unresolved and the
        // value is still queued. (The *application* cannot tell whether the
        // op ran — the durable queue is recoverable, not detectable.)
        assert_eq!(q.last_returned(h0), None);
        assert_eq!(q.snapshot_values(), vec![42]);
    }

    #[test]
    fn concurrent_stress_conserves_values() {
        let q = Arc::new(DurableQueue::new(4, 64));
        let hs: Vec<_> = (0..4).map(|_| q.register_thread().unwrap()).collect();
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let q = Arc::clone(&q);
                let h = hs[tid];
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..300u64 {
                        q.enqueue(h, (tid as u64) << 32 | (i + 1)).unwrap();
                        if let QueueResp::Value(v) = q.dequeue(h) {
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
    #[should_panic(expected = "reserved")]
    fn sentinel_values_rejected() {
        let q = DurableQueue::new(1, 4);
        let h0 = q.register_thread().unwrap();
        let _ = q.enqueue(h0, RV_EMPTY);
    }
}
