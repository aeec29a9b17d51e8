//! The Michael & Scott lock-free queue — the volatile baseline.

use std::fmt;
use std::ops::Deref;

use dss_pmem::object::{checked_words, thread_count};
use dss_pmem::{
    tag, AppKind, AttachError, FlushGranularity, Memory, NodePool, ObjectCore, ObjectLayout, PAddr,
    PmemPool, ThreadHandle, WORDS_PER_LINE,
};
use dss_spec::types::QueueResp;

const F_VALUE: u64 = 0;
const F_NEXT: u64 = 1;
const NODE_WORDS: u64 = 4;

// Head and tail each on their own cache line (no false sharing).
const A_HEAD: u64 = WORDS_PER_LINE;
const A_TAIL: u64 = 2 * WORDS_PER_LINE;

/// Structure-kind word a file-backed MS queue records in its pool
/// superblock.
pub const KIND_MS_QUEUE: u64 = AppKind::MsQueue.word();

/// The MS queue's pool layout, derived from `(nthreads, nodes_per_thread)`
/// alone.
struct MsLayout {
    nthreads: usize,
    nodes_per_thread: u64,
    sentinel: u64,
    region: u64,
    reg_base: u64,
}

impl ObjectLayout for MsLayout {
    const KIND: AppKind = AppKind::MsQueue;

    fn params(&self) -> Vec<u64> {
        vec![self.nthreads as u64, self.nodes_per_thread]
    }

    fn from_params(p: &[u64]) -> Result<Self, &'static str> {
        let (nthreads, nodes_per_thread) = (thread_count(p[0])?, p[1]);
        let nodes = checked_words(&[nthreads as u64, nodes_per_thread, NODE_WORDS])?;
        let sentinel = (A_TAIL + WORDS_PER_LINE).next_multiple_of(NODE_WORDS);
        let region = sentinel + NODE_WORDS;
        let reg_base = (region + nodes).next_multiple_of(WORDS_PER_LINE);
        Ok(MsLayout { nthreads, nodes_per_thread, sentinel, region, reg_base })
    }

    fn registry_base(&self) -> u64 {
        self.reg_base
    }
}

/// The classic MS queue (Michael & Scott, PODC 1996), with **no** flush
/// instructions: its state does not survive a crash, which is exactly the
/// point of comparing against it (paper Figure 5a's upper bound).
///
/// Structurally it is the non-detectable DSS queue with the flushes
/// removed, as the paper describes; it runs on the same simulated pool so
/// throughput comparisons isolate the cost of persistence.
///
/// # Examples
///
/// ```
/// use dss_baselines::MsQueue;
/// use dss_spec::types::QueueResp;
///
/// let q = MsQueue::new(1, 16);
/// let h0 = q.register_thread().unwrap();
/// q.enqueue(h0, 9).unwrap();
/// assert_eq!(q.dequeue(h0), QueueResp::Value(9));
/// assert_eq!(q.dequeue(h0), QueueResp::Empty);
/// ```
///
/// Only thread registration flushes; the enqueue and dequeue paths stay
/// flush-free.
pub struct MsQueue<M: Memory = PmemPool> {
    core: ObjectCore<M>,
    nodes: NodePool,
}

use crate::QueueFull;

impl MsQueue {
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
    /// [`KIND_MS_QUEUE`] and the construction parameters in the
    /// superblock.
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
        let layout = MsLayout::from_args(&[nthreads as u64, nodes_per_thread]);
        let object = ObjectCore::create(path, &layout, FlushGranularity::default())?;
        let q = Self::assemble(object, &layout);
        q.format(layout.sentinel);
        Ok(q)
    }

    /// Re-opens an MS queue's pool file. The queue itself is volatile —
    /// its operations never flush, so its contents do **not** survive the
    /// previous process; attach re-formats the queue region to empty.
    /// Only the registry (which does persist) is re-bound, so slot
    /// occupancy and orphan adoption still work across processes — the
    /// contrast with the recoverable queues is exactly the point of this
    /// baseline.
    ///
    /// # Errors
    ///
    /// Any [`AttachError`], including [`AttachError::AppMismatch`] if the
    /// file holds a different structure.
    pub fn attach<P: AsRef<std::path::Path>>(path: P) -> Result<Self, AttachError> {
        let (object, layout) = ObjectCore::attach(path)?;
        let q = Self::assemble(object, &layout);
        // Volatile contents were lost with the previous process: start
        // from an empty queue again.
        q.format(layout.sentinel);
        Ok(q)
    }
}

impl<M: Memory> MsQueue<M> {
    /// Creates a queue on a freshly created backend of type `M`
    /// ([`Memory::create`]) — the backend-generic constructor behind
    /// [`new`](MsQueue::new).
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn new_in(nthreads: usize, nodes_per_thread: u64) -> Self {
        let layout = MsLayout::from_args(&[nthreads as u64, nodes_per_thread]);
        let q = Self::assemble(ObjectCore::fresh(&layout, FlushGranularity::default()), &layout);
        q.format(layout.sentinel);
        q
    }

    /// The shared constructor tail: the node allocator over an object
    /// skeleton.
    fn assemble(object: ObjectCore<M>, layout: &MsLayout) -> Self {
        let region = PAddr::from_index(layout.region);
        let nodes = NodePool::new(region, NODE_WORDS, layout.nodes_per_thread, layout.nthreads);
        MsQueue { core: object, nodes }
    }

    /// Writes the initial queue state. Deliberately unflushed: the MS
    /// queue is the volatile baseline.
    fn format(&self, sentinel: u64) {
        let s = PAddr::from_index(sentinel);
        self.pool().store(s.offset(F_VALUE), 0);
        self.pool().store(s.offset(F_NEXT), 0);
        self.pool().store(PAddr::from_index(A_HEAD), s.to_word());
        self.pool().store(PAddr::from_index(A_TAIL), s.to_word());
    }

    fn head(&self) -> PAddr {
        PAddr::from_index(A_HEAD)
    }

    fn tail(&self) -> PAddr {
        PAddr::from_index(A_TAIL)
    }

    fn alloc(&self, tid: usize) -> Result<PAddr, QueueFull> {
        self.nodes.alloc_with_reclaim(tid, self.ebr()).ok_or(QueueFull)
    }

    /// Appends `val` at the tail.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the node pool is exhausted.
    pub fn enqueue(&self, h: ThreadHandle, val: u64) -> Result<(), QueueFull> {
        let tid = h.slot();
        let node = self.alloc(tid)?;
        self.pool().store(node.offset(F_VALUE), val);
        self.pool().store(node.offset(F_NEXT), 0);
        let _g = self.ebr().pin(tid);
        let mut bo = self.new_backoff();
        loop {
            let last_w = self.pool().load(self.tail());
            let last = tag::addr_of(last_w);
            let next_w = self.pool().load(last.offset(F_NEXT));
            if self.pool().load(self.tail()) == last_w {
                if tag::addr_of(next_w).is_null() {
                    if self.pool().cas(last.offset(F_NEXT), 0, node.to_word()).is_ok() {
                        let _ = self.pool().cas(self.tail(), last_w, node.to_word());
                        return Ok(());
                    }
                } else {
                    let _ = self.pool().cas(self.tail(), last_w, next_w);
                }
            }
            bo.spin();
        }
    }

    /// Removes and returns the value at the head, or
    /// [`QueueResp::Empty`].
    pub fn dequeue(&self, h: ThreadHandle) -> QueueResp {
        let tid = h.slot();
        let _g = self.ebr().pin(tid);
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
                    return QueueResp::Empty;
                }
                let _ = self.pool().cas(self.tail(), last_w, next_w);
            } else {
                // Read the value *before* swinging head (the classic MS
                // subtlety: after the CAS another thread may free `next`).
                let val = self.pool().load(next.offset(F_VALUE));
                if self.pool().cas(self.head(), first_w, next_w).is_ok() {
                    if self.nodes.contains(first) {
                        self.ebr().retire(tid, first);
                    }
                    return QueueResp::Value(val);
                }
                bo.spin();
            }
        }
    }

    /// Volatile snapshot of queued values (test helper).
    pub fn snapshot_values(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = tag::addr_of(self.pool().peek(self.head()));
        loop {
            let next = tag::addr_of(self.pool().peek(cur.offset(F_NEXT)));
            if next.is_null() {
                return out;
            }
            out.push(self.pool().peek(next.offset(F_VALUE)));
            cur = next;
        }
    }
}

impl<M: Memory> Deref for MsQueue<M> {
    type Target = ObjectCore<M>;

    fn deref(&self) -> &ObjectCore<M> {
        &self.core
    }
}

impl<M: Memory> fmt::Debug for MsQueue<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MsQueue").field("nthreads", &self.nthreads()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_pmem::WritebackAdversary;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = MsQueue::new(1, 8);
        let h0 = q.register_thread().unwrap();
        for v in [1, 2, 3] {
            q.enqueue(h0, v).unwrap();
        }
        assert_eq!(q.dequeue(h0), QueueResp::Value(1));
        assert_eq!(q.dequeue(h0), QueueResp::Value(2));
        assert_eq!(q.dequeue(h0), QueueResp::Value(3));
        assert_eq!(q.dequeue(h0), QueueResp::Empty);
    }

    #[test]
    fn no_flushes_issued() {
        let q = MsQueue::new(1, 8);
        // Registration flushes registry metadata; the op paths must not.
        let h0 = q.register_thread().unwrap();
        q.pool().reset_stats();
        q.enqueue(h0, 1).unwrap();
        q.dequeue(h0);
        assert_eq!(q.pool().stats().flushes, 0, "the MS queue never flushes");
    }

    #[test]
    fn state_does_not_survive_crash() {
        let q = MsQueue::new(1, 8);
        let h0 = q.register_thread().unwrap();
        q.enqueue(h0, 1).unwrap();
        q.pool().crash(&WritebackAdversary::None);
        // Everything, including head/tail, reverted to zero: the queue is
        // simply gone. (This is why the durable/DSS queues exist.)
        assert_eq!(q.pool().peek(PAddr::from_index(A_HEAD)), 0);
    }

    #[test]
    fn concurrent_stress() {
        let q = Arc::new(MsQueue::new(4, 64));
        let hs: Vec<_> = (0..4).map(|_| q.register_thread().unwrap()).collect();
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let q = Arc::clone(&q);
                let h = hs[tid];
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..500u64 {
                        q.enqueue(h, (tid as u64) << 32 | i).unwrap();
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
            (0..4u64).flat_map(|t| (0..500).map(move |i| t << 32 | i)).collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn recycles_through_small_pool() {
        let q = MsQueue::new(1, 4);
        let h0 = q.register_thread().unwrap();
        for i in 0..200 {
            q.enqueue(h0, i).unwrap();
            assert_eq!(q.dequeue(h0), QueueResp::Value(i));
        }
    }
}
