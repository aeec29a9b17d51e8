//! Detectable flat combining for the DSS queue (the `--combining` axis).
//!
//! The DSS transformation already publishes every pending operation in a
//! cache-line-padded per-thread announce slot `X[tid]` — exactly a flat
//! combining *publication array*. [`CombiningQueue`] keeps the paper's
//! `prep-*`/`exec-*`/`resolve` surface but replaces the CAS-racing
//! execution with a combiner: `prep_*` stays announce-only, and `exec`
//! either takes the **combiner lease** (one persistent word holding the
//! holder's registry nonce) and applies *every* announced operation in one
//! sequential pass over the queue, or spin-waits until the combiner has
//! recorded its result in `X[tid]`.
//!
//! ## Batch persist ordering
//!
//! The combiner issues one [`Memory::persist_batch`] per *persist phase*
//! instead of per-operation flush/drain pairs — three ordering points per
//! batch, however many operations it holds:
//!
//! 1. **Phase A** — link words of freshly enqueued nodes and dequeuers'
//!    predecessor announces (plain stores, then one `persist_batch`);
//! 2. **Phase B** — enqueue completion marks (`ENQ_COMPL` in `X`) and
//!    dequeue claims (`deqThreadID` in the claimed node), persisted only
//!    after phase A is durable;
//! 3. **Phase C** — empty-dequeue verdicts, persisted only after phase B
//!    is durable; then the batch's single head/tail advance as *plain
//!    stores*. Head and tail are never flushed — the same discipline as
//!    the paper's Figure 4, whose head/tail CAS swings (lines 15, 19, 45,
//!    52) carry no flush: both are volatile hints that recovery
//!    reconstructs from the persisted links and `deqThreadID` claims.
//!
//! The phases preserve exactly the per-operation persist edges the paper's
//! flush order establishes: a completion mark never becomes durable before
//! the link it certifies, a claim never before the predecessor announce
//! and linkage it depends on, and an `EMPTY` verdict never before the
//! claims that made the queue empty. Under the simulator's random
//! write-back adversary any *dirty* word may persist at a crash, so these
//! three ordering points are not an optimization nicety — they are what
//! keeps a half-applied batch resolvable by the standard Figure 6 recovery
//! with no extra repair pass.
//!
//! ## Lease handoff
//!
//! The lease word holds the current combiner's registry nonce (PR 4's
//! (pid, nonce) machinery): a nonce no LIVE slot carries belongs to a dead
//! or departed holder, so a parked waiter that observes a stable foreign
//! lease probes the registry and *steals* the lease by CAS. Because
//! adoption and re-registration mint fresh nonces, a stolen lease can
//! never belong to a live combiner; and because a combiner's volatile
//! writes are reverted by the crash that killed it, the thief always sees
//! a queue whose only half-applied effects are *durable* ones — which the
//! combiner loop re-applies idempotently (an already-linked node is
//! detected by membership/mark, an existing claim is kept, a completion
//! mark is re-issued).
//!
//! The lease itself is volatile coordination and is never flushed on the
//! hot path: a crash reverts it to whatever last persisted (free, or a
//! nonce no longer carried by any LIVE slot), and both images are handled
//! — centralized recovery [`clear_lease`]s it durably, independent
//! recovery leaves it for the staleness probe to steal.
//!
//! [`clear_lease`]: CombiningQueue::recover
//!
//! [`Memory::persist_batch`]: dss_pmem::Memory::persist_batch

use std::fmt;
use std::ops::Deref;
use std::sync::Mutex;

use dss_pmem::{
    tag, AppKind, AttachError, FlushGranularity, Memory, ObjectCore, ObjectLayout, PAddr, PmemPool,
    ThreadHandle, WORDS_PER_LINE,
};
use dss_spec::types::QueueResp;

use super::{DssQueue, QueueFull, QueueLayout, Resolved, F_DEQ_TID, F_NEXT, F_VALUE, NO_DEQUEUER};
use crate::detect::{DetectableCore, Lease};

/// The structure-kind tag a [`CombiningQueue`] records in its pool file's
/// superblock: a combining pool is *not* attachable by the CAS-racing
/// [`DssQueue::attach`] (and vice versa) because the two execution layers
/// make different persist-ordering promises per word.
pub const KIND_DSS_QUEUE_COMBINING: u64 = AppKind::DssQueueCombining.word();

/// One staged durable effect of a batch, applied in the phase that its
/// persist-order dependencies have already drained by.
enum Effect {
    /// Mark an enqueue completed (phase B).
    Compl { slot: usize, x: u64 },
    /// Claim `node` for `slot`'s dequeue (phase B).
    Claim { slot: usize, node: PAddr },
    /// Record an empty-queue dequeue (phase C).
    Empty { slot: usize },
}

/// Reusable combiner working memory: a batch allocates nothing.
#[derive(Default)]
struct Scratch {
    /// The gathered batch: (slot, announced X word), in slot order.
    batch: Vec<(usize, u64)>,
    /// The batch's staged phase B/C effects.
    effects: Vec<Effect>,
    /// Addresses dirtied by the current phase.
    lines: Vec<PAddr>,
    /// Nodes this batch consumed (recycled after phase C).
    consumed: Vec<PAddr>,
}

/// The flat-combining execution layer over a [`DssQueue`].
///
/// Same prep/exec/resolve surface and the same persistent queue
/// representation (Michael–Scott list + detectability words), but `exec`
/// is served by a single lease-holding combiner that batch-applies every
/// announced operation with three [`persist_batch`] ordering points per
/// batch — the module documentation of `queue/combining.rs` gives the
/// protocol and its crash argument.
///
/// Interoperability: the persisted list and `X` words are bit-compatible
/// with [`DssQueue`]'s, so [`resolve`](Self::resolve), Figure 6 recovery
/// and the checker treat combined executions exactly like CAS-raced ones.
/// Pools are still kind-tagged differently ([`KIND_DSS_QUEUE_COMBINING`])
/// so the two execution layers cannot be mixed *live* on one pool.
///
/// [`persist_batch`]: dss_pmem::Memory::persist_batch
pub struct CombiningQueue<M: Memory = PmemPool> {
    q: DssQueue<M>,
    /// The combiner lease (its word on its own cache line after the
    /// registry region) and the volatile publication flags.
    pub(super) lease: Lease,
    /// Combiner scratch, reused across tenures so a batch allocates
    /// nothing. Uncontended by construction: only the lease holder takes
    /// the lock.
    scratch: Mutex<Scratch>,
}

/// The combining queue's pool layout: the [`DssQueue`] layout plus the
/// lease word on its own cache line directly after it (the queue layout
/// ends line-aligned at the registry region).
struct CombiningLayout {
    queue: QueueLayout,
    lease: u64,
}

impl ObjectLayout for CombiningLayout {
    const KIND: AppKind = AppKind::DssQueueCombining;

    fn params(&self) -> Vec<u64> {
        self.queue.params()
    }

    fn from_params(p: &[u64]) -> Result<Self, &'static str> {
        let queue = QueueLayout::from_params(p)?;
        let lease = queue.pool_words().next_multiple_of(WORDS_PER_LINE);
        Ok(CombiningLayout { queue, lease })
    }

    fn pool_words(&self) -> u64 {
        self.lease + WORDS_PER_LINE
    }

    fn registry_base(&self) -> u64 {
        self.queue.registry_base()
    }
}

impl CombiningQueue {
    /// Creates a combining queue for `nthreads` threads with
    /// `nodes_per_thread` pre-allocated nodes each, on a fresh
    /// line-granular pool.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn new(nthreads: usize, nodes_per_thread: u64) -> Self {
        Self::new_in(nthreads, nodes_per_thread, FlushGranularity::Line)
    }

    /// Creates a combining queue on a **file-backed** pool at `path`,
    /// recording [`KIND_DSS_QUEUE_COMBINING`] in the superblock so
    /// [`attach`](Self::attach) (and only it — [`DssQueue::attach`]
    /// rejects the file with [`AttachError::AppMismatch`]) can rebuild it
    /// from the path alone.
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
        let layout = CombiningLayout::from_args(&[nthreads as u64, nodes_per_thread]);
        let q = DssQueue::assemble(ObjectCore::create(path, &layout, granularity)?, &layout.queue);
        q.format(layout.queue.sentinel);
        Ok(Self::wrap(q, &layout))
    }

    /// Rebuilds a combining queue from a pool file with no in-process
    /// state, exactly like [`DssQueue::attach`] (registry re-bound,
    /// allocator rebuilt, attach is a crash boundary) plus one combining
    /// obligation: the lease word is cleared, since whatever process held
    /// it is gone and no thread of *this* process can hold it yet.
    ///
    /// # Errors
    ///
    /// Any [`AttachError`] of [`ObjectCore::attach`]; in particular
    /// [`AttachError::AppMismatch`] if the file holds a non-combining
    /// structure (e.g. a plain [`DssQueue`] pool).
    pub fn attach<P: AsRef<std::path::Path>>(path: P) -> Result<Self, AttachError> {
        let (object, layout) = ObjectCore::attach::<CombiningLayout, _>(path)?;
        let q = DssQueue::assemble(object, &layout.queue);
        q.rebuild_allocator();
        Ok(Self::wrap(q, &layout))
    }
}

impl<M: Memory> CombiningQueue<M> {
    /// Creates a combining queue on a freshly created backend of type `M`
    /// — the backend-generic constructor behind
    /// [`new`](CombiningQueue::new).
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn new_in(nthreads: usize, nodes_per_thread: u64, granularity: FlushGranularity) -> Self {
        let layout = CombiningLayout::from_args(&[nthreads as u64, nodes_per_thread]);
        let q = DssQueue::assemble(ObjectCore::fresh(&layout, granularity), &layout.queue);
        q.format(layout.queue.sentinel);
        Self::wrap(q, &layout)
    }

    /// Puts the lease over a formatted or attached queue and clears it.
    fn wrap(q: DssQueue<M>, layout: &CombiningLayout) -> Self {
        let lease = Lease::new(PAddr::from_index(layout.lease), q.nthreads());
        let cq = CombiningQueue { q, lease, scratch: Mutex::new(Scratch::default()) };
        cq.clear_lease();
        cq
    }

    fn clear_lease(&self) {
        self.lease.clear(self.pool().as_ref());
    }

    /// Total completed operations (volatile; for workloads and tests).
    pub fn ops_completed(&self) -> u64 {
        self.q.ops_completed()
    }

    /// **resolve**: identical to [`DssQueue::resolve`] — the combiner
    /// records results in the same detectability words the CAS-racing
    /// execution uses, so detection code is shared, not duplicated.
    pub fn resolve(&self, h: ThreadHandle) -> Resolved {
        self.q.resolve(h)
    }

    /// Volatile inspection helper (see [`DssQueue::snapshot_values`]).
    pub fn snapshot_values(&self) -> Vec<u64> {
        self.q.snapshot_values()
    }

    /// **prep-enqueue**: announce-only, exactly the paper's prep (the
    /// durable announce in `X[tid]` doubles as the combining publication
    /// record), plus a volatile flag raise so combiners can scan
    /// publications without touching the pool.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the node pool is exhausted.
    pub fn prep_enqueue(&self, h: ThreadHandle, val: u64) -> Result<(), QueueFull> {
        self.q.prep_enqueue(h, val)?;
        self.lease.announce(h.slot());
        Ok(())
    }

    /// **prep-dequeue**: announce-only (see
    /// [`prep_enqueue`](Self::prep_enqueue)).
    pub fn prep_dequeue(&self, h: ThreadHandle) {
        self.q.prep_dequeue(h);
        self.lease.announce(h.slot());
    }

    /// **exec-enqueue**: combine or wait until the announced enqueue has
    /// been applied *and persisted* (waiters are released only after the
    /// batch's final ordering point, so a returned operation is durable).
    ///
    /// Idempotent: with no announcement outstanding (double `exec`, or
    /// `exec` re-run after a crash already resolved the slot) it returns
    /// immediately instead of parking on a batch that will never form.
    pub fn exec_enqueue(&self, h: ThreadHandle) {
        self.lease.exec(&self.q.core, h, |me| self.combine(me));
    }

    /// **exec-dequeue**: combine or wait, then read the response the
    /// combiner recorded in this thread's detectability word. Idempotent
    /// like [`exec_enqueue`](Self::exec_enqueue) — re-running it just
    /// re-reads the recorded response.
    pub fn exec_dequeue(&self, h: ThreadHandle) -> QueueResp {
        self.lease.exec(&self.q.core, h, |me| self.combine(me));
        let tid = h.slot();
        let x = self.q.pool().load(self.q.x_addr(tid));
        if tag::has(x, tag::EMPTY) {
            return QueueResp::Empty;
        }
        // X holds the predecessor of the claimed node (the same encoding
        // the CAS-racing exec writes); both nodes are reclamation-guarded
        // while X names them, so the unpinned reads are safe.
        let pred = tag::addr_of(x);
        let node = tag::addr_of(self.q.pool().load(pred.offset(F_NEXT)));
        debug_assert_eq!(self.q.pool().load(node.offset(F_DEQ_TID)), tid as u64);
        QueueResp::Value(self.q.pool().load(node.offset(F_VALUE)))
    }

    /// Detectable enqueue: `prep` + `exec`.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the node pool is exhausted.
    pub fn enqueue(&self, h: ThreadHandle, val: u64) -> Result<(), QueueFull> {
        self.prep_enqueue(h, val)?;
        self.exec_enqueue(h);
        Ok(())
    }

    /// Detectable dequeue: `prep` + `exec`. (Combining mode has no
    /// separate non-detectable path — every operation goes through the
    /// publication array.)
    pub fn dequeue(&self, h: ThreadHandle) -> QueueResp {
        self.prep_dequeue(h);
        self.exec_dequeue(h)
    }

    /// The combiner: applies every announced-but-unapplied operation in
    /// one sequential pass with three persist phases (see module docs).
    /// Caller must hold the lease.
    fn combine(&self, me: ThreadHandle) {
        let pool = self.q.pool().as_ref();
        let my = me.slot();
        let _guard = self.q.pin(my);
        let mut scratch = self.scratch.lock().unwrap();
        let Scratch { batch, effects, lines, consumed } = &mut *scratch;
        batch.clear();
        effects.clear();
        lines.clear();
        consumed.clear();

        // Gather the batch in slot order — the order the batch's
        // operations are applied (and hence linearized) in.
        for s in 0..self.q.nthreads() {
            if self.lease.is_announced(s) {
                batch.push((s, pool.load(self.q.x_addr(s))));
            }
        }
        if batch.is_empty() {
            return;
        }

        // The two cursors of the sequential pass, both O(1) amortized:
        // the lease makes this combiner the only mutator, and recovery
        // re-derives both pointers (Figure 6, lines 65–69), so the
        // head/tail hints are at most a consumed prefix (claims from a
        // dead tenure) or a link chase (appends from one) behind.
        //
        // `sentinel` is the last consumed node — dequeues claim
        // `sentinel.next` and advance it; `last` is the true final node —
        // enqueues link onto it. Nodes the sentinel hops over are
        // consumed; they are collected here and recycled only after
        // phase C, when the claims that consumed this batch's share of
        // them are durable.
        let mut sentinel = tag::addr_of(pool.load(self.q.head_addr()));
        loop {
            let next = tag::addr_of(pool.load(sentinel.offset(F_NEXT)));
            if next.is_null() || pool.load(next.offset(F_DEQ_TID)) == NO_DEQUEUER {
                break;
            }
            consumed.push(sentinel);
            sentinel = next;
        }
        let mut last = tag::addr_of(pool.load(self.q.tail_addr()));
        loop {
            let next = tag::addr_of(pool.load(last.offset(F_NEXT)));
            if next.is_null() {
                break;
            }
            last = next;
        }

        // Phase A: link fresh enqueue nodes, announce dequeue
        // predecessors. Volatile stores only, then one persist.
        for &(s, x) in batch.iter() {
            if tag::has(x, tag::ENQ_PREP) {
                let node = tag::addr_of(x);
                // A fresh prep'd node carries a flushed null link and an
                // unset deqThreadID, and is not the list's last node. One
                // a dead combiner already linked is either still the
                // last, or has a successor, or has been consumed — no
                // membership walk needed.
                let applied = tag::has(x, tag::ENQ_COMPL)
                    || pool.load(node.offset(F_DEQ_TID)) != NO_DEQUEUER
                    || node == last
                    || !tag::addr_of(pool.load(node.offset(F_NEXT))).is_null();
                if !applied {
                    pool.store(last.offset(F_NEXT), node.to_word());
                    lines.push(last.offset(F_NEXT));
                    last = node;
                }
                // Already-effective enqueues (a dead combiner linked the
                // node but its completion mark may not be durable) fall
                // through: re-issuing the mark in phase B is idempotent.
                effects.push(Effect::Compl { slot: s, x });
            } else if tag::has(x, tag::DEQ_PREP) {
                if tag::has(x, tag::EMPTY) {
                    // A durable empty verdict from a dead combiner;
                    // re-persisting it in phase C is idempotent.
                    effects.push(Effect::Empty { slot: s });
                    continue;
                }
                let pred = tag::addr_of(x);
                if !pred.is_null() {
                    // A predecessor announce from a dead combiner. Keep
                    // the claim if it stuck (re-persist announce + claim);
                    // otherwise assign afresh below.
                    let node = tag::addr_of(pool.load(pred.offset(F_NEXT)));
                    if !node.is_null() && pool.load(node.offset(F_DEQ_TID)) == s as u64 {
                        pool.store(self.q.x_addr(s), x);
                        lines.push(self.q.x_addr(s));
                        effects.push(Effect::Claim { slot: s, node });
                        continue;
                    }
                }
                let node = tag::addr_of(pool.load(sentinel.offset(F_NEXT)));
                if !node.is_null() {
                    pool.store(self.q.x_addr(s), tag::set(sentinel.to_word(), tag::DEQ_PREP));
                    lines.push(self.q.x_addr(s));
                    effects.push(Effect::Claim { slot: s, node });
                    consumed.push(sentinel);
                    sentinel = node;
                } else {
                    effects.push(Effect::Empty { slot: s });
                }
            }
            // X without ENQ_PREP/DEQ_PREP: nothing announced (defensive);
            // the slot is still released below so its owner never parks
            // forever.
        }
        pool.persist_batch(lines);

        // Phase B: completion marks and claims — durable only after the
        // links and announces they certify.
        lines.clear();
        for e in effects.iter() {
            match *e {
                Effect::Compl { slot, x } => {
                    let xa = self.q.x_addr(slot);
                    pool.store(xa, tag::set(x, tag::ENQ_COMPL));
                    lines.push(xa);
                }
                Effect::Claim { slot, node } => {
                    pool.store(node.offset(F_DEQ_TID), slot as u64);
                    lines.push(node.offset(F_DEQ_TID));
                }
                Effect::Empty { .. } => {}
            }
        }
        pool.persist_batch(lines);

        // Phase C: empty verdicts — durable only after the claims that
        // made the queue empty. Then the batch's single head/tail advance,
        // as plain stores: like the Figure 4 swings, head and tail are
        // volatile hints that recovery rebuilds from links and claims.
        lines.clear();
        for e in effects.iter() {
            if let Effect::Empty { slot } = *e {
                let xa = self.q.x_addr(slot);
                pool.store(xa, tag::DEQ_PREP | tag::EMPTY);
                lines.push(xa);
            }
        }
        pool.persist_batch(lines);
        if !consumed.is_empty() {
            pool.store(self.q.head_addr(), sentinel.to_word());
        }
        if tag::addr_of(pool.load(self.q.tail_addr())) != last {
            pool.store(self.q.tail_addr(), last.to_word());
        }

        // The nodes the head hopped over are consumed; recycle them (the
        // allocator's X-reference guard keeps any a detectability word
        // still names out of circulation until the word moves on).
        for &n in consumed.iter() {
            self.q.retire_node(my, n);
        }

        // Release the batch only now: every effect is durable, so a
        // waiter that returns holds a persisted result.
        for &(s, _) in batch.iter() {
            self.q.bump_ops(s);
            self.lease.done(s);
        }
    }

    /// Figure 6 recovery plus the combining obligations: reset the
    /// volatile announce flags and clear the lease (its holder — if any —
    /// died in the crash). The three-phase batch persist ordering
    /// guarantees the standard reachable-or-marked repair resolves any
    /// half-applied batch; no combining-specific repair pass exists.
    pub fn recover(&self) -> Vec<ThreadHandle> {
        self.lease.reset_all();
        self.clear_lease();
        self.q.recover()
    }

    /// Independent per-slot recovery (§3.3; see [`DssQueue::recover_one`]).
    /// The lease is deliberately *not* touched: other slots may already be
    /// live again and combining, and a dead holder's lease is reclaimed by
    /// the waiters' staleness steal instead.
    pub fn recover_one(&self, h: ThreadHandle) {
        self.lease.reset(h.slot());
        self.q.recover_one(h);
    }

    /// Rebuilds the volatile allocator and reclamation state after a
    /// crash (see [`DssQueue::rebuild_allocator`]).
    pub fn rebuild_allocator(&self) {
        self.q.rebuild_allocator();
    }
}

/// The slot API, the pool and the backoff knob are the inner queue's
/// skeleton. The backoff knob is accepted for parity with
/// [`DssQueue`]; waiters always park with the adaptive tuner (there is no
/// CAS retry loop whose instruction sequence the flag would need to
/// preserve). [`begin_recovery`](ObjectCore::begin_recovery) is
/// **required after every crash before any thread resumes `exec`**:
/// lease-staleness detection keys off orphaned slots, so skipping the
/// boundary would let waiters spin on a dead combiner's lease forever.
impl<M: Memory> Deref for CombiningQueue<M> {
    type Target = DetectableCore<M>;

    fn deref(&self) -> &DetectableCore<M> {
        &self.q
    }
}

impl<M: Memory> fmt::Debug for CombiningQueue<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CombiningQueue")
            .field("queue", &self.q)
            .field("lease", &self.lease.word())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ResolvedOp, KIND_DSS_QUEUE};
    use super::*;
    use dss_pmem::WritebackAdversary;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn fifo_order_single_thread() {
        let q = CombiningQueue::new(1, 8);
        let h0 = q.register_thread().unwrap();
        for v in [10, 20, 30] {
            q.enqueue(h0, v).unwrap();
        }
        assert_eq!(q.dequeue(h0), QueueResp::Value(10));
        assert_eq!(q.dequeue(h0), QueueResp::Value(20));
        assert_eq!(q.dequeue(h0), QueueResp::Value(30));
        assert_eq!(q.dequeue(h0), QueueResp::Empty);
    }

    #[test]
    fn resolve_matches_cas_layer_semantics() {
        let q = CombiningQueue::new(1, 8);
        let h0 = q.register_thread().unwrap();
        assert_eq!(q.resolve(h0), Resolved { op: None, resp: None });
        q.prep_enqueue(h0, 9).unwrap();
        q.exec_enqueue(h0);
        assert_eq!(
            q.resolve(h0),
            Resolved { op: Some(ResolvedOp::Enqueue(9)), resp: Some(QueueResp::Ok) }
        );
        q.prep_dequeue(h0);
        assert_eq!(q.exec_dequeue(h0), QueueResp::Value(9));
        assert_eq!(
            q.resolve(h0),
            Resolved { op: Some(ResolvedOp::Dequeue), resp: Some(QueueResp::Value(9)) }
        );
        q.prep_dequeue(h0);
        assert_eq!(q.exec_dequeue(h0), QueueResp::Empty);
        assert_eq!(
            q.resolve(h0),
            Resolved { op: Some(ResolvedOp::Dequeue), resp: Some(QueueResp::Empty) }
        );
    }

    #[test]
    fn exec_is_idempotent() {
        let q = CombiningQueue::new(1, 8);
        let h0 = q.register_thread().unwrap();
        q.prep_enqueue(h0, 1).unwrap();
        q.exec_enqueue(h0);
        q.exec_enqueue(h0); // must not park on an empty publication array
        q.prep_dequeue(h0);
        assert_eq!(q.exec_dequeue(h0), QueueResp::Value(1));
        assert_eq!(q.exec_dequeue(h0), QueueResp::Value(1));
    }

    #[test]
    fn concurrent_threads_conserve_values_and_per_thread_order() {
        const THREADS: usize = 4;
        const PAIRS: u64 = 150;
        let q = CombiningQueue::new(THREADS, 64);
        let hs: Vec<ThreadHandle> = (0..THREADS).map(|_| q.register_thread().unwrap()).collect();
        let dequeued: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = hs
                .iter()
                .enumerate()
                .map(|(tid, &h)| {
                    let q = &q;
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        for i in 1..=PAIRS {
                            q.enqueue(h, ((tid as u64) << 32) | i).unwrap();
                            if let QueueResp::Value(v) = q.dequeue(h) {
                                got.push(v);
                            }
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|t| t.join().unwrap()).collect()
        });
        // Every enqueued value comes out exactly once (queue never holds
        // more than THREADS values, so it drains to empty by the end).
        let mut all: Vec<u64> = dequeued.into_iter().flatten().collect();
        let mut leftover = q.snapshot_values();
        all.append(&mut leftover);
        all.sort_unstable();
        let mut expect: Vec<u64> =
            (0..THREADS as u64).flat_map(|t| (1..=PAIRS).map(move |i| (t << 32) | i)).collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }

    #[test]
    fn combined_batches_survive_a_crash_and_resolve() {
        // Crash a single-thread combining exec at a few points spanning
        // the persist phases; the standard recovery must make resolve's
        // answer consistent (the exhaustive version is the harness sweep).
        for k in 1..=25u64 {
            let q = CombiningQueue::new(1, 8);
            let h0 = q.register_thread().unwrap();
            q.enqueue(h0, 7).unwrap();
            q.pool().arm_crash_after(k);
            let r = catch_unwind(AssertUnwindSafe(|| {
                q.prep_dequeue(h0);
                let _ = q.exec_dequeue(h0);
            }));
            q.pool().disarm_crash();
            if r.is_ok() {
                break;
            }
            q.pool().crash(&WritebackAdversary::All);
            q.recover();
            q.rebuild_allocator();
            match q.resolve(h0) {
                Resolved { op: Some(ResolvedOp::Dequeue), resp: Some(QueueResp::Value(7)) } => {
                    assert!(q.snapshot_values().is_empty(), "k={k}");
                }
                Resolved { op: Some(ResolvedOp::Dequeue), resp: None } => {
                    assert_eq!(q.snapshot_values(), [7], "k={k}");
                }
                Resolved { op: Some(ResolvedOp::Enqueue(7)), resp: Some(QueueResp::Ok) } => {
                    // The dequeue announce itself was lost to the crash.
                    assert_eq!(q.snapshot_values(), [7], "k={k}");
                }
                other => panic!("k={k}: unexpected resolution {other:?}"),
            }
        }
    }

    /// A unique pool-file path, removed again on drop.
    struct TmpPool(PathBuf);

    impl TmpPool {
        fn new(name: &str) -> Self {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let mut p = std::env::temp_dir();
            p.push(format!("dss-combining-{}-{name}-{n}.pool", std::process::id()));
            TmpPool(p)
        }
    }

    impl Drop for TmpPool {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn file_backed_create_attach_round_trip() {
        let tmp = TmpPool::new("roundtrip");
        {
            let q = CombiningQueue::create(&tmp.0, 2, 8).unwrap();
            let h0 = q.register_thread().unwrap();
            q.enqueue(h0, 1).unwrap();
            q.prep_enqueue(h0, 2).unwrap();
            q.exec_enqueue(h0);
            q.pool().drain();
        }
        let q = CombiningQueue::attach(&tmp.0).unwrap();
        let adopted = q.recover();
        assert_eq!(adopted.len(), 1);
        q.rebuild_allocator();
        assert_eq!(
            q.resolve(adopted[0]),
            Resolved { op: Some(ResolvedOp::Enqueue(2)), resp: Some(QueueResp::Ok) }
        );
        assert_eq!(q.snapshot_values(), [1, 2]);
        assert_eq!(q.dequeue(adopted[0]), QueueResp::Value(1));
    }

    #[test]
    fn attach_rejects_the_other_execution_layer() {
        let tmp = TmpPool::new("kind-combining");
        drop(CombiningQueue::create(&tmp.0, 1, 8).unwrap());
        match DssQueue::attach(&tmp.0) {
            Err(AttachError::AppMismatch { expected, found }) => {
                assert_eq!(expected, KIND_DSS_QUEUE);
                assert_eq!(found, KIND_DSS_QUEUE_COMBINING);
            }
            other => panic!("expected AppMismatch, got {other:?}"),
        }

        let tmp = TmpPool::new("kind-cas");
        drop(DssQueue::create(&tmp.0, 1, 8).unwrap());
        match CombiningQueue::attach(&tmp.0) {
            Err(AttachError::AppMismatch { expected, found }) => {
                assert_eq!(expected, KIND_DSS_QUEUE_COMBINING);
                assert_eq!(found, KIND_DSS_QUEUE);
            }
            other => panic!("expected AppMismatch, got {other:?}"),
        }
    }
}
