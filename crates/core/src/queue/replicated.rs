//! Replica-local reads: log-fed volatile replicas over a durable op log
//! (the `--replicated` axis).
//!
//! [`ReplicatedQueue`] keeps the paper's `prep-*`/`exec-*`/`resolve`
//! surface but changes the *representation*: the persistent truth is not a
//! linked structure at all, it is a **durable operation log** — per-slot
//! announce lines (the detectability core's `X` region, one line per
//! slot), a seq-indexed ring of applied-operation records, a
//! committed-sequence word, and a double-buffered state snapshot. The
//! queue's *state* lives in N **volatile replicas** (plain `VecDeque`s in
//! DRAM), each fed by tailing the log: a replica serving a read first
//! catches up to the *visible* sequence number, the committed seq once
//! its publish is durable (`advance_to`), then answers from local memory
//! with **no flushes**. A read does write one shared line: it locks its
//! replica's `Mutex` for the catch-up and the answer, so readers sharded
//! onto the same replica contend on that lock (EXPERIMENTS.md E15
//! measures the cost). Threads are sharded onto replicas by registry slot
//! range, so on a read-heavy mix the only cross-replica traffic is the
//! read-shared visible-seq word.
//!
//! ## Write path
//!
//! `prep_*` durably publishes the operation in the calling slot's announce
//! line (two ordering points: argument, then a packed `opseq ≪ 2 | kind`
//! commit word `X[s]` — the argument words after it are double-buffered
//! by opseq parity so a torn announce can never pair an old commit with a
//! new argument). `exec_*` runs the appender lease (`Lease`, below):
//! whoever finds the volatile lease word free CASes its registry nonce in
//! and becomes the **leased appender** for one batch. It gathers every
//! announced operation, orders it, computes its response against a
//! replica advanced to the committed prefix, writes one ring record per
//! operation, issues a single [`persist_batch`], and then durably
//! publishes the new committed seq — the batch's linearization point.
//! Only once that publish is drained does it store the volatile visible
//! seq, so a replica read never returns an operation a crash can still
//! lose. Waiters park on volatile per-slot flags and are released only
//! after that publish, so a returned operation is durable. A parked
//! waiter that sees a lease whose holder's registry nonce no LIVE slot
//! carries (the holder crashed and was orphaned, or released its slot
//! mid-lease) steals it by CAS. That makes orphan adoption cross-process
//! safe: the thief re-reads the durable log, sees which announced
//! operations already committed (their opseq is ≤ the slot's applied
//! opseq in the log), and only applies the rest.
//!
//! ## Why replicas need no flushes
//!
//! A replica is a pure function of the durable log prefix it has applied.
//! It is never flushed because it is never *read back* after a crash:
//! recovery ([`recover`]/[`recover_one`]) discards replica state and
//! rebuilds it by replaying the committed log prefix over the last durable
//! snapshot (recovery-by-replay, §3.3-independent: no replica's state is
//! needed to repair any other slot's detectability answer). The appender
//! also never mutates replica state before the batch's publish — responses
//! are computed against a read-only overlay — so a crash mid-batch leaves
//! every replica a valid committed prefix.
//!
//! ## Ring reclamation
//!
//! The ring holds the last [`LOG_CAP`] records. Before a batch would
//! overwrite records still inside the snapshot window, the appender takes
//! a **checkpoint**: it advances *every* replica to the committed seq
//! (so none can lag behind the new floor), writes the full state — values
//! plus per-slot `(opseq, response)` detectability words — into the
//! alternate snapshot buffer, persists it, and durably flips the snapshot
//! selector. `resolve` therefore answers from snapshot + ring for any
//! operation, no matter how long ago it scrolled out of the ring.
//!
//! [`persist_batch`]: dss_pmem::Memory::persist_batch
//! [`recover`]: ReplicatedQueue::recover
//! [`recover_one`]: ReplicatedQueue::recover_one

use std::collections::VecDeque;
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::atomic::{
    AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::{Mutex, MutexGuard};

use dss_pmem::object::{checked_words, thread_count};
use dss_pmem::{
    AppKind, AttachError, Backoff, FlushGranularity, Memory, ObjectCore, ObjectLayout, PAddr,
    PmemPool, Registry, SlotState, ThreadHandle, WORDS_PER_LINE,
};
use dss_spec::types::QueueResp;

use super::{QueueFull, Resolved, ResolvedOp};
use crate::detect::DetectableCore;

/// The structure-kind tag a [`ReplicatedQueue`] records in its pool file's
/// superblock: the log-structured representation is incompatible with the
/// linked-list queue, so [`DssQueue::attach`](super::DssQueue::attach) may
/// not open it (nor may this queue's attach open a `DssQueue` file).
pub const KIND_DSS_QUEUE_REPLICATED: u64 = AppKind::DssQueueReplicated.word();

/// Ring capacity in operation records. Each record is one cache line; the
/// window between checkpoints is at most this many operations. Must exceed
/// the registry's slot maximum so one batch always fits after a checkpoint.
pub const LOG_CAP: u64 = 512;

/// Replicas a [`ReplicatedQueue::new`]-style constructor builds.
pub const DEFAULT_REPLICAS: usize = 2;

// Fixed header addresses (word indices). Line 0 is NULL's line.
/// The durable committed-sequence word: records `< A_CSEQ` are applied.
const A_CSEQ: u64 = 8;
/// The durable snapshot generation; its parity selects the live buffer.
const A_SNAP: u64 = 16;
/// The volatile appender lease word (never flushed on the hot path).
const A_LEASE: u64 = 24;
/// Registry region base — first line after the fixed header.
const REG_BASE: u64 = 32;

// Announce line layout: slot `s`'s line starts at the core's `X[s]`. Word 0
// packs `opseq << 2 | kind`; words 1 and 2 double-buffer the enqueue
// argument by opseq parity (see the module docs' torn-announce argument).
const ANN_KIND_MASK: u64 = 0b11;
/// Announce/record kind: enqueue.
const ANN_ENQ: u64 = 1;
/// Announce/record kind: dequeue.
const ANN_DEQ: u64 = 2;

// Ring record field offsets (one record per line).
const E_KIND: u64 = 0;
const E_ARG: u64 = 1;
const E_SLOT: u64 = 2;
const E_OPSEQ: u64 = 3;
const E_RTAG: u64 = 4;
const E_RVAL: u64 = 5;

// Response tag encoding shared by ring records and snapshot slot words.
const R_NONE: u64 = 0;
const R_OK: u64 = 1;
const R_EMPTY: u64 = 2;
const R_VALUE: u64 = 3;

// Snapshot buffer field offsets.
const S_SEQ: u64 = 0;
const S_LEN: u64 = 1;
const S_SLOT_DONE: u64 = 2; // 3 words per slot: opseq, rtag, rval

/// Locks a mutex, riding through poisoning: an appender tenure interrupted
/// by a simulated crash unwind may poison a lock, and recovery rebuilds
/// everything the guard protects from durable state anyway.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The queue's persistent geometry: fixed header + registry, then the
/// announce lines, the ring and the two snapshot buffers, packed
/// line-aligned in that order. A pure function of
/// `(nthreads, nodes_per_thread, nreplicas)` — attach re-derives it from
/// the pool file's app-config words alone.
#[derive(Debug, Clone)]
struct RepLayout {
    nthreads: usize,
    nodes_per_thread: u64,
    nreplicas: usize,
    /// Enqueue-admission bound (the analogue of the node-pool capacity).
    capacity: u64,
    /// The announce lines, one per slot: the core's strided `X` region.
    ann: Range<u64>,
    /// The operation-record ring, [`LOG_CAP`] lines.
    ring: Range<u64>,
    /// The two snapshot buffers (generation parity selects one).
    snap: [Range<u64>; 2],
}

impl ObjectLayout for RepLayout {
    const KIND: AppKind = AppKind::DssQueueReplicated;

    fn params(&self) -> Vec<u64> {
        vec![self.nthreads as u64, self.nodes_per_thread, self.nreplicas as u64]
    }

    fn from_params(p: &[u64]) -> Result<Self, &'static str> {
        let (nthreads, nodes_per_thread) = (thread_count(p[0])?, p[1]);
        if nthreads as u64 >= LOG_CAP {
            return Err("one batch of every thread must fit in the log ring");
        }
        if !(1..=nthreads as u64).contains(&p[2]) {
            return Err("replica count outside 1..=nthreads");
        }
        let capacity = checked_words(&[nthreads as u64, nodes_per_thread])?;
        // Values + per-slot detectability words + header; `nthreads` slack
        // words absorb the admission gate's bounded over-admission (one
        // in-flight enqueue per slot past the volatile live estimate).
        let snap_words = S_SLOT_DONE + 3 * nthreads as u64 + capacity + nthreads as u64;
        let mut next = REG_BASE + <Registry>::region_words(nthreads);
        let mut carve = |words: u64| {
            let start = next.next_multiple_of(WORDS_PER_LINE);
            next = start + words;
            start..next
        };
        Ok(RepLayout {
            nthreads,
            nodes_per_thread,
            nreplicas: p[2] as usize,
            capacity,
            ann: carve(nthreads as u64 * WORDS_PER_LINE),
            ring: carve(LOG_CAP * WORDS_PER_LINE),
            snap: [carve(snap_words), carve(snap_words)],
        })
    }

    fn registry_base(&self) -> u64 {
        REG_BASE
    }
}

impl RepLayout {
    /// The replica serving registry slot `s` (replicas serve contiguous
    /// slot ranges).
    fn replica_of(&self, s: usize) -> usize {
        s * self.nreplicas / self.nthreads
    }

    /// Base address of the ring record for sequence number `seq`.
    fn entry(&self, seq: u64) -> PAddr {
        PAddr::from_index(self.ring.start + (seq % LOG_CAP) * WORDS_PER_LINE)
    }

    /// Base word index of the snapshot buffer generation `g` selects.
    fn snap_base(&self, g: u64) -> u64 {
        self.snap[(g & 1) as usize].start
    }
}

/// One volatile replica: the queue state after applying the log prefix
/// `[0, applied)`.
#[derive(Default)]
struct ReplicaState {
    applied: u64,
    values: VecDeque<u64>,
}

/// The appender's volatile per-slot bookkeeping, valid for one crash
/// generation: highest applied opseq and its response per slot. Only the
/// lease holder reads or writes it; a generation mismatch makes the next
/// appender rebuild it from snapshot + ring.
struct AppendCache {
    gen: u64,
    opseq: Vec<u64>,
    rtag: Vec<u64>,
    rval: Vec<u64>,
}

/// The replicated execution layer: a durable operation log plus N
/// volatile, log-fed replicas with replica-local reads.
///
/// Same `prep`/`exec`/`resolve`/`recover` surface as
/// [`DssQueue`](super::DssQueue), plus the read-side API
/// ([`peek_front`](Self::peek_front), [`len`](Self::len),
/// [`advance_to`](Self::advance_to)) that `DssQueue` serves from shared
/// memory. The module documentation of `queue/replicated.rs`
/// gives the protocol and its crash argument.
pub struct ReplicatedQueue<M: Memory = PmemPool> {
    /// The shared detectability skeleton: pool, registry, backoff knob,
    /// and the announce lines as its strided `X` region.
    core: DetectableCore<M>,
    lay: RepLayout,
    /// The appender lease and the volatile publication flags.
    lease: Lease,
    /// Per-slot announce counters (owner-written; recovery re-derives
    /// them from the durable announce lines).
    opseq: Box<[AtomicU64]>,
    /// Per-slot response handoff cells, published before the DONE flag.
    resp_tag: Box<[AtomicU64]>,
    resp_val: Box<[AtomicU64]>,
    replicas: Box<[Mutex<ReplicaState>]>,
    append: Mutex<AppendCache>,
    /// Volatile live-value estimate feeding the enqueue admission gate.
    live_hint: AtomicU64,
    /// The committed seq replica reads catch up to, stored only once the
    /// durable committed-seq word covers it: a read never returns an
    /// operation a crash can still lose. Stored with `Release` after the
    /// batch's ring records, loaded with `Acquire` before a reader
    /// replays them.
    visible_seq: AtomicU64,
}

impl ReplicatedQueue {
    /// Creates a replicated queue for `nthreads` threads admitting up to
    /// `nthreads * nodes_per_thread` live values, with
    /// [`DEFAULT_REPLICAS`] replicas, on a fresh line-granular pool.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero, or `nthreads`
    /// is smaller than [`DEFAULT_REPLICAS`] — use
    /// [`new_configured`](Self::new_configured) for full control.
    pub fn new(nthreads: usize, nodes_per_thread: u64) -> Self {
        Self::new_in(nthreads, nodes_per_thread, FlushGranularity::Line)
    }

    /// Creates a replicated queue on a **file-backed** pool at `path`,
    /// recording [`KIND_DSS_QUEUE_REPLICATED`] and the full configuration
    /// (threads, capacity, replicas) in the superblock so
    /// [`attach`](Self::attach) rebuilds it from the path alone.
    ///
    /// # Errors
    ///
    /// [`AttachError::Io`] if the pool file cannot be created.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
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
    /// As [`new`](Self::new).
    pub fn create_with<P: AsRef<std::path::Path>>(
        path: P,
        nthreads: usize,
        nodes_per_thread: u64,
        granularity: FlushGranularity,
    ) -> Result<Self, AttachError> {
        let nreplicas = DEFAULT_REPLICAS.min(nthreads) as u64;
        let lay = RepLayout::from_args(&[nthreads as u64, nodes_per_thread, nreplicas]);
        Ok(Self::assemble(ObjectCore::create(path, &lay, granularity)?, lay))
    }

    /// Rebuilds a replicated queue from a pool file with no in-process
    /// state: the configuration is read back from the superblock, the
    /// region plan re-derived from it, the registry re-bound (attach is a
    /// crash boundary), every replica rebuilt from the durable snapshot,
    /// and the lease cleared (whatever process held it is gone).
    ///
    /// # Errors
    ///
    /// Any [`AttachError`]; in particular [`AttachError::AppMismatch`] if
    /// the file holds a different structure kind.
    pub fn attach<P: AsRef<std::path::Path>>(path: P) -> Result<Self, AttachError> {
        let (object, lay) = ObjectCore::attach(path)?;
        Ok(Self::assemble(object, lay))
    }
}

impl<M: Memory> ReplicatedQueue<M> {
    /// Creates a replicated queue on a freshly created backend of type `M`
    /// with [`DEFAULT_REPLICAS`] replicas — the backend-generic
    /// constructor behind [`new`](ReplicatedQueue::new).
    ///
    /// # Panics
    ///
    /// As [`new`](ReplicatedQueue::new).
    pub fn new_in(nthreads: usize, nodes_per_thread: u64, granularity: FlushGranularity) -> Self {
        Self::new_configured(
            nthreads,
            nodes_per_thread,
            DEFAULT_REPLICAS.min(nthreads),
            granularity,
        )
    }

    /// [`new_in`](Self::new_in) with an explicit replica count.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero or `nreplicas`
    /// is not in `1..=nthreads`.
    pub fn new_configured(
        nthreads: usize,
        nodes_per_thread: u64,
        nreplicas: usize,
        granularity: FlushGranularity,
    ) -> Self {
        let lay = RepLayout::from_args(&[nthreads as u64, nodes_per_thread, nreplicas as u64]);
        Self::assemble(ObjectCore::fresh(&lay, granularity), lay)
    }

    /// Builds the volatile superstructure over an object skeleton:
    /// replicas seeded from the durable snapshot, announce counters from
    /// the durable announce lines, and an append cache stamped invalid so
    /// the first appender rebuilds it from the log. Ends by clearing the
    /// lease: whatever thread or process held it is gone.
    fn assemble(object: ObjectCore<M>, lay: RepLayout) -> Self {
        let n = lay.nthreads;
        let q = ReplicatedQueue {
            core: DetectableCore::new(object, lay.ann.start, WORDS_PER_LINE),
            lease: Lease::new(PAddr::from_index(A_LEASE), n),
            opseq: (0..n).map(|_| AtomicU64::new(0)).collect(),
            resp_tag: (0..n).map(|_| AtomicU64::new(R_NONE)).collect(),
            resp_val: (0..n).map(|_| AtomicU64::new(0)).collect(),
            replicas: (0..lay.nreplicas).map(|_| Mutex::default()).collect(),
            append: Mutex::new(AppendCache {
                gen: u64::MAX,
                opseq: vec![0; n],
                rtag: vec![R_NONE; n],
                rval: vec![0; n],
            }),
            live_hint: AtomicU64::new(0),
            visible_seq: AtomicU64::new(0),
            lay,
        };
        for s in 0..n {
            let (_, rtag, rval) = q.slot_status(s);
            q.reseed_slot(s, q.pool().peek(q.x_addr(s)), rtag, rval);
        }
        for r in 0..q.lay.nreplicas {
            q.reseed_replica(r);
        }
        q.reseed_visible(&lock(&q.append));
        q.live_hint.store(q.snapshot_values().len() as u64, Relaxed);
        q.clear_lease();
        q
    }

    /// Reseeds slot `s`'s volatile cells after a crash or an attach: its
    /// announce counter from its announce word `commit`, its response
    /// handoff from its durable status `(rtag, rval)`, and its
    /// publication flag idle.
    fn reseed_slot(&self, s: usize, commit: u64, rtag: u64, rval: u64) {
        self.opseq[s].store(commit >> 2, Relaxed);
        self.resp_val[s].store(rval, Relaxed);
        self.resp_tag[s].store(rtag, Relaxed);
        self.lease.reset(s);
    }

    /// Reseeds replica `r` from the durable snapshot; its reads replay
    /// the committed ring suffix on demand.
    fn reseed_replica(&self, r: usize) {
        *lock(&self.replicas[r]) = self.state_from_snapshot();
    }

    /// Reseeds the seq replica reads catch up to from the committed-seq
    /// word. Holding the append lock, no batch of this process is between
    /// that word's store and its drain, so the word is durable.
    fn reseed_visible(&self, _append: &AppendCache) {
        self.visible_seq.store(self.pool().peek(PAddr::from_index(A_CSEQ)), Release);
    }

    fn clear_lease(&self) {
        self.lease.clear(self.pool().as_ref());
    }

    /// Number of volatile replicas.
    pub fn nreplicas(&self) -> usize {
        self.lay.nreplicas
    }

    /// The replica serving registry slot `slot`'s reads.
    pub fn replica_of_slot(&self, slot: usize) -> usize {
        self.lay.replica_of(slot)
    }

    /// The committed sequence number: the log prefix `[0, seq)` is
    /// applied. While a batch publishes, this counts it before its flush
    /// completes; replica reads catch up only to the visible seq, which
    /// follows once the publish is durable.
    pub fn committed_seq(&self) -> u64 {
        self.pool().load(PAddr::from_index(A_CSEQ))
    }

    /// **prep-enqueue**: durably announce `(enqueue, val)` in this slot's
    /// announce line — argument first, then the packed commit word, each
    /// with its own ordering point, so a crash can lose the announce but
    /// never tear it.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the live-value estimate has reached the
    /// configured capacity.
    pub fn prep_enqueue(&self, h: ThreadHandle, val: u64) -> Result<(), QueueFull> {
        if self.live_hint.load(Relaxed) >= self.lay.capacity {
            return Err(QueueFull);
        }
        self.announce_op(h.slot(), ANN_ENQ, Some(val));
        Ok(())
    }

    /// **prep-dequeue**: durably announce a dequeue (commit word only —
    /// a dequeue has no argument), one ordering point.
    pub fn prep_dequeue(&self, h: ThreadHandle) {
        self.announce_op(h.slot(), ANN_DEQ, None);
    }

    /// Durably announces slot `s`'s next operation: its argument first,
    /// if it has one, then the commit word `X[s]`, each with its own
    /// ordering point. Then raises the slot's publication flag.
    fn announce_op(&self, s: usize, kind: u64, arg: Option<u64>) {
        let o = self.opseq[s].load(Relaxed) + 1;
        self.opseq[s].store(o, Relaxed);
        if let Some(val) = arg {
            let a = self.ann_arg(s, o);
            self.pool().store(a, val);
            self.pool().flush(a);
            self.pool().drain_line(a);
        }
        self.announce(s, (o << 2) | kind);
        self.lease.announce(s);
    }

    /// The argument word announce opseq `o` of slot `s` uses: words 1 and
    /// 2 of the line `X[s]` starts double-buffer it by opseq parity.
    fn ann_arg(&self, s: usize, o: u64) -> PAddr {
        self.x_addr(s).offset(1 + (o & 1))
    }

    /// **exec-enqueue**: append (as the leased appender) or wait until
    /// the announced enqueue is in the durable log and the committed seq
    /// covering it is published. Idempotent: with nothing announced it
    /// returns at once.
    pub fn exec_enqueue(&self, h: ThreadHandle) {
        self.lease.exec(&self.core, h, |me| self.combine(me));
    }

    /// **exec-dequeue**: append or wait, then return the response the
    /// appender recorded for this slot. Idempotent — re-running it
    /// re-reads the recorded response.
    pub fn exec_dequeue(&self, h: ThreadHandle) -> QueueResp {
        self.lease.exec(&self.core, h, |me| self.combine(me));
        let s = h.slot();
        match self.resp_tag[s].load(Acquire) {
            R_VALUE => QueueResp::Value(self.resp_val[s].load(Relaxed)),
            _ => QueueResp::Empty,
        }
    }

    /// Detectable enqueue: `prep` + `exec`.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the live-value estimate has reached capacity.
    pub fn enqueue(&self, h: ThreadHandle, val: u64) -> Result<(), QueueFull> {
        self.prep_enqueue(h, val)?;
        self.exec_enqueue(h);
        Ok(())
    }

    /// Detectable dequeue: `prep` + `exec`. (There is no plain path:
    /// every operation goes through the announce/append path.)
    pub fn dequeue(&self, h: ThreadHandle) -> QueueResp {
        self.prep_dequeue(h);
        self.exec_dequeue(h)
    }

    /// **Replica-local front read**: load the visible seq, lock the
    /// calling slot's replica and catch it up, then answer from volatile
    /// local state. No flushes. The shared accesses are the visible-seq
    /// load (a DRAM word, not a pool word), the ring reads a lagging
    /// replica needs to catch up, and the replica's `Mutex`, which every
    /// reader sharded onto that replica writes.
    pub fn peek_front(&self, h: ThreadHandle) -> Option<u64> {
        self.read_replica(h, |values| values.front().copied())
    }

    /// Replica-local length read (see [`peek_front`](Self::peek_front)).
    pub fn len(&self, h: ThreadHandle) -> usize {
        self.read_replica(h, VecDeque::len)
    }

    /// Catches the calling slot's replica up to the visible seq and
    /// answers `read` from its values.
    fn read_replica<R>(&self, h: ThreadHandle, read: impl FnOnce(&VecDeque<u64>) -> R) -> R {
        let target = self.visible_seq.load(Acquire);
        let mut st = lock(&self.replicas[self.lay.replica_of(h.slot())]);
        self.advance_locked(&mut st, target);
        read(&st.values)
    }

    /// Replica-local emptiness read (see [`peek_front`](Self::peek_front)).
    pub fn is_empty(&self, h: ThreadHandle) -> bool {
        self.len(h) == 0
    }

    /// Catches replica `replica` up to log sequence `seq` (clamped to the
    /// visible seq — records past it are not yet durably published).
    /// Reads do this implicitly; tests and the differential harness call
    /// it directly.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn advance_to(&self, replica: usize, seq: u64) {
        let target = seq.min(self.visible_seq.load(Acquire));
        let mut st = lock(&self.replicas[replica]);
        self.advance_locked(&mut st, target);
    }

    /// Replica `replica`'s current volatile contents, front to back,
    /// *without* catching it up first (tests use this to observe lag).
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn replica_values(&self, replica: usize) -> Vec<u64> {
        let st = lock(&self.replicas[replica]);
        st.values.iter().copied().collect()
    }

    /// Replica `replica`'s applied log prefix length.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn replica_applied(&self, replica: usize) -> u64 {
        lock(&self.replicas[replica]).applied
    }

    /// Applies ring records `[st.applied, target)` to a locked replica,
    /// one record at a time so a crash unwind leaves the state consistent
    /// at a record boundary.
    fn advance_locked(&self, st: &mut ReplicaState, target: u64) {
        let pool = self.pool().as_ref();
        while st.applied < target {
            let e = self.lay.entry(st.applied);
            if pool.load(e.offset(E_KIND)) == ANN_ENQ {
                st.values.push_back(pool.load(e.offset(E_ARG)));
            } else if pool.load(e.offset(E_RTAG)) == R_VALUE {
                let v = st.values.pop_front();
                debug_assert_eq!(v, Some(pool.load(e.offset(E_RVAL))));
            }
            st.applied += 1;
        }
    }

    /// The leased appender: batches every announced-but-unapplied
    /// operation into the durable log (see module docs). Caller must hold
    /// the lease.
    fn combine(&self, me: ThreadHandle) {
        let pool = self.pool().as_ref();
        let mut cache = lock(&self.append);
        if cache.gen != pool.crash_generation() {
            self.rebuild_cache(&mut cache);
        }

        // Gather the batch in slot order — the order its operations are
        // appended (and hence linearized) in.
        let mut batch: Vec<(usize, u64)> = Vec::new();
        for s in 0..self.lay.nthreads {
            if self.lease.is_announced(s) {
                batch.push((s, pool.load(self.x_addr(s))));
            }
        }
        if batch.is_empty() {
            return;
        }

        let committed = pool.load(PAddr::from_index(A_CSEQ));
        let fresh =
            batch.iter().filter(|&&(s, commit)| (commit >> 2) > cache.opseq[s]).count() as u64;

        // Advance this appender's own replica to the committed prefix; the
        // batch's responses are computed against it through a read-only
        // overlay, so no replica state mutates before the publish.
        let my = self.lay.replica_of(me.slot());
        let mut st = lock(&self.replicas[my]);
        self.advance_locked(&mut st, committed);

        // Checkpoint first if this batch's records would overwrite ring
        // positions still inside the snapshot window.
        let g = pool.load(PAddr::from_index(A_SNAP));
        let snap_seq = pool.load(PAddr::from_index(self.lay.snap_base(g) + S_SEQ));
        if committed + fresh > snap_seq + LOG_CAP {
            self.checkpoint(my, &mut st, &cache, committed);
        }

        // Apply the batch against (st + overlay), writing one ring record
        // per fresh operation. `pops` counts st values the batch consumed;
        // `pushes` holds batch-enqueued values not yet consumed by it.
        let mut lines: Vec<PAddr> = Vec::new();
        let mut done: Vec<(usize, u64, u64, u64)> = Vec::new();
        let mut pops: usize = 0;
        let mut pushes: VecDeque<u64> = VecDeque::new();
        let mut seq = committed;
        for &(s, commit) in batch.iter() {
            let o = commit >> 2;
            if commit == 0 || o <= cache.opseq[s] {
                // Nothing fresh: a dead appender's batch already applied
                // (and published) this operation — hand back its recorded
                // response. (`o < cache.opseq[s]` cannot happen: the
                // announce is always the slot's newest opseq.)
                done.push((s, 0, cache.rtag[s], cache.rval[s]));
                continue;
            }
            let (kind, arg, rtag, rval) = match commit & ANN_KIND_MASK {
                ANN_ENQ => {
                    let arg = pool.load(self.ann_arg(s, o));
                    pushes.push_back(arg);
                    (ANN_ENQ, arg, R_OK, 0)
                }
                _ => {
                    if pops < st.values.len() {
                        let v = st.values[pops];
                        pops += 1;
                        (ANN_DEQ, 0, R_VALUE, v)
                    } else if let Some(v) = pushes.pop_front() {
                        (ANN_DEQ, 0, R_VALUE, v)
                    } else {
                        (ANN_DEQ, 0, R_EMPTY, 0)
                    }
                }
            };
            let e = self.lay.entry(seq);
            for (off, w) in [
                (E_KIND, kind),
                (E_ARG, arg),
                (E_SLOT, s as u64),
                (E_OPSEQ, o),
                (E_RTAG, rtag),
                (E_RVAL, rval),
            ] {
                pool.store(e.offset(off), w);
                lines.push(e.offset(off));
            }
            done.push((s, o, rtag, rval));
            seq += 1;
        }

        if seq != committed {
            // One ordering point for the whole batch's records, then the
            // durable publish — the batch's linearization point. A crash
            // before the publish leaves the records unreachable garbage;
            // after it, they are the committed history.
            pool.persist_batch(&lines);
            let c = PAddr::from_index(A_CSEQ);
            pool.store(c, seq);
            pool.flush(c);
            pool.drain_line(c);
            self.visible_seq.store(seq, Release);
        }

        // Committed-state bookkeeping (volatile only, post-publish).
        let live = (st.values.len() - pops + pushes.len()) as u64;
        self.live_hint.store(live, Relaxed);
        drop(st);
        for &(s, o, rtag, rval) in done.iter() {
            if o != 0 {
                cache.opseq[s] = o;
                cache.rtag[s] = rtag;
                cache.rval[s] = rval;
            }
            self.resp_val[s].store(rval, Relaxed);
            self.resp_tag[s].store(rtag, Relaxed);
            self.lease.done(s);
        }
    }

    /// Writes the committed state into the alternate snapshot buffer and
    /// durably flips the selector, after advancing **every** replica to
    /// `committed` so none lags behind the new replay floor. Caller is the
    /// lease holder and has `my`'s replica (already advanced) locked.
    fn checkpoint(&self, my: usize, my_st: &mut ReplicaState, cache: &AppendCache, committed: u64) {
        let pool = self.pool().as_ref();
        for (r, rep) in self.replicas.iter().enumerate() {
            if r != my {
                let mut st = lock(rep);
                self.advance_locked(&mut st, committed);
            }
        }
        debug_assert_eq!(my_st.applied, committed);
        let g = pool.load(PAddr::from_index(A_SNAP));
        let base = self.lay.snap_base(g + 1);
        let mut words: Vec<(u64, u64)> =
            Vec::with_capacity(2 + 3 * self.lay.nthreads + my_st.values.len());
        words.push((S_SEQ, committed));
        words.push((S_LEN, my_st.values.len() as u64));
        for s in 0..self.lay.nthreads {
            let b = S_SLOT_DONE + 3 * s as u64;
            words.push((b, cache.opseq[s]));
            words.push((b + 1, cache.rtag[s]));
            words.push((b + 2, cache.rval[s]));
        }
        let vbase = S_SLOT_DONE + 3 * self.lay.nthreads as u64;
        for (i, &v) in my_st.values.iter().enumerate() {
            words.push((vbase + i as u64, v));
        }
        let lines: Vec<PAddr> =
            words.iter().map(|&(off, _)| PAddr::from_index(base + off)).collect();
        for &(off, w) in words.iter() {
            pool.store(PAddr::from_index(base + off), w);
        }
        pool.persist_batch(&lines);
        // The buffer is durable; only now flip the selector (its own
        // ordering point). A crash between the two leaves the old
        // snapshot selected — still valid, its ring window intact.
        let ga = PAddr::from_index(A_SNAP);
        pool.store(ga, g + 1);
        pool.flush(ga);
        pool.drain_line(ga);
    }

    /// Rebuilds the appender's volatile bookkeeping from snapshot + ring.
    /// Called under the append lock by the first appender of each crash
    /// generation (and by [`recover`](Self::recover)).
    fn rebuild_cache(&self, cache: &mut AppendCache) {
        let pool = self.pool().as_ref();
        let g = pool.load(PAddr::from_index(A_SNAP));
        let base = self.lay.snap_base(g);
        let snap_seq = pool.load(PAddr::from_index(base + S_SEQ));
        let mut live = pool.load(PAddr::from_index(base + S_LEN));
        for s in 0..self.lay.nthreads {
            let b = base + S_SLOT_DONE + 3 * s as u64;
            cache.opseq[s] = pool.load(PAddr::from_index(b));
            cache.rtag[s] = pool.load(PAddr::from_index(b + 1));
            cache.rval[s] = pool.load(PAddr::from_index(b + 2));
        }
        let committed = pool.load(PAddr::from_index(A_CSEQ));
        for seq in snap_seq..committed {
            let e = self.lay.entry(seq);
            let s = pool.load(e.offset(E_SLOT)) as usize;
            if s < self.lay.nthreads {
                cache.opseq[s] = pool.load(e.offset(E_OPSEQ));
                cache.rtag[s] = pool.load(e.offset(E_RTAG));
                cache.rval[s] = pool.load(e.offset(E_RVAL));
            }
            if pool.load(e.offset(E_KIND)) == ANN_ENQ {
                live += 1;
            } else if pool.load(e.offset(E_RTAG)) == R_VALUE {
                live = live.saturating_sub(1);
            }
        }
        self.live_hint.store(live, Relaxed);
        cache.gen = pool.crash_generation();
    }

    /// Slot `slot`'s durable detectability status
    /// `(applied opseq, resp tag, resp value)`: its newest record in the
    /// ring window, else the snapshot's words, retried if a checkpoint
    /// flips the snapshot mid-scan.
    fn slot_status(&self, slot: usize) -> (u64, u64, u64) {
        let pool = self.pool().as_ref();
        // Both a ring record and a snapshot slot hold (opseq, rtag, rval)
        // in consecutive words.
        let triple = |a: PAddr| (pool.load(a), pool.load(a.offset(1)), pool.load(a.offset(2)));
        loop {
            let g = pool.load(PAddr::from_index(A_SNAP));
            let base = self.lay.snap_base(g);
            let snap_seq = pool.load(PAddr::from_index(base + S_SEQ));
            let committed = pool.load(PAddr::from_index(A_CSEQ));
            // Newest first: the slot's last record supersedes every earlier
            // one and the snapshot, so the scan stops at its first match.
            let status = match (snap_seq..committed)
                .rev()
                .map(|seq| self.lay.entry(seq))
                .find(|e| pool.load(e.offset(E_SLOT)) as usize == slot)
            {
                Some(e) => triple(e.offset(E_OPSEQ)),
                None => triple(PAddr::from_index(base + S_SLOT_DONE + 3 * slot as u64)),
            };
            if pool.load(PAddr::from_index(A_SNAP)) == g {
                return status;
            }
        }
    }

    /// A fresh replica state: the durable snapshot's values at its seq
    /// (retried across a racing checkpoint flip).
    fn state_from_snapshot(&self) -> ReplicaState {
        let pool = self.pool().as_ref();
        loop {
            let g = pool.load(PAddr::from_index(A_SNAP));
            let base = self.lay.snap_base(g);
            let applied = pool.load(PAddr::from_index(base + S_SEQ));
            let len = pool.load(PAddr::from_index(base + S_LEN));
            let vbase = base + S_SLOT_DONE + 3 * self.lay.nthreads as u64;
            let values: VecDeque<u64> =
                (0..len).map(|i| pool.load(PAddr::from_index(vbase + i))).collect();
            if pool.load(PAddr::from_index(A_SNAP)) == g {
                return ReplicaState { applied, values };
            }
        }
    }

    /// **resolve**: answers from durable state only (announce line +
    /// snapshot + ring) — valid live, after a crash, and from an adopting
    /// process, with no reliance on any volatile cache.
    pub fn resolve(&self, h: ThreadHandle) -> Resolved {
        let s = h.slot();
        let commit = self.pool().load(self.x_addr(s));
        if commit == 0 {
            return Resolved { op: None, resp: None };
        }
        let o = commit >> 2;
        let op = match commit & ANN_KIND_MASK {
            ANN_ENQ => ResolvedOp::Enqueue(self.pool().load(self.ann_arg(s, o))),
            _ => ResolvedOp::Dequeue,
        };
        let (applied_o, rtag, rval) = self.slot_status(s);
        let resp = if applied_o == o {
            Some(match rtag {
                R_OK => QueueResp::Ok,
                R_VALUE => QueueResp::Value(rval),
                _ => QueueResp::Empty,
            })
        } else {
            None
        };
        Resolved { op: Some(op), resp }
    }

    /// Inspection helper: the committed queue contents, rebuilt from
    /// snapshot + ring with uninstrumented peeks (valid live and after a
    /// crash; recovery and the crash harness classify against it).
    pub fn snapshot_values(&self) -> Vec<u64> {
        let pool = self.pool().as_ref();
        loop {
            let g = pool.peek(PAddr::from_index(A_SNAP));
            let base = self.lay.snap_base(g);
            let snap_seq = pool.peek(PAddr::from_index(base + S_SEQ));
            let len = pool.peek(PAddr::from_index(base + S_LEN));
            let vbase = base + S_SLOT_DONE + 3 * self.lay.nthreads as u64;
            let mut values: VecDeque<u64> =
                (0..len).map(|i| pool.peek(PAddr::from_index(vbase + i))).collect();
            let committed = pool.peek(PAddr::from_index(A_CSEQ));
            for seq in snap_seq..committed {
                let e = self.lay.entry(seq);
                if pool.peek(e.offset(E_KIND)) == ANN_ENQ {
                    values.push_back(pool.peek(e.offset(E_ARG)));
                } else if pool.peek(e.offset(E_RTAG)) == R_VALUE {
                    values.pop_front();
                }
            }
            if pool.peek(PAddr::from_index(A_SNAP)) == g {
                return values.into();
            }
        }
    }

    /// Centralized crash recovery: registry crash boundary + orphan
    /// adoption, lease cleared durably, every per-slot volatile cell
    /// re-derived from the durable log, and **every replica rebuilt by
    /// replay** — snapshot values plus the committed ring suffix
    /// (recovery-by-replay; replicas are volatile and never flushed).
    pub fn recover(&self) -> Vec<ThreadHandle> {
        self.begin_recovery();
        let adopted = self.adopt_orphans();
        self.clear_lease();
        let mut cache = lock(&self.append);
        self.rebuild_cache(&mut cache);
        for s in 0..self.lay.nthreads {
            self.reseed_slot(s, self.pool().load(self.x_addr(s)), cache.rtag[s], cache.rval[s]);
        }
        self.reseed_visible(&cache);
        drop(cache);
        for r in 0..self.lay.nreplicas {
            self.reseed_replica(r);
        }
        adopted
    }

    /// Independent per-slot recovery (§3.3): repairs only this slot's
    /// volatile cells (from the durable log) and reseeds the replica that
    /// serves it. The lease is left for the waiters' staleness steal, and
    /// the shared append cache is not touched — its crash-generation
    /// stamp no longer matches, so the next appender rebuilds it from
    /// durable state under the lease.
    pub fn recover_one(&self, h: ThreadHandle) {
        let s = h.slot();
        let (_, rtag, rval) = self.slot_status(s);
        self.reseed_slot(s, self.pool().load(self.x_addr(s)), rtag, rval);
        self.reseed_replica(self.lay.replica_of(s));
        self.reseed_visible(&lock(&self.append));
    }

    /// Parity with the linked layers' post-crash allocator rebuild: the
    /// log-structured representation has no node allocator, so this is a
    /// no-op.
    pub fn rebuild_allocator(&self) {}
}

/// The slot API, the pool and the backoff knob are the shared skeleton's.
/// The backoff knob is accepted for parity with
/// [`DssQueue`](super::DssQueue); waiters park with an always-on
/// [`Backoff`] either way. [`begin_recovery`](ObjectCore::begin_recovery) is
/// **required after every crash before any thread resumes `exec`**:
/// lease-staleness detection keys off orphaned slots.
impl<M: Memory> Deref for ReplicatedQueue<M> {
    type Target = DetectableCore<M>;

    fn deref(&self) -> &DetectableCore<M> {
        &self.core
    }
}

impl<M: Memory> fmt::Debug for ReplicatedQueue<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicatedQueue")
            .field("nthreads", &self.lay.nthreads)
            .field("nreplicas", &self.lay.nreplicas)
            .field("committed_seq", &self.pool().peek(PAddr::from_index(A_CSEQ)))
            .finish_non_exhaustive()
    }
}

/// Volatile per-slot announce states (DRAM only — the persistent truth
/// lives in the announce lines; these flags exist so waiters can park on
/// their own cache line and the appender can scan without touching the
/// pool).
const IDLE: u64 = 0;
const ANNOUNCED: u64 = 1;
const DONE: u64 = 2;

/// Consecutive stable observations of a foreign lease before a waiter
/// pays for a registry staleness probe.
const STALE_PROBE: u32 = 64;

/// Parked-waiter iterations before escalating from backoff spinning to
/// unconditional yields (batches are long compared to a CAS retry, and on
/// few-core hosts a spinning waiter starves the appender).
const YIELD_AFTER: u32 = 8;

/// Yield iterations before escalating further to short sleeps. On an
/// oversubscribed host many yielding waiters accrue almost no vruntime
/// and keep getting rescheduled — a yield storm that starves the
/// appender of exactly the CPU it needs to set them free. Sleeping takes
/// a waiter off the run queue entirely.
const SLEEP_AFTER: u32 = YIELD_AFTER + 64;

/// Parked-waiter sleep, long enough to drain a yield storm and short
/// enough that a woken waiter's operation latency stays small next to a
/// batch under flush penalties.
const PARK_SLEEP: std::time::Duration = std::time::Duration::from_micros(50);

/// The appender-lease / publication-array protocol of [`ReplicatedQueue`].
///
/// `prep` durably announces an operation and raises the slot's volatile
/// flag ([`announce`](Self::announce)); `exec` parks in
/// [`exec`](Self::exec) until some lease holder has appended and persisted
/// it. Whoever finds the **lease word** free CASes its registry nonce in
/// and runs the appender's `combine` pass over every announced slot,
/// which marks each applied slot [`done`](Self::done).
///
/// The lease word is volatile coordination and is never flushed on the
/// hot path: a crash reverts it to whatever last persisted (free, or a
/// nonce no LIVE slot carries any more), and both images are handled.
/// Centralized recovery [`clear`](Self::clear)s it durably; otherwise a
/// parked waiter that sees a stable foreign lease probes the registry
/// and, if the holder's nonce is carried by no LIVE slot — it crashed and
/// was orphaned, or released its slot mid-lease — *steals* the lease by
/// CAS. Adoption and re-registration mint fresh nonces, so a stolen lease
/// never belongs to a live holder.
struct Lease {
    /// The lease word: 0 = free, else the holder's registry nonce.
    word: PAddr,
    /// Per-slot announce flags (IDLE/ANNOUNCED/DONE).
    pending: Box<[AtomicU64]>,
}

impl Lease {
    /// A lease at `word` over `nslots` publication slots, all idle.
    fn new(word: PAddr, nslots: usize) -> Self {
        Lease { word, pending: (0..nslots).map(|_| AtomicU64::new(IDLE)).collect() }
    }

    /// The lease word's address.
    #[cfg(test)]
    fn word(&self) -> PAddr {
        self.word
    }

    /// Publishes `slot`'s freshly (durably) announced operation.
    fn announce(&self, slot: usize) {
        self.pending[slot].store(ANNOUNCED, Release);
    }

    /// Whether `slot` has an announced operation no batch applied yet —
    /// the appender's gather predicate.
    fn is_announced(&self, slot: usize) -> bool {
        self.pending[slot].load(Acquire) == ANNOUNCED
    }

    /// Whether `slot` has nothing announced and no result uncollected.
    #[cfg(test)]
    fn is_idle(&self, slot: usize) -> bool {
        self.pending[slot].load(Acquire) == IDLE
    }

    /// Releases `slot`'s waiter: its operation is applied and durable.
    fn done(&self, slot: usize) {
        self.pending[slot].store(DONE, Release);
    }

    /// Forgets `slot`'s announcement (post-crash: the crash reverted the
    /// volatile flag's meaning along with every in-flight waiter).
    fn reset(&self, slot: usize) {
        self.pending[slot].store(IDLE, Relaxed);
    }

    /// Stores, flushes and orders a free lease word. Safe whenever no live
    /// thread can hold the lease (construction, attach, post-crash
    /// recovery); idempotent.
    fn clear<M: Memory>(&self, pool: &M) {
        pool.store(self.word, 0);
        pool.flush(self.word);
        pool.drain_line(self.word);
    }

    /// Parks until `h`'s announced operation is applied, running
    /// `combine(h)` on this thread whenever the lease is (or goes) free,
    /// and stealing the lease if its holder provably died. Waiters always
    /// park with an enabled [`Backoff`] first, then yield, then sleep.
    ///
    /// Idempotent: with no announcement outstanding (double `exec`, or
    /// `exec` re-run after a crash already resolved the slot) it returns
    /// immediately instead of parking on a batch that will never form.
    fn exec<M: Memory>(
        &self,
        core: &ObjectCore<M>,
        h: ThreadHandle,
        mut combine: impl FnMut(ThreadHandle),
    ) {
        let slot = h.slot();
        if self.pending[slot].load(Acquire) == IDLE {
            return;
        }
        let pool = core.pool().as_ref();
        let mut bo = Backoff::new(true);
        let mut observed = 0u64;
        let mut stable = 0u32;
        let mut waits = 0u32;
        loop {
            if self.pending[slot].load(Acquire) == DONE {
                self.pending[slot].store(IDLE, Relaxed);
                return;
            }
            // The lease probe is an *instrumented* pool load, so armed
            // crash countdowns progress even while a waiter only parks.
            let lease = pool.load(self.word);
            if lease == 0 {
                // No flush: the lease is volatile coordination.
                if pool.cas(self.word, 0, h.nonce()).is_ok() {
                    combine(h);
                    self.release(pool, h);
                    continue; // the batch set our DONE flag
                }
            } else if lease != observed {
                observed = lease;
                stable = 0;
            } else {
                stable += 1;
                if stable >= STALE_PROBE && Self::is_stale(core, lease) {
                    // The holder's nonce is carried by no LIVE slot: it
                    // crashed (and recovery orphaned it) or released its
                    // slot mid-lease. Steal and combine in its place.
                    if pool.cas(self.word, lease, h.nonce()).is_ok() {
                        combine(h);
                        self.release(pool, h);
                        continue;
                    }
                    observed = 0;
                    stable = 0;
                }
            }
            waits = waits.saturating_add(1);
            if waits > SLEEP_AFTER {
                std::thread::sleep(PARK_SLEEP);
            } else if waits > YIELD_AFTER {
                std::thread::yield_now();
            } else {
                bo.spin();
            }
        }
    }

    fn release<M: Memory>(&self, pool: &M, h: ThreadHandle) {
        // Failure is benign: only a post-crash steal can move the lease
        // from under a holder, and then the thief owns the cleanup. Not
        // flushed — the lease is volatile coordination.
        let _ = pool.cas(self.word, h.nonce(), 0);
    }

    /// Whether a lease nonce belongs to no LIVE registry slot. Uses
    /// uninstrumented peeks: a staleness probe is diagnosis, not protocol
    /// progress, so it must not perturb operation-indexed crash sweeps
    /// relative to the number of probing waiters.
    fn is_stale<M: Memory>(core: &ObjectCore<M>, lease: u64) -> bool {
        let reg = core.registry();
        !(0..core.nthreads())
            .any(|s| reg.slot_state(s) == Ok(SlotState::Live) && reg.slot_nonce(s) == Ok(lease))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{DssQueue, KIND_DSS_QUEUE};
    use super::*;
    use dss_pmem::WritebackAdversary;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::PathBuf;
    use std::sync::atomic::Ordering;

    #[test]
    fn fifo_order_single_thread() {
        let q = ReplicatedQueue::new(1, 8);
        let h0 = q.register_thread().unwrap();
        for v in [10, 20, 30] {
            q.enqueue(h0, v).unwrap();
        }
        assert_eq!(q.peek_front(h0), Some(10));
        assert_eq!(q.len(h0), 3);
        assert_eq!(q.dequeue(h0), QueueResp::Value(10));
        assert_eq!(q.dequeue(h0), QueueResp::Value(20));
        assert_eq!(q.dequeue(h0), QueueResp::Value(30));
        assert_eq!(q.dequeue(h0), QueueResp::Empty);
        assert!(q.is_empty(h0));
    }

    #[test]
    fn resolve_matches_detectable_semantics() {
        let q = ReplicatedQueue::new(1, 8);
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
        let q = ReplicatedQueue::new(1, 8);
        let h0 = q.register_thread().unwrap();
        q.prep_enqueue(h0, 1).unwrap();
        q.exec_enqueue(h0);
        q.exec_enqueue(h0); // must not park on an empty publication array
        q.prep_dequeue(h0);
        assert_eq!(q.exec_dequeue(h0), QueueResp::Value(1));
        assert_eq!(q.exec_dequeue(h0), QueueResp::Value(1));
    }

    /// The appender lease: racing `exec` calls elect one holder per tenure
    /// and all complete, and a lease whose holder's nonce no LIVE slot
    /// carries — because the holder released its slot mid-lease, or
    /// crashed and was orphaned — is stolen by a parked waiter.
    #[test]
    fn replicated_lease_is_held_once_and_stolen_from_departed_holders() {
        const THREADS: usize = 4;
        let q = ReplicatedQueue::new(THREADS, 16);
        let hs: Vec<_> = (0..THREADS).map(|_| q.register_thread().unwrap()).collect();
        for (tid, &h) in hs.iter().enumerate() {
            q.prep_enqueue(h, tid as u64 + 1).unwrap();
        }
        std::thread::scope(|scope| {
            for &h in &hs {
                let q = &q;
                scope.spawn(move || q.exec_enqueue(h));
            }
        });
        let mut values = q.snapshot_values();
        values.sort_unstable();
        assert_eq!(values, [1, 2, 3, 4]);
        assert_eq!(q.pool().peek(q.lease.word()), 0, "lease released after the batches");
        assert!((0..THREADS).all(|s| q.lease.is_idle(s)), "every waiter collected its result");

        // A holder that released its slot (not crashed) while its nonce
        // still sits in the lease word: nobody LIVE carries the nonce.
        let q = ReplicatedQueue::new(2, 8);
        let h0 = q.register_thread().unwrap();
        let h1 = q.register_thread().unwrap();
        q.pool().store(q.lease.word(), h1.nonce());
        q.release_thread(h1).unwrap();
        q.enqueue(h0, 5).unwrap();
        q.prep_dequeue(h0);
        assert_eq!(q.exec_dequeue(h0), QueueResp::Value(5));

        // A holder that died mid-tenure: its nonce sits durably in the
        // lease word, and its thread never comes back after the crash.
        let q = ReplicatedQueue::new(2, 8);
        let h0 = q.register_thread().unwrap();
        let h1 = q.register_thread().unwrap();
        q.pool().store(q.lease.word(), h1.nonce());
        q.pool().flush(q.lease.word());
        q.pool().drain_line(q.lease.word());
        q.pool().crash(&WritebackAdversary::None);
        q.begin_recovery();
        let mine = q.adopt(h0.slot()).unwrap();
        q.recover_one(mine);
        q.rebuild_allocator();
        q.enqueue(mine, 5).unwrap();
        q.prep_dequeue(mine);
        assert_eq!(q.exec_dequeue(mine), QueueResp::Value(5));
    }

    #[test]
    fn replicas_catch_up_lazily_and_on_demand() {
        let q = ReplicatedQueue::new(2, 8);
        assert_eq!(q.nreplicas(), 2);
        let h0 = q.register_thread().unwrap();
        let h1 = q.register_thread().unwrap();
        assert_ne!(q.replica_of_slot(h0.slot()), q.replica_of_slot(h1.slot()));
        for v in [1, 2, 3] {
            q.enqueue(h0, v).unwrap();
        }
        // h1's replica only catches up when h1 reads through it.
        assert_eq!(q.peek_front(h1), Some(1));
        assert_eq!(q.replica_values(q.replica_of_slot(h1.slot())), [1, 2, 3]);
        // Explicit catch-up of a named replica to the committed prefix.
        q.advance_to(q.replica_of_slot(h0.slot()), q.committed_seq());
        assert_eq!(q.replica_values(q.replica_of_slot(h0.slot())), [1, 2, 3]);
        assert_eq!(q.replica_applied(0), q.committed_seq());
    }

    #[test]
    fn concurrent_threads_conserve_values_and_per_thread_order() {
        const THREADS: usize = 4;
        const PAIRS: u64 = 150;
        let q = ReplicatedQueue::new(THREADS, 64);
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
                            if i % 16 == 0 {
                                let _ = q.peek_front(h); // replica-local read mixed in
                            }
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
    fn checkpoints_reclaim_the_ring() {
        // Far more operations than LOG_CAP: the appender must checkpoint
        // and the committed state must survive every snapshot flip.
        let q = ReplicatedQueue::new(1, 8);
        let h0 = q.register_thread().unwrap();
        for i in 0..(3 * LOG_CAP / 2) {
            q.enqueue(h0, i).unwrap();
            assert_eq!(q.dequeue(h0), QueueResp::Value(i), "i={i}");
        }
        assert!(q.committed_seq() > LOG_CAP);
        assert!(q.snapshot_values().is_empty());
        q.enqueue(h0, 77).unwrap();
        assert_eq!(q.peek_front(h0), Some(77));
        assert_eq!(q.snapshot_values(), [77]);
    }

    #[test]
    fn admission_gate_reports_full() {
        let q = ReplicatedQueue::new(1, 2); // capacity 2
        let h0 = q.register_thread().unwrap();
        q.enqueue(h0, 1).unwrap();
        q.enqueue(h0, 2).unwrap();
        assert_eq!(q.prep_enqueue(h0, 3), Err(QueueFull));
        assert_eq!(q.dequeue(h0), QueueResp::Value(1));
        q.enqueue(h0, 3).unwrap();
        assert_eq!(q.snapshot_values(), [2, 3]);
    }

    #[test]
    fn batched_appends_survive_a_crash_and_resolve() {
        // Crash a single-thread exec at each instrumented point; recovery
        // must leave resolve and the durable state consistent (the
        // exhaustive version is the harness sweep).
        for k in 1..=40u64 {
            let q = ReplicatedQueue::new(1, 8);
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
            let adopted = q.recover();
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
            // Post-recovery the queue must keep working (the crash
            // orphaned the slot; continue under the adopted handle).
            let h = adopted.first().copied().unwrap_or(h0);
            q.prep_dequeue(h);
            let _ = q.exec_dequeue(h);
            assert_eq!(q.dequeue(h), QueueResp::Empty);
        }
    }

    #[test]
    fn packed_regions_are_line_aligned_disjoint_and_ascending() {
        let q = ReplicatedQueue::new(4, 8);
        let lay = &q.lay;
        let regions = [&lay.ann, &lay.ring, &lay.snap[0], &lay.snap[1]];
        assert!(lay.pool_words() <= lay.ann.start, "announce lines overlap the registry");
        for r in regions {
            assert_eq!(r.start % WORDS_PER_LINE, 0, "{r:?} is not line-aligned");
            assert!(r.start < r.end, "{r:?} is empty");
        }
        for pair in regions.windows(2) {
            assert!(
                pair[0].end <= pair[1].start,
                "{:?} overlaps or follows {:?}",
                pair[0],
                pair[1]
            );
        }
        // The announce lines are the core's X region, one line per slot.
        assert_eq!(lay.ann.end - lay.ann.start, 4 * WORDS_PER_LINE);
        for s in 0..4 {
            assert_eq!(q.x_addr(s).index(), lay.ann.start + s as u64 * WORDS_PER_LINE);
        }
    }

    /// A unique pool-file path, removed again on drop.
    struct TmpPool(PathBuf);

    impl TmpPool {
        fn new(name: &str) -> Self {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let mut p = std::env::temp_dir();
            p.push(format!("dss-replicated-{}-{name}-{n}.pool", std::process::id()));
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
            let q = ReplicatedQueue::create(&tmp.0, 2, 8).unwrap();
            let h0 = q.register_thread().unwrap();
            q.enqueue(h0, 1).unwrap();
            q.prep_enqueue(h0, 2).unwrap();
            q.exec_enqueue(h0);
            q.pool().drain();
        }
        let q = ReplicatedQueue::attach(&tmp.0).unwrap();
        let adopted = q.recover();
        assert_eq!(adopted.len(), 1);
        assert_eq!(
            q.resolve(adopted[0]),
            Resolved { op: Some(ResolvedOp::Enqueue(2)), resp: Some(QueueResp::Ok) }
        );
        assert_eq!(q.snapshot_values(), [1, 2]);
        // Replicas were rebuilt by replay over the attach boundary.
        assert_eq!(q.peek_front(adopted[0]), Some(1));
        assert_eq!(q.dequeue(adopted[0]), QueueResp::Value(1));
    }

    #[test]
    fn attach_rejects_the_other_execution_layers() {
        let tmp = TmpPool::new("kind-replicated");
        drop(ReplicatedQueue::create(&tmp.0, 1, 8).unwrap());
        match DssQueue::attach(&tmp.0) {
            Err(AttachError::AppMismatch { expected, found }) => {
                assert_eq!(expected, KIND_DSS_QUEUE);
                assert_eq!(found, KIND_DSS_QUEUE_REPLICATED);
            }
            other => panic!("expected AppMismatch, got {other:?}"),
        }

        let tmp = TmpPool::new("kind-cas");
        drop(DssQueue::create(&tmp.0, 1, 8).unwrap());
        match ReplicatedQueue::attach(&tmp.0) {
            Err(AttachError::AppMismatch { expected, found }) => {
                assert_eq!(expected, KIND_DSS_QUEUE_REPLICATED);
                assert_eq!(found, KIND_DSS_QUEUE);
            }
            other => panic!("expected AppMismatch, got {other:?}"),
        }
    }

    /// A replica read never returns an enqueue a crash can still lose:
    /// slot 0's enqueue crashes at each of its pool operations in turn,
    /// slot 1 reads through its own replica, and then the pool crashes
    /// with no writeback. If a read saw the value, `resolve` must report
    /// the enqueue as taken effect.
    #[test]
    fn replica_reads_never_see_an_enqueue_a_crash_can_lose() {
        for k in 1.. {
            let q = ReplicatedQueue::new(2, 8);
            let h0 = q.register_thread().unwrap();
            let h1 = q.register_thread().unwrap();
            q.pool().arm_crash_after(k);
            let died = catch_unwind(AssertUnwindSafe(|| {
                q.prep_enqueue(h0, 42).unwrap();
                q.exec_enqueue(h0);
            }))
            .is_err();
            q.pool().disarm_crash();
            if !died {
                break;
            }
            let saw = q.peek_front(h1) == Some(42) || q.len(h1) != 0;
            q.pool().crash(&WritebackAdversary::None);
            q.recover();
            let took_effect = q.resolve(h0).resp == Some(QueueResp::Ok);
            assert!(!saw || took_effect, "k={k}: a read saw 42, but its enqueue was lost");
        }
    }
}
