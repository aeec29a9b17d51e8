//! A recoverable, detectable universal construction.
//!
//! §2.2: "a wait-free recoverable implementation of `D⟨T⟩` for any
//! conventional type `T` can be obtained in the shared memory model using
//! Herlihy's universal construction, which was shown by Berryhill, Golab,
//! and Tripunitara to yield recoverable linearizability", and the paper
//! believes it "can be extended easily … to the more general model with
//! volatile cache and explicit persistence instructions". This module is
//! that extension, in its lock-free form:
//!
//! * The object is a persistent append-only list of *operation nodes*;
//!   consensus on each successor is a single-word CAS on the `next`
//!   pointer, flushed before the tail hint advances.
//! * The abstract state is never materialized in memory — it is recomputed
//!   by replaying the list through the [`SequentialSpec`], so there is
//!   nothing else to persist.
//! * Detectability comes for free: `prep` persists the operation node and
//!   announces it in `X[tid]`; `resolve` checks whether the announced node
//!   is reachable in the list (its linking CAS persisted) and, if so,
//!   replays the list to recompute the response. No recovery phase exists
//!   at all — this object is "independent recovery" in its purest form.
//!
//! The price is the classic one for universal constructions: the history
//! list grows without bound (ops are never reclaimed), so this is a tool
//! for moderate op-counts, demonstrations, and model checking — not a
//! high-throughput container. The bespoke [`DssQueue`](crate::DssQueue)
//! exists precisely because one can do much better for a specific type.
//!
//! Operations are serialized into a fixed number of 64-bit words via
//! [`OpWords`]; implementations are provided for all the canonical types.

use std::fmt;
use std::ops::Deref;

use dss_pmem::object::{checked_words, thread_count};
use dss_pmem::{
    tag, AppKind, AttachError, FlushGranularity, Memory, ObjectCore, ObjectLayout, PAddr, PmemPool,
    ThreadHandle, WORDS_PER_LINE,
};

use crate::detect::DetectableCore;
use dss_spec::types::{
    CasOp, CasSpec, CounterOp, CounterSpec, QueueOp, QueueSpec, RegisterOp, RegisterSpec, StackOp,
    StackSpec,
};
use dss_spec::{ProcId, SequentialSpec};

/// Fixed-width serialization of a specification's operations, for storage
/// in persistent-memory words.
///
/// `encode`/`decode` must round-trip: `decode(encode(op)) == op`.
pub trait OpWords: SequentialSpec {
    /// Serializes an operation into three words.
    fn encode(op: &Self::Op) -> [u64; 3];
    /// Deserializes an operation.
    ///
    /// # Panics
    ///
    /// May panic on words not produced by [`encode`](Self::encode).
    fn decode(words: [u64; 3]) -> Self::Op;
}

/// What [`Universal::resolve`] reports: the announced `(op, seq)` pair if
/// one persisted, and the operation's recomputed response if its history
/// link persisted too.
pub type UniResolved<T> =
    (Option<(<T as SequentialSpec>::Op, u64)>, Option<<T as SequentialSpec>::Resp>);

// Node layout: 8 words (one cache line).
const F_NEXT: u64 = 0;
const F_PID: u64 = 1;
const F_SEQ: u64 = 2;
const F_OP0: u64 = 3;
const F_OP1: u64 = 4;
const F_OP2: u64 = 5;
const NODE_WORDS: u64 = 8;

const U_PREP: u64 = tag::ENQ_PREP;
const U_COMPL: u64 = tag::ENQ_COMPL;

// Layout: [0:NULL][1:tail hint][2..2+n:X][origin node][node slots...].
const A_TAIL_HINT: u64 = 1;
const A_X_BASE: u64 = 2;

/// Structure-kind word a file-backed universal object records in its pool
/// superblock. The spec type `T` itself is not persisted —
/// [`attach`](Universal::attach) takes the spec value from the caller and
/// trusts the caller to supply the same type the file was created with.
pub const KIND_UNIVERSAL: u64 = AppKind::Universal.word();

/// The universal object's pool layout, derived from `(nthreads, max_ops)`
/// alone (cf. the queue's `QueueLayout`).
struct UniversalLayout {
    nthreads: usize,
    max_ops: u64,
    origin: u64,
    slots_base: u64,
    reg_base: u64,
}

impl ObjectLayout for UniversalLayout {
    const KIND: AppKind = AppKind::Universal;

    fn params(&self) -> Vec<u64> {
        vec![self.nthreads as u64, self.max_ops]
    }

    fn from_params(p: &[u64]) -> Result<Self, &'static str> {
        let (nthreads, max_ops) = (thread_count(p[0])?, p[1]);
        let nodes = checked_words(&[max_ops, NODE_WORDS])?;
        let x_end = A_X_BASE + nthreads as u64;
        let origin = x_end.next_multiple_of(NODE_WORDS);
        let slots_base = origin + NODE_WORDS;
        let reg_base = (slots_base + nodes).next_multiple_of(WORDS_PER_LINE);
        Ok(UniversalLayout { nthreads, max_ops, origin, slots_base, reg_base })
    }

    fn registry_base(&self) -> u64 {
        self.reg_base
    }
}

/// A lock-free recoverable universal construction of `D⟨T⟩` for any
/// [`SequentialSpec`] whose operations implement [`OpWords`].
///
/// # Examples
///
/// ```
/// use dss_core::Universal;
/// use dss_spec::types::{StackOp, StackResp, StackSpec};
///
/// let st = Universal::new(StackSpec, 2, 100);
/// let h0 = st.register_thread().unwrap();
/// let h1 = st.register_thread().unwrap();
/// st.prep(h0, StackOp::Push(7), 0);
/// assert_eq!(st.exec(h0), StackResp::Ok);
/// assert_eq!(st.plain(h1, StackOp::Pop), StackResp::Value(7));
/// // Detection after the fact:
/// let (op, resp) = st.resolve(h0);
/// assert_eq!(op, Some((StackOp::Push(7), 0)));
/// assert_eq!(resp, Some(StackResp::Ok));
/// ```
pub struct Universal<T: SequentialSpec, M: Memory = PmemPool> {
    spec: T,
    /// The shared detectability skeleton, which the object dereferences
    /// to for the slot API. The universal construction packs its `X`
    /// words at stride 1 — the history list dominates the footprint, so
    /// false sharing on `X` is not worth a line per thread here.
    core: DetectableCore<M>,
    origin: PAddr,
    slots_base: u64,
    slots: u64,
    next_slot: std::sync::atomic::AtomicU64,
}

impl<T: OpWords> Universal<T> {
    /// Creates the object for `nthreads` threads with capacity for
    /// `max_ops` operations over its lifetime (the history list is never
    /// reclaimed), on a fresh line-granular [`PmemPool`].
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `max_ops` is zero.
    pub fn new(spec: T, nthreads: usize, max_ops: u64) -> Self {
        Self::new_in(spec, nthreads, max_ops, FlushGranularity::Line)
    }

    /// Creates the object on a **file-backed** pool at `path`
    /// (line-granular), recording [`KIND_UNIVERSAL`] and the construction
    /// parameters in the superblock. The spec value itself is volatile
    /// code, not data, so [`attach`](Self::attach) takes it again.
    ///
    /// # Errors
    ///
    /// [`AttachError::Io`] if the pool file cannot be created.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `max_ops` is zero.
    pub fn create<P: AsRef<std::path::Path>>(
        spec: T,
        path: P,
        nthreads: usize,
        max_ops: u64,
    ) -> Result<Self, AttachError> {
        let layout = UniversalLayout::from_args(&[nthreads as u64, max_ops]);
        let object = ObjectCore::create(path, &layout, FlushGranularity::Line)?;
        let u = Self::assemble(spec, object, &layout);
        u.format();
        Ok(u)
    }

    /// Rebuilds the object from a pool file with no in-process state; the
    /// caller supplies the spec value (the history replays through it, so
    /// it must be the type the file was created with). No recovery phase
    /// exists: [`resolve`](Self::resolve) replays the persisted history
    /// directly after [`begin_recovery`](ObjectCore::begin_recovery) +
    /// [`adopt_orphans`](ObjectCore::adopt_orphans).
    ///
    /// # Errors
    ///
    /// Any [`AttachError`], including [`AttachError::AppMismatch`] if the
    /// file holds a different structure.
    pub fn attach<P: AsRef<std::path::Path>>(spec: T, path: P) -> Result<Self, AttachError> {
        let (object, layout) = ObjectCore::attach(path)?;
        let u = Self::assemble(spec, object, &layout);
        u.rebuild_allocator();
        Ok(u)
    }
}

impl<T: OpWords, M: Memory> Universal<T, M> {
    /// Creates the object on a freshly created backend of type `M`
    /// ([`Memory::create`]) — the backend-generic constructor behind
    /// [`new`](Universal::new).
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `max_ops` is zero.
    pub fn new_in(spec: T, nthreads: usize, max_ops: u64, granularity: FlushGranularity) -> Self {
        let layout = UniversalLayout::from_args(&[nthreads as u64, max_ops]);
        let u = Self::assemble(spec, ObjectCore::fresh(&layout, granularity), &layout);
        u.format();
        u
    }

    /// The shared constructor tail: in-DRAM side tables over an object
    /// skeleton — everything `attach` must rebuild rather than map.
    fn assemble(spec: T, object: ObjectCore<M>, layout: &UniversalLayout) -> Self {
        Universal {
            spec,
            core: DetectableCore::new(object, A_X_BASE, 1),
            origin: PAddr::from_index(layout.origin),
            slots_base: layout.slots_base,
            slots: layout.max_ops,
            next_slot: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Writes and persists the initial object state (fresh pools only —
    /// never run on attach).
    fn format(&self) {
        self.pool().store(self.origin.offset(F_NEXT), 0);
        self.pool().flush(self.origin.offset(F_NEXT));
        self.pool().store(PAddr::from_index(A_TAIL_HINT), self.origin.to_word());
        self.pool().flush(PAddr::from_index(A_TAIL_HINT));
        self.core.format_x();
        self.pool().drain();
    }

    fn alloc(&self) -> PAddr {
        use std::sync::atomic::Ordering::Relaxed;
        let i = self.next_slot.fetch_add(1, Relaxed);
        assert!(i < self.slots, "universal construction capacity exhausted");
        PAddr::from_index(self.slots_base + i * NODE_WORDS)
    }

    /// Recomputes allocation state after a crash: slots whose nodes were
    /// never linked are reused. (Conservative: it simply skips past every
    /// slot ever handed out that is reachable, plus announced ones.)
    pub fn rebuild_allocator(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        let mut max_used = 0u64;
        let mut mark = |a: PAddr| {
            if a.index() >= self.slots_base {
                max_used = max_used.max((a.index() - self.slots_base) / NODE_WORDS + 1);
            }
        };
        let mut cur = self.origin;
        loop {
            let next = tag::addr_of(self.pool().load(cur.offset(F_NEXT)));
            if next.is_null() {
                break;
            }
            mark(next);
            cur = next;
        }
        for i in 0..self.nthreads() {
            let d = tag::addr_of(self.pool().load(self.x_addr(i)));
            if !d.is_null() {
                mark(d);
            }
        }
        self.next_slot.store(max_used, Relaxed);
    }

    fn init_node(&self, node: PAddr, pid: ProcId, seq: u64, op: &T::Op) {
        let w = T::encode(op);
        self.pool().store(node.offset(F_NEXT), 0);
        self.pool().store(node.offset(F_PID), pid as u64);
        self.pool().store(node.offset(F_SEQ), seq);
        self.pool().store(node.offset(F_OP0), w[0]);
        self.pool().store(node.offset(F_OP1), w[1]);
        self.pool().store(node.offset(F_OP2), w[2]);
        self.pool().flush(node); // one line
    }

    /// Appends `node` to the history list (lock-free consensus per link),
    /// returning its predecessor.
    fn append(&self, node: PAddr) {
        let hint = PAddr::from_index(A_TAIL_HINT);
        loop {
            let last_w = self.pool().load(hint);
            let last = tag::addr_of(last_w);
            let next_w = self.pool().load(last.offset(F_NEXT));
            let next = tag::addr_of(next_w);
            if !next.is_null() {
                // Help: persist the link before advancing the hint — the
                // hint must never point past an unpersisted link, or a
                // post-crash append could build on an unreachable node.
                self.pool().flush(last.offset(F_NEXT));
                self.pool().drain_line(last.offset(F_NEXT));
                let _ = self.pool().cas(hint, last_w, next.to_word());
                continue;
            }
            // The node's contents must be persistent before its link can
            // take effect — replay decodes whatever the line holds.
            self.pool().drain_line(node.offset(F_NEXT));
            if self.pool().cas(last.offset(F_NEXT), 0, node.to_word()).is_ok() {
                self.pool().flush(last.offset(F_NEXT));
                self.pool().drain_line(last.offset(F_NEXT));
                let _ = self.pool().cas(hint, last_w, node.to_word());
                return;
            }
        }
    }

    /// Replays the persisted history, returning the final state and, if
    /// `until` is reached, the response of the operation at `until`.
    fn replay(&self, until: Option<PAddr>) -> (T::State, Option<T::Resp>) {
        let mut state = self.spec.initial();
        let mut wanted = None;
        let mut cur = self.origin;
        loop {
            let next = tag::addr_of(self.pool().load(cur.offset(F_NEXT)));
            if next.is_null() {
                return (state, wanted);
            }
            let pid = self.pool().load(next.offset(F_PID)) as usize;
            let op = T::decode([
                self.pool().load(next.offset(F_OP0)),
                self.pool().load(next.offset(F_OP1)),
                self.pool().load(next.offset(F_OP2)),
            ]);
            let (s, r) = self
                .spec
                .apply(&state, &op, pid)
                .expect("base types are total; illegal op in history");
            state = s;
            if until == Some(next) {
                wanted = Some(r);
            }
            cur = next;
        }
    }

    /// **prep(op, seq)**: persists an operation node and announces it.
    pub fn prep(&self, h: ThreadHandle, op: T::Op, seq: u64) {
        let tid = h.slot();
        let node = self.alloc();
        self.init_node(node, tid, seq, &op);
        // Ordering point: the announce must not persist ahead of the node
        // it names.
        self.pool().drain_line(node.offset(F_NEXT));
        // Announce + the durable-before-return drain (DetectableCore).
        self.core.announce(tid, tag::set(node.to_word(), U_PREP));
    }

    /// **exec()**: appends the prepared operation to the history and
    /// returns its response.
    ///
    /// # Panics
    ///
    /// Panics if no operation is prepared (or it already executed).
    pub fn exec(&self, h: ThreadHandle) -> T::Resp {
        let xa = self.x_addr(h.slot());
        let x = self.pool().load(xa);
        assert!(
            tag::has(x, U_PREP) && !tag::has(x, U_COMPL),
            "exec without a pending prepared operation"
        );
        let node = tag::addr_of(x);
        // The announce must be persistent before the link can take effect:
        // resolve reports the op's effect only through the announced node.
        self.pool().drain_line(xa);
        self.append(node);
        self.core.complete(h.slot(), tag::set(x, U_COMPL));
        self.replay(Some(node)).1.expect("appended node is reachable")
    }

    /// The non-detectable operation (Axiom 4): append without touching `X`.
    pub fn plain(&self, h: ThreadHandle, op: T::Op) -> T::Resp {
        let node = self.alloc();
        self.init_node(node, h.slot(), 0, &op);
        self.append(node);
        self.replay(Some(node)).1.expect("appended node is reachable")
    }

    /// **resolve()**: reports the announced operation and, if its link
    /// persisted (it is reachable in the history), its recomputed response.
    pub fn resolve(&self, h: ThreadHandle) -> UniResolved<T> {
        let x = self.pool().load(self.x_addr(h.slot()));
        if !tag::has(x, U_PREP) {
            return (None, None);
        }
        let node = tag::addr_of(x);
        let op = T::decode([
            self.pool().load(node.offset(F_OP0)),
            self.pool().load(node.offset(F_OP1)),
            self.pool().load(node.offset(F_OP2)),
        ]);
        let seq = self.pool().load(node.offset(F_SEQ));
        let resp = self.replay(Some(node)).1;
        (Some((op, seq)), resp)
    }

    /// The object's current abstract state, recomputed from the history.
    pub fn state(&self) -> T::State {
        self.replay(None).0
    }
}

impl<T: SequentialSpec, M: Memory> Deref for Universal<T, M> {
    type Target = DetectableCore<M>;

    fn deref(&self) -> &DetectableCore<M> {
        &self.core
    }
}

impl<T: SequentialSpec, M: Memory> fmt::Debug for Universal<T, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Universal")
            .field("nthreads", &self.nthreads())
            .field("slots", &self.slots)
            .finish_non_exhaustive()
    }
}

// --- OpWords implementations for the canonical types ---------------------

impl OpWords for RegisterSpec {
    fn encode(op: &RegisterOp) -> [u64; 3] {
        match op {
            RegisterOp::Read => [0, 0, 0],
            RegisterOp::Write(v) => [1, *v, 0],
        }
    }
    fn decode(w: [u64; 3]) -> RegisterOp {
        match w[0] {
            0 => RegisterOp::Read,
            1 => RegisterOp::Write(w[1]),
            d => panic!("bad register op discriminant {d}"),
        }
    }
}

impl OpWords for CasSpec {
    fn encode(op: &CasOp) -> [u64; 3] {
        match op {
            CasOp::Read => [0, 0, 0],
            CasOp::Cas { expected, new } => [1, *expected, *new],
        }
    }
    fn decode(w: [u64; 3]) -> CasOp {
        match w[0] {
            0 => CasOp::Read,
            1 => CasOp::Cas { expected: w[1], new: w[2] },
            d => panic!("bad CAS op discriminant {d}"),
        }
    }
}

impl OpWords for CounterSpec {
    fn encode(op: &CounterOp) -> [u64; 3] {
        match op {
            CounterOp::Read => [0, 0, 0],
            CounterOp::FetchAdd(d) => [1, *d, 0],
        }
    }
    fn decode(w: [u64; 3]) -> CounterOp {
        match w[0] {
            0 => CounterOp::Read,
            1 => CounterOp::FetchAdd(w[1]),
            d => panic!("bad counter op discriminant {d}"),
        }
    }
}

impl OpWords for QueueSpec {
    fn encode(op: &QueueOp) -> [u64; 3] {
        match op {
            QueueOp::Enqueue(v) => [0, *v, 0],
            QueueOp::Dequeue => [1, 0, 0],
        }
    }
    fn decode(w: [u64; 3]) -> QueueOp {
        match w[0] {
            0 => QueueOp::Enqueue(w[1]),
            1 => QueueOp::Dequeue,
            d => panic!("bad queue op discriminant {d}"),
        }
    }
}

impl OpWords for StackSpec {
    fn encode(op: &StackOp) -> [u64; 3] {
        match op {
            StackOp::Push(v) => [0, *v, 0],
            StackOp::Pop => [1, 0, 0],
        }
    }
    fn decode(w: [u64; 3]) -> StackOp {
        match w[0] {
            0 => StackOp::Push(w[1]),
            1 => StackOp::Pop,
            d => panic!("bad stack op discriminant {d}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_pmem::WritebackAdversary;
    use dss_spec::types::{CounterResp, QueueResp, StackResp};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    #[test]
    fn queue_via_universal_construction() {
        let q = Universal::new(QueueSpec, 2, 64);
        let h0 = q.register_thread().unwrap();
        let h1 = q.register_thread().unwrap();
        assert_eq!(q.plain(h0, QueueOp::Enqueue(1)), QueueResp::Ok);
        assert_eq!(q.plain(h1, QueueOp::Enqueue(2)), QueueResp::Ok);
        assert_eq!(q.plain(h0, QueueOp::Dequeue), QueueResp::Value(1));
        assert_eq!(q.plain(h0, QueueOp::Dequeue), QueueResp::Value(2));
        assert_eq!(q.plain(h0, QueueOp::Dequeue), QueueResp::Empty);
    }

    #[test]
    fn detectable_counter_round_trip() {
        let c = Universal::new(CounterSpec, 1, 16);
        let h0 = c.register_thread().unwrap();
        c.prep(h0, CounterOp::FetchAdd(5), 0);
        assert_eq!(c.exec(h0), CounterResp::Value(0));
        assert_eq!(c.resolve(h0), (Some((CounterOp::FetchAdd(5), 0)), Some(CounterResp::Value(0))));
        assert_eq!(c.state(), 5);
    }

    #[test]
    fn resolve_without_prep() {
        let c = Universal::new(CounterSpec, 2, 8);
        let _h0 = c.register_thread().unwrap();
        let h1 = c.register_thread().unwrap();
        assert_eq!(c.resolve(h1), (None, None));
    }

    #[test]
    fn crash_sweep_fetch_add() {
        // A fetch&add is the classic non-idempotent op: the sweep checks
        // exactly-once accounting across every crash point.
        for adv in [WritebackAdversary::None, WritebackAdversary::All] {
            for k in 1..60 {
                let c = Universal::new(CounterSpec, 1, 16);
                let h0 = c.register_thread().unwrap();
                let crashed = c.pool().crashes_within(k, || {
                    c.prep(h0, CounterOp::FetchAdd(1), 7);
                    c.exec(h0);
                });
                if !crashed {
                    break;
                }
                c.pool().crash(&adv);
                c.rebuild_allocator();
                let count = c.state();
                match c.resolve(h0) {
                    (None, None) => assert_eq!(count, 0, "k={k} {adv:?}"),
                    (Some((CounterOp::FetchAdd(1), 7)), Some(CounterResp::Value(0))) => {
                        assert_eq!(count, 1, "k={k} {adv:?}")
                    }
                    (Some((CounterOp::FetchAdd(1), 7)), None) => {
                        assert_eq!(count, 0, "k={k} {adv:?}")
                    }
                    other => panic!("k={k} {adv:?}: impossible resolution {other:?}"),
                }
                // Exactly-once retry: if unresolved, re-exec; the count must
                // end at exactly 1 either way.
                if c.resolve(h0).1.is_none() {
                    c.prep(h0, CounterOp::FetchAdd(1), 8);
                    c.exec(h0);
                }
                assert_eq!(c.state(), 1, "k={k} {adv:?}: exactly-once violated");
            }
        }
    }

    #[test]
    fn concurrent_appends_agree_on_one_history() {
        let c = Arc::new(Universal::new(CounterSpec, 4, 512));
        let hs: Vec<_> = (0..4).map(|_| c.register_thread().unwrap()).collect();
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let c = Arc::clone(&c);
                let h = hs[tid];
                std::thread::spawn(move || {
                    for i in 0..100 {
                        c.prep(h, CounterOp::FetchAdd(1), i);
                        c.exec(h);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.state(), 400);
    }

    #[test]
    fn stack_resolve_after_crash_finds_linked_op() {
        let s = Universal::new(StackSpec, 1, 16);
        let h0 = s.register_thread().unwrap();
        s.prep(h0, StackOp::Push(9), 0);
        // Crash right after the link CAS + flush, before X gains COMPL:
        // append() ops: load hint, load last.next, CAS link, flush link —
        // crash on the hint CAS (5th op of exec; exec starts with load X).
        s.pool().arm_crash_after(6);
        let r = catch_unwind(AssertUnwindSafe(|| {
            s.exec(h0);
        }));
        s.pool().disarm_crash();
        assert!(r.is_err());
        s.pool().crash(&WritebackAdversary::None);
        s.rebuild_allocator();
        let (op, resp) = s.resolve(h0);
        assert_eq!(op, Some((StackOp::Push(9), 0)));
        assert_eq!(resp, Some(StackResp::Ok), "link persisted, so the push took effect");
        assert_eq!(s.state(), vec![9]);
    }

    #[test]
    fn codecs_round_trip() {
        for op in [QueueOp::Enqueue(u64::MAX), QueueOp::Dequeue] {
            assert_eq!(QueueSpec::decode(QueueSpec::encode(&op)), op);
        }
        for op in [RegisterOp::Read, RegisterOp::Write(7)] {
            assert_eq!(RegisterSpec::decode(RegisterSpec::encode(&op)), op);
        }
        for op in [CasOp::Read, CasOp::Cas { expected: 1, new: 2 }] {
            assert_eq!(CasSpec::decode(CasSpec::encode(&op)), op);
        }
        for op in [CounterOp::Read, CounterOp::FetchAdd(3)] {
            assert_eq!(CounterSpec::decode(CounterSpec::encode(&op)), op);
        }
        for op in [StackOp::Push(1), StackOp::Pop] {
            assert_eq!(StackSpec::decode(StackSpec::encode(&op)), op);
        }
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn capacity_limit_enforced() {
        let c = Universal::new(CounterSpec, 1, 2);
        let h0 = c.register_thread().unwrap();
        for _ in 0..3 {
            c.plain(h0, CounterOp::FetchAdd(1));
        }
    }
}
