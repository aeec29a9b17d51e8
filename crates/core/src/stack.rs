//! A DSS-based detectable recoverable Treiber stack (`D⟨stack⟩`).
//!
//! The paper presents one algorithm (the queue) as proof of concept; this
//! module demonstrates that the DSS recipe transfers to another container
//! with the same ingredients and no new assumptions. The stack is the
//! queue's [claimed-node list](crate::linked) under a `top` pointer
//! instead of a head and tail:
//!
//! * per-thread detectability word `X[tid]` holding a tagged node pointer
//!   (the queue's `ENQ_PREP`/`ENQ_COMPL` tags mark a push, `DEQ_PREP` and
//!   `EMPTY` a pop);
//! * a per-node claim field (`popper`, the stack's analogue of the
//!   queue's `deqThreadID`) written by CAS and flushed before the top
//!   pointer moves, so pops are detectable and helpers can finish them; a
//!   detectable pop announces the node it claims itself, where the queue
//!   announces the predecessor;
//! * a recovery scan that advances `top` past the claimed prefix and
//!   completes the `ENQ_COMPL` tags of pushes whose linkage persisted —
//!   the stack's Figure 6.
//!
//! This module keeps only `top`: the layout, the push and pop loops (each
//! one loop for its plain and detectable forms), `find_top`'s helping and
//! `repair_top`. Like the queue, the stack is lock-free: a failed CAS
//! always means some other thread's operation completed.

use std::fmt;
use std::ops::Deref;

use dss_pmem::object::{checked_words, thread_count};
use dss_pmem::{
    tag, AppKind, AttachError, FlushGranularity, Memory, ObjectCore, ObjectLayout, PAddr, PmemPool,
    ThreadHandle, WORDS_PER_LINE,
};
use dss_spec::types::StackResp;

use crate::detect::DetectableCore;
use crate::linked::{NodeList, Prepared, NODE_WORDS};

// Layout: [0:NULL][top line][n X lines][node region] — top and each X
// entry on their own cache line so contending CASes don't false-share.
const A_TOP: u64 = WORDS_PER_LINE;
const A_X_BASE: u64 = 2 * WORDS_PER_LINE;

/// Structure-kind word a file-backed stack records in its pool superblock.
pub const KIND_DSS_STACK: u64 = AppKind::DssStack.word();

/// The stack's pool layout, derived from `(nthreads, nodes_per_thread)`
/// alone (cf. the queue's `QueueLayout`).
struct StackLayout {
    nthreads: usize,
    nodes_per_thread: u64,
    region: u64,
    reg_base: u64,
}

impl ObjectLayout for StackLayout {
    const KIND: AppKind = AppKind::DssStack;

    fn params(&self) -> Vec<u64> {
        vec![self.nthreads as u64, self.nodes_per_thread]
    }

    fn from_params(p: &[u64]) -> Result<Self, &'static str> {
        let (nthreads, nodes_per_thread) = (thread_count(p[0])?, p[1]);
        let nodes = checked_words(&[nthreads as u64, nodes_per_thread, NODE_WORDS])?;
        let x_end = A_X_BASE + nthreads as u64 * WORDS_PER_LINE;
        let region = x_end.next_multiple_of(NODE_WORDS);
        let reg_base = (region + nodes).next_multiple_of(WORDS_PER_LINE);
        Ok(StackLayout { nthreads, nodes_per_thread, region, reg_base })
    }

    fn registry_base(&self) -> u64 {
        self.reg_base
    }
}

/// Push-side error: the pre-allocated node pool is exhausted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StackFull;

impl fmt::Display for StackFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("stack node pool exhausted")
    }
}

impl std::error::Error for StackFull {}

/// The operation reported by [`DssStack::resolve`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StackResolvedOp {
    /// The last prepared operation was `push(value)`.
    Push(u64),
    /// The last prepared operation was `pop()`.
    Pop,
}

/// The `(A[pᵢ], R[pᵢ])` answer of [`DssStack::resolve`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StackResolved {
    /// The most recently prepared operation, if any.
    pub op: Option<StackResolvedOp>,
    /// Its response, if it took effect.
    pub resp: Option<StackResp>,
}

/// A lock-free detectable recoverable LIFO stack on persistent memory.
///
/// # Examples
///
/// ```
/// use dss_core::{DssStack, StackResolved, StackResolvedOp};
/// use dss_spec::types::StackResp;
///
/// let s = DssStack::new(2, 32);
/// let h0 = s.register_thread().unwrap();
/// let h1 = s.register_thread().unwrap();
/// s.prep_push(h0, 7).unwrap();
/// s.exec_push(h0);
/// assert_eq!(
///     s.resolve(h0),
///     StackResolved { op: Some(StackResolvedOp::Push(7)), resp: Some(StackResp::Ok) }
/// );
/// s.prep_pop(h1);
/// assert_eq!(s.exec_pop(h1), StackResp::Value(7));
/// ```
///
/// With backoff on ([`set_backoff`](ObjectCore::set_backoff)), `exec-pop`
/// also elides redundant announce flushes.
pub struct DssStack<M: Memory = PmemPool> {
    list: NodeList<M>,
}

impl DssStack {
    /// Creates a stack for `nthreads` threads with `nodes_per_thread`
    /// pre-allocated nodes each, on a fresh line-granular [`PmemPool`].
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn new(nthreads: usize, nodes_per_thread: u64) -> Self {
        Self::new_in(nthreads, nodes_per_thread, FlushGranularity::Line)
    }

    /// Creates a stack on a **file-backed** pool at `path` (line-granular),
    /// recording [`KIND_DSS_STACK`] and the construction parameters in the
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
        let layout = StackLayout::from_args(&[nthreads as u64, nodes_per_thread]);
        let s = Self::assemble(ObjectCore::create(path, &layout, FlushGranularity::Line)?, &layout);
        s.format();
        Ok(s)
    }

    /// Rebuilds a stack from a pool file with no in-process state; the
    /// attach is a crash boundary, so follow with
    /// [`recover`](Self::recover) and per-handle
    /// [`resolve`](Self::resolve).
    ///
    /// # Errors
    ///
    /// Any [`AttachError`] of [`ObjectCore::attach`], including
    /// [`AttachError::AppMismatch`] if the file holds a different
    /// structure.
    pub fn attach<P: AsRef<std::path::Path>>(path: P) -> Result<Self, AttachError> {
        let (object, layout) = ObjectCore::attach(path)?;
        let s = Self::assemble(object, &layout);
        // Reachability from the possibly-lagging persisted top is a
        // superset of the true live set, so rebuilding before `recover`
        // repairs `top` is safe (cf. the queue's attach).
        s.rebuild_allocator();
        Ok(s)
    }
}

impl<M: Memory> DssStack<M> {
    /// Creates a stack on a freshly created backend of type `M`
    /// ([`Memory::create`]) — the backend-generic constructor behind
    /// [`new`](DssStack::new).
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn new_in(nthreads: usize, nodes_per_thread: u64, granularity: FlushGranularity) -> Self {
        let layout = StackLayout::from_args(&[nthreads as u64, nodes_per_thread]);
        let s = Self::assemble(ObjectCore::fresh(&layout, granularity), &layout);
        s.format();
        s
    }

    /// The shared constructor tail: in-DRAM side tables over an object
    /// skeleton — everything `attach` must rebuild rather than map.
    fn assemble(object: ObjectCore<M>, layout: &StackLayout) -> Self {
        // A pop announces the node it claims.
        let list = NodeList::new(
            object,
            A_TOP,
            A_X_BASE,
            layout.region,
            layout.nodes_per_thread,
            |_, n| n,
        );
        DssStack { list }
    }

    /// Writes and persists the initial stack state (fresh pools only —
    /// never run on attach).
    fn format(&self) {
        self.pool().store(self.top_addr(), PAddr::NULL.to_word());
        self.pool().flush(self.top_addr());
        self.list.format_x();
        self.pool().drain();
    }

    fn top_addr(&self) -> PAddr {
        PAddr::from_index(A_TOP)
    }

    /// The live top: skips the claimed prefix, helping claimed pops along
    /// (persist the claim, advance `top`). Whoever moves `top` past a node
    /// retires it, the helper as well as the popper.
    fn find_top(&self, tid: usize) -> PAddr {
        loop {
            let top_w = self.pool().load(self.top_addr());
            let top = tag::addr_of(top_w);
            if top.is_null() || !self.list.claimed(top) {
                return top;
            }
            // Claimed node at the top: help complete the pop.
            let next = self.list.persist_claim(top, || self.list.next_word(top));
            if self.pool().cas(self.top_addr(), top_w, next).is_ok() {
                self.list.retire(tid, top);
            }
        }
    }

    /// **prep-push(val)**: allocates and persists a node, announcing it in
    /// `X[tid]`.
    ///
    /// # Errors
    ///
    /// Returns [`StackFull`] when the node pool is exhausted.
    pub fn prep_push(&self, h: ThreadHandle, val: u64) -> Result<(), StackFull> {
        self.list.prep_insert(h.slot(), val).ok_or(StackFull)
    }

    /// **exec-push()**: links the prepared node as the new top and records
    /// completion in `X[tid]`.
    ///
    /// # Panics
    ///
    /// Panics if no push is prepared for `tid`.
    pub fn exec_push(&self, h: ThreadHandle) {
        let x = self.list.prepared_insert(h.slot(), "exec-push without a prepared push");
        self.push_node(h.slot(), tag::addr_of(x), Some(x));
    }

    /// Non-detectable **push(val)** (Axiom 4): `prep` + `exec` with the
    /// `X` accesses omitted.
    ///
    /// # Errors
    ///
    /// Returns [`StackFull`] when the node pool is exhausted.
    pub fn push(&self, h: ThreadHandle, val: u64) -> Result<(), StackFull> {
        let node = self.list.new_node(h.slot(), val).ok_or(StackFull)?;
        self.push_node(h.slot(), node, None);
        Ok(())
    }

    /// Links `node` as the new top; `x` is the announced `X` word of a
    /// detectable push.
    fn push_node(&self, tid: usize, node: PAddr, x: Option<u64>) {
        let _g = self.pin(tid);
        let mut bo = self.new_backoff();
        loop {
            let top = self.find_top(tid);
            let link = self.list.set_next(node, top);
            // Ordering point: the announce and the node's linkage, or a
            // plain push's whole node, must be persistent before the push
            // can take effect.
            match x {
                Some(_) => self.pool().drain_lines(&[self.x_addr(tid), link]),
                None => self.list.drain_node(node),
            }
            if self.pool().cas(self.top_addr(), top.to_word(), node.to_word()).is_ok() {
                self.pool().flush(self.top_addr());
                // Ordering point: the completion mark must not persist
                // ahead of the top pointer it certifies.
                self.pool().drain_line(self.top_addr());
                self.list.complete_insert(tid, x);
                self.pool().drain();
                return;
            }
            bo.spin();
        }
    }

    /// **prep-pop()**.
    pub fn prep_pop(&self, h: ThreadHandle) {
        self.list.prep_claim(h.slot());
    }

    /// **exec-pop()**: claims the top node by CAS-ing the thread ID into
    /// its `popper` field — having first announced the node in `X[tid]`,
    /// which is what makes the pop detectable.
    pub fn exec_pop(&self, h: ThreadHandle) -> StackResp {
        self.pop_top(h.slot(), true)
    }

    /// Non-detectable **pop()**: the claim combines the thread ID with the
    /// `NONDET_DEQ` tag so detection never mistakes it for a detectable
    /// claim by the same thread (cf. queue §3.2).
    pub fn pop(&self, h: ThreadHandle) -> StackResp {
        self.pop_top(h.slot(), false)
    }

    /// Claims the live top, announcing it in `X[tid]` only if
    /// `detectable`.
    fn pop_top(&self, tid: usize, detectable: bool) -> StackResp {
        let _g = self.pin(tid);
        let mut bo = self.new_backoff();
        // The announce word this call last wrote to X[tid] (0 = none).
        let mut announced = 0u64;
        loop {
            let top = self.find_top(tid);
            if top.is_null() {
                // The EMPTY mark is this path's completion mark.
                self.list.complete_empty(tid, detectable);
                self.pool().drain();
                return StackResp::Empty;
            }
            if detectable {
                // Announce the node we are about to claim (cf. queue line 47).
                self.list.announce_claim(tid, top, &mut announced);
            }
            if let Some(next) = self.list.claim(tid, top, detectable, || self.list.next_word(top)) {
                if self.pool().cas(self.top_addr(), top.to_word(), next).is_ok() {
                    self.list.retire(tid, top);
                }
                let val = self.list.value(top);
                self.pool().drain();
                return StackResp::Value(val);
            }
            // Lost the claim race; find_top will help the winner.
            bo.spin();
        }
    }

    /// **resolve()**: the `(A[pᵢ], R[pᵢ])` pair for the stack.
    pub fn resolve(&self, h: ThreadHandle) -> StackResolved {
        match self.list.resolve(h.slot()) {
            Some(Prepared::Insert { value, done }) => StackResolved {
                op: Some(StackResolvedOp::Push(value)),
                resp: done.then_some(StackResp::Ok),
            },
            Some(Prepared::Claim(taken)) => StackResolved {
                op: Some(StackResolvedOp::Pop),
                resp: taken.map(|v| v.map_or(StackResp::Empty, StackResp::Value)),
            },
            None => StackResolved { op: None, resp: None },
        }
    }

    /// Advances `top` past the claimed prefix and persists it (the
    /// structural half of the stack's Figure 6).
    fn repair_top(&self) {
        loop {
            let top = tag::addr_of(self.pool().load(self.top_addr()));
            if top.is_null() || !self.list.claimed(top) {
                break;
            }
            let next = self.list.next_word(top);
            self.pool().store(self.top_addr(), next);
        }
        self.pool().flush(self.top_addr());
    }

    /// Post-crash recovery (the stack's Figure 6, restructured through
    /// the registry): mark the crash boundary, advance `top` past the
    /// claimed prefix, walk the list from the repaired top, then adopt
    /// every orphaned slot and complete its `ENQ_COMPL` tag. Returns the
    /// adopted handles; pre-crash handles remain usable (adoption re-LIVEs
    /// slots rather than freeing them).
    ///
    /// The walk's nodes are the live set the allocator rebuild needs, and
    /// `recover` ends by rebuilding the allocator around them, so the
    /// [`rebuild_allocator`](Self::rebuild_allocator) that follows has
    /// nothing left to do.
    pub fn recover(&self) -> Vec<ThreadHandle> {
        self.list.recover(|| {
            self.repair_top();
            self.list.reachable()
        })
    }

    /// Independent per-slot recovery (§3.3): repairs only this handle's
    /// `X` entry; `top` is repaired lazily by `find_top`'s helping path.
    pub fn recover_one(&self, h: ThreadHandle) {
        self.list.recover_one(h);
    }

    /// Rebuilds the volatile allocator after a crash (`X`-referenced
    /// nodes stay allocated for `resolve`).
    ///
    /// Returns at once after [`recover`](Self::recover), which rebuilt the
    /// allocator before any thread resumed, until the next crash; after
    /// [`recover_one`](Self::recover_one) alone and on
    /// [`attach`](DssStack::attach) it walks the list from the top.
    pub fn rebuild_allocator(&self) {
        self.list.rebuild_allocator();
    }

    /// Volatile snapshot, top first (test helper; skips claimed nodes).
    pub fn snapshot_values(&self) -> Vec<u64> {
        self.list.unclaimed_values(tag::addr_of(self.pool().peek(self.top_addr())))
    }
}

impl<M: Memory> Deref for DssStack<M> {
    type Target = DetectableCore<M>;

    fn deref(&self) -> &DetectableCore<M> {
        &self.list
    }
}

impl<M: Memory> fmt::Debug for DssStack<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DssStack").field("nthreads", &self.nthreads()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::tests::one_thread;
    use crate::linked::tests::{crash_sweep, Verdict};
    use dss_pmem::{StatsSnapshot, WritebackAdversary};
    use std::sync::Arc;

    #[test]
    fn lifo_order_detectable_and_plain() {
        let s = DssStack::new(1, 16);
        let h0 = s.register_thread().unwrap();
        s.prep_push(h0, 1).unwrap();
        s.exec_push(h0);
        s.push(h0, 2).unwrap();
        s.prep_pop(h0);
        assert_eq!(s.exec_pop(h0), StackResp::Value(2));
        assert_eq!(s.pop(h0), StackResp::Value(1));
        assert_eq!(s.pop(h0), StackResp::Empty);
        s.prep_pop(h0);
        assert_eq!(s.exec_pop(h0), StackResp::Empty);
    }

    #[test]
    fn resolve_round_trip() {
        let s = DssStack::new(1, 16);
        let h0 = s.register_thread().unwrap();
        assert_eq!(s.resolve(h0), StackResolved { op: None, resp: None });
        s.prep_push(h0, 9).unwrap();
        assert_eq!(s.resolve(h0), StackResolved { op: Some(StackResolvedOp::Push(9)), resp: None });
        s.exec_push(h0);
        assert_eq!(
            s.resolve(h0),
            StackResolved { op: Some(StackResolvedOp::Push(9)), resp: Some(StackResp::Ok) }
        );
        s.prep_pop(h0);
        assert_eq!(s.resolve(h0), StackResolved { op: Some(StackResolvedOp::Pop), resp: None });
        assert_eq!(s.exec_pop(h0), StackResp::Value(9));
        assert_eq!(
            s.resolve(h0),
            StackResolved { op: Some(StackResolvedOp::Pop), resp: Some(StackResp::Value(9)) }
        );
    }

    /// The sweep's recovery: the centralized `recover` or the slot's own
    /// `recover_one`, then the allocator rebuild, which must leave the
    /// free lists a walk's rebuild leaves and conserve nodes.
    fn recover(s: &DssStack, h: ThreadHandle, central: bool) {
        s.list.assert_claimed_prefix();
        if central {
            s.recover();
        } else {
            s.recover_one(h);
        }
        s.rebuild_allocator();
        s.list.assert_rebuilt_as_walked();
        s.list.assert_conserved();
        s.list.assert_claimed_prefix();
    }

    #[test]
    fn push_crash_sweep_resolves_consistently() {
        let tallies = crash_sweep(
            |g| one_thread(<DssStack>::new_in(1, 8, g)),
            |s, h| {
                s.prep_push(h, 42).unwrap();
                s.exec_push(h);
            },
            recover,
            |s, h, at| {
                let present = s.snapshot_values() == vec![42];
                match s.resolve(h) {
                    StackResolved { op: None, resp: None } => {
                        assert!(!present, "{at}");
                        Verdict::NotPrepared
                    }
                    StackResolved {
                        op: Some(StackResolvedOp::Push(42)),
                        resp: Some(StackResp::Ok),
                    } => {
                        assert!(present, "{at}");
                        Verdict::Effect
                    }
                    StackResolved { op: Some(StackResolvedOp::Push(42)), resp: None } => {
                        assert!(!present, "{at}");
                        Verdict::NoEffect
                    }
                    other => panic!("{at}: impossible {other:?}"),
                }
            },
        );
        // Points = not prepared / no effect / effect, per configuration.
        assert_eq!(
            tallies,
            [
                "Line None: 14 = 6/6/2",
                "Line All: 14 = 5/6/3",
                "Line Random: 14 = 5/6/3",
                "Word None: 16 = 8/6/2",
                "Word All: 16 = 7/6/3",
                "Word Random: 16 = 7/6/3",
            ]
        );
    }

    #[test]
    fn pop_crash_sweep_resolves_consistently() {
        let tallies = crash_sweep(
            |g| {
                let (s, h) = one_thread(<DssStack>::new_in(1, 8, g));
                s.push(h, 7).unwrap();
                (s, h)
            },
            |s, h| {
                s.prep_pop(h);
                let _ = s.exec_pop(h);
            },
            recover,
            |s, h, at| {
                let still_there = s.snapshot_values() == vec![7];
                match s.resolve(h) {
                    StackResolved { op: None, resp: None } => {
                        assert!(still_there, "{at}");
                        Verdict::NotPrepared
                    }
                    StackResolved {
                        op: Some(StackResolvedOp::Pop),
                        resp: Some(StackResp::Value(7)),
                    } => {
                        assert!(!still_there, "{at}");
                        Verdict::Effect
                    }
                    StackResolved { op: Some(StackResolvedOp::Pop), resp: None } => {
                        assert!(still_there, "{at}");
                        Verdict::NoEffect
                    }
                    other => panic!("{at}: impossible {other:?}"),
                }
            },
        );
        // Points = not prepared / no effect / effect, per configuration.
        assert_eq!(
            tallies,
            [
                "Line None: 11 = 2/6/3",
                "Line All: 11 = 1/6/4",
                "Line Random: 11 = 1/6/4",
                "Word None: 11 = 2/6/3",
                "Word All: 11 = 1/6/4",
                "Word Random: 11 = 1/6/4",
            ]
        );
    }

    #[test]
    fn empty_pop_crash_sweep_resolves_consistently() {
        let tallies = crash_sweep(
            |g| one_thread(<DssStack>::new_in(1, 4, g)),
            |s, h| {
                s.prep_pop(h);
                let _ = s.exec_pop(h);
            },
            recover,
            |s, h, at| {
                assert!(s.snapshot_values().is_empty(), "{at}: the stack must stay empty");
                match s.resolve(h) {
                    StackResolved { op: None, resp: None } => Verdict::NotPrepared,
                    StackResolved { op: Some(StackResolvedOp::Pop), resp: None } => {
                        Verdict::NoEffect
                    }
                    StackResolved {
                        op: Some(StackResolvedOp::Pop),
                        resp: Some(StackResp::Empty),
                    } => Verdict::Effect,
                    other => panic!("{at}: impossible {other:?}"),
                }
            },
        );
        // Points = not prepared / no effect / effect, per configuration.
        assert_eq!(
            tallies,
            [
                "Line None: 5 = 2/3/0",
                "Line All: 5 = 1/3/1",
                "Line Random: 5 = 1/3/1",
                "Word None: 5 = 2/3/0",
                "Word All: 5 = 1/3/1",
                "Word Random: 5 = 1/3/1",
            ]
        );
    }

    #[test]
    fn concurrent_stress_conserves_values() {
        let s = Arc::new(DssStack::new(4, 64));
        let hs: Vec<_> = (0..4).map(|_| s.register_thread().unwrap()).collect();
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let s = Arc::clone(&s);
                let h = hs[tid];
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..250u64 {
                        let v = (tid as u64) << 32 | (i + 1);
                        if i % 2 == 0 {
                            s.prep_push(h, v).unwrap();
                            s.exec_push(h);
                        } else {
                            s.push(h, v).unwrap();
                        }
                        s.prep_pop(h);
                        if let StackResp::Value(x) = s.exec_pop(h) {
                            got.push(x);
                        }
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.extend(s.snapshot_values());
        all.sort_unstable();
        let mut expected: Vec<u64> =
            (0..4u64).flat_map(|t| (1..=250).map(move |i| t << 32 | i)).collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
        s.list.assert_conserved();
    }

    #[test]
    fn a_crash_in_a_push_that_recycles_the_node_the_persisted_top_named_keeps_the_stack() {
        // The pop's top CAS is not flushed, so the persisted top still
        // names the popped node, which the push of 3 recycles; a crash at
        // every point of that push must leave 1 in the stack.
        for k in 1.. {
            let s = DssStack::new(1, 2);
            let h = s.register_thread().unwrap();
            s.push(h, 1).unwrap();
            s.push(h, 2).unwrap();
            assert_eq!(s.pop(h), StackResp::Value(2));
            if !s.pool().crashes_within(k, || s.push(h, 3).unwrap()) {
                break;
            }
            s.pool().crash(&WritebackAdversary::None);
            s.recover();
            s.rebuild_allocator();
            let left = s.snapshot_values();
            assert!(left == [1] || left == [3, 1], "crash at op {k}: {left:?}");
        }
    }

    #[test]
    fn recovery_advances_top_past_claimed_prefix() {
        let s = DssStack::new(2, 16);
        let h0 = s.register_thread().unwrap();
        let h1 = s.register_thread().unwrap();
        s.push(h0, 1).unwrap();
        s.push(h0, 2).unwrap();
        // Claim the top but crash before the top CAS. Op count:
        // prep (store X, flush X) = 2; find_top (load top, load popper)
        // = 4; announce (store X, flush X) = 6; claim CAS = 7 — crash on
        // op 8 (the claim's flush; the All adversary persists the claim).
        let crashed = s.pool().crashes_within(8, || {
            s.prep_pop(h1);
            let _ = s.exec_pop(h1);
        });
        assert!(crashed);
        s.pool().crash(&WritebackAdversary::All);
        s.recover();
        s.rebuild_allocator();
        // The claim persisted: resolve delivers the value, and the stack
        // exposes only the remaining element.
        assert_eq!(
            s.resolve(h1),
            StackResolved { op: Some(StackResolvedOp::Pop), resp: Some(StackResp::Value(2)) }
        );
        assert_eq!(s.snapshot_values(), vec![1]);
        assert_eq!(s.pop(h0), StackResp::Value(1));
    }

    #[test]
    fn a_helped_pop_retires_its_node() {
        // A popper stalls for good between its claim and its top swing:
        // it unwinds at its 4th pool op, the claim's flush, after loading
        // top and popper and winning the claim CAS. The next pop helps the
        // swing and must retire the node, or it leaks.
        let s = DssStack::new(1, 4);
        let h = s.register_thread().unwrap();
        s.push(h, 1).unwrap();
        s.push(h, 2).unwrap();
        assert!(s.pool().crashes_within(4, || {
            let _ = s.pop(h);
        }));
        assert_eq!(s.snapshot_values(), vec![1]);
        assert_eq!(s.pop(h), StackResp::Value(1));
        s.list.assert_conserved();
    }

    #[test]
    #[should_panic(expected = "without a prepared push")]
    fn exec_push_without_prep_panics() {
        let s = DssStack::new(1, 4);
        let h0 = s.register_thread().unwrap();
        s.exec_push(h0);
    }

    #[test]
    fn many_ops_through_small_pool() {
        let s = DssStack::new(1, 4);
        let h0 = s.register_thread().unwrap();
        for i in 0..500 {
            s.push(h0, i).unwrap();
            assert_eq!(s.pop(h0), StackResp::Value(i));
        }
    }

    #[test]
    fn recovery_pool_operations_are_pinned() {
        // A 1024-value stack crashed with one completed detectable pop and
        // one prepared push (cf. the queue's test of the same name): its
        // recovery's volatile bookkeeping may change, its pool operations
        // may not.
        let s = DssStack::new(2, 1024);
        let h0 = s.register_thread().unwrap();
        let h1 = s.register_thread().unwrap();
        for v in 0..1024 {
            s.push(h0, v).unwrap();
        }
        s.prep_pop(h1);
        assert_eq!(s.exec_pop(h1), StackResp::Value(1023));
        s.prep_push(h0, 1024).unwrap();
        s.pool().crash(&WritebackAdversary::None);

        let before = s.pool().stats();
        let hs = s.recover();
        let recovered = s.pool().stats();
        s.rebuild_allocator();
        let rebuilt = s.pool().stats();
        assert_eq!(hs.len(), 2);
        let counts = |loads, stores, cas_ok, flushes| StatsSnapshot {
            loads,
            stores,
            cas_ok,
            flushes,
            ..StatsSnapshot::default()
        };
        // `recover` ends by rebuilding the allocator: it loads the two `X`
        // words (a pop announces the node it claims itself). The rebuild
        // after it has nothing left to do.
        assert_eq!(recovered.since(&before), counts(1043, 8, 2, 6), "recover");
        assert_eq!(rebuilt.since(&recovered), counts(0, 0, 0, 0), "rebuild_allocator");
    }

    #[test]
    fn recover_alone_frees_the_node_of_a_prep_push_that_crashed() {
        // A crash inside `prep_push` before `X[0]` persists leaves the node
        // it allocated reachable from nothing: `recover` must return it to
        // the free lists without a separate `rebuild_allocator`.
        for k in 1.. {
            let (s, h) = one_thread(DssStack::new(1, 4));
            s.push(h, 1).unwrap();
            if !s.pool().crashes_within(k, || s.prep_push(h, 2).unwrap()) {
                break;
            }
            s.pool().crash(&WritebackAdversary::None);
            s.recover();
            s.list.assert_conserved();
        }
    }

    /// A stack holding 2 over 1, crashed and recovered. The operations the
    /// tests below run before `rebuild_allocator` change the live set
    /// `recover` rebuilt the allocator around: a rebuild around that set
    /// would free a linked node or leak a retired one.
    fn recovered_stack() -> (DssStack, ThreadHandle) {
        let (s, h) = one_thread(DssStack::new(1, 4));
        s.push(h, 1).unwrap();
        s.push(h, 2).unwrap();
        s.pool().crash(&WritebackAdversary::None);
        s.recover();
        (s, h)
    }

    #[test]
    fn a_push_between_recover_and_the_rebuild_keeps_its_node() {
        // The push links a node above the top `recover` found.
        let (s, h) = recovered_stack();
        s.push(h, 3).unwrap();
        s.rebuild_allocator();
        assert_eq!(s.snapshot_values(), [3, 2, 1]);
        s.list.assert_conserved();
    }

    #[test]
    fn a_pop_between_recover_and_the_rebuild_frees_its_node() {
        // The pop moves the top and retires the node it took, which
        // `recover` found live.
        let (s, h) = recovered_stack();
        assert_eq!(s.pop(h), StackResp::Value(2));
        s.rebuild_allocator();
        assert_eq!(s.snapshot_values(), [1]);
        s.list.assert_conserved();
    }
}
