//! A DSS-based detectable recoverable Treiber stack (`D⟨stack⟩`).
//!
//! The paper presents one algorithm (the queue) as proof of concept; this
//! module demonstrates that the DSS recipe transfers to another container
//! with the same ingredients and no new assumptions:
//!
//! * per-thread detectability word `X[tid]` holding a tagged node pointer
//!   (`PUSH_PREP`/`PUSH_COMPL`/`POP_PREP`/`EMPTY` in the high bits);
//! * a per-node claim field (`popper`, the stack's analogue of the
//!   queue's `deqThreadID`) written by CAS and flushed before the top
//!   pointer moves, so pops are detectable and helpers can finish them;
//! * a recovery scan that advances `top` past the claimed prefix and
//!   completes the `PUSH_COMPL` tags of pushes whose linkage persisted —
//!   the stack's Figure 6.
//!
//! Like the queue, the stack is lock-free: a failed CAS always means some
//! other thread's operation completed.

use std::fmt;
use std::ops::Deref;

use dss_pmem::object::{checked_words, thread_count};
use dss_pmem::{
    tag, AppKind, AttachError, FlushGranularity, Memory, NodePool, NodeSet, ObjectCore,
    ObjectLayout, PAddr, PmemPool, ThreadHandle, WORDS_PER_LINE,
};
use dss_spec::types::StackResp;

use crate::detect::DetectableCore;

// Node layout: {value, next, popper, pad}, line-aligned.
const F_VALUE: u64 = 0;
const F_NEXT: u64 = 1;
const F_POPPER: u64 = 2;
const NODE_WORDS: u64 = 4;

/// `popper` sentinel: nobody has popped this node.
const NO_POPPER: u64 = u64::MAX;

// X tags (same bit positions as the queue's; the objects never share an X
// word).
const PUSH_PREP: u64 = tag::ENQ_PREP;
const PUSH_COMPL: u64 = tag::ENQ_COMPL;
const POP_PREP: u64 = tag::DEQ_PREP;
const EMPTY: u64 = tag::EMPTY;

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
    core: DetectableCore<M>,
    nodes: NodePool,
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
        let region = PAddr::from_index(layout.region);
        DssStack {
            core: DetectableCore::new(object, A_X_BASE, WORDS_PER_LINE),
            nodes: NodePool::new(region, NODE_WORDS, layout.nodes_per_thread, layout.nthreads),
        }
    }

    /// Writes and persists the initial stack state (fresh pools only —
    /// never run on attach).
    fn format(&self) {
        self.pool().store(self.top_addr(), PAddr::NULL.to_word());
        self.pool().flush(self.top_addr());
        self.core.format_x();
        self.pool().drain();
    }

    fn top_addr(&self) -> PAddr {
        PAddr::from_index(A_TOP)
    }

    /// The nodes the detectability words still name — a prepared push's
    /// node or a claimed pop's node. `resolve` dereferences them long
    /// after the operation completes, so epoch reclamation must not
    /// recycle them (the crash-free counterpart of
    /// [`rebuild_allocator`](Self::rebuild_allocator)'s liveness rule).
    fn x_referenced_nodes(&self) -> Vec<PAddr> {
        (0..self.nthreads())
            .map(|i| tag::addr_of(self.pool().load(self.x_addr(i))))
            .filter(|d| !d.is_null())
            .collect()
    }

    fn alloc(&self, tid: usize) -> Result<PAddr, StackFull> {
        self.nodes
            .alloc_with_reclaim_guarded(tid, self.ebr(), || self.x_referenced_nodes())
            .ok_or(StackFull)
    }

    /// The live top: skips the claimed prefix, helping claimed pops along
    /// (persist the claim, advance `top`).
    fn find_top(&self, _tid: usize) -> PAddr {
        loop {
            let top_w = self.pool().load(self.top_addr());
            let top = tag::addr_of(top_w);
            if top.is_null() {
                return top;
            }
            if self.pool().load(top.offset(F_POPPER)) == NO_POPPER {
                return top;
            }
            // Claimed node at the top: help complete the pop.
            self.pool().flush(top.offset(F_POPPER));
            let next = self.pool().load(top.offset(F_NEXT));
            // The top must not persist past an unpersisted claim.
            self.pool().drain_line(top.offset(F_POPPER));
            let _ = self.pool().cas(self.top_addr(), top_w, next);
        }
    }

    /// **prep-push(val)**: allocates and persists a node, announcing it in
    /// `X[tid]`.
    ///
    /// # Errors
    ///
    /// Returns [`StackFull`] when the node pool is exhausted.
    pub fn prep_push(&self, h: ThreadHandle, val: u64) -> Result<(), StackFull> {
        let tid = h.slot();
        let node = self.alloc(tid)?;
        self.pool().store(node.offset(F_VALUE), val);
        self.pool().store(node.offset(F_NEXT), PAddr::NULL.to_word());
        self.pool().store(node.offset(F_POPPER), NO_POPPER);
        self.flush_node(node);
        // Ordering point: the announce must not persist ahead of the node
        // it names — a targeted drain of the node's own lines.
        self.drain_node(node);
        // Announce + the durable-before-return drain (DetectableCore).
        self.core.announce(tid, tag::set(node.to_word(), PUSH_PREP));
        Ok(())
    }

    fn flush_node(&self, node: PAddr) {
        match self.pool().granularity() {
            FlushGranularity::Line => self.pool().flush(node),
            FlushGranularity::Word => {
                self.pool().flush(node.offset(F_VALUE));
                self.pool().flush(node.offset(F_NEXT));
                self.pool().flush(node.offset(F_POPPER));
            }
        }
    }

    /// Targeted drain of a node's own flush units (cf. the queue's
    /// `drain_node`): everything else stays pended.
    fn drain_node(&self, node: PAddr) {
        self.pool().drain_lines(&[
            node.offset(F_VALUE),
            node.offset(F_NEXT),
            node.offset(F_POPPER),
        ]);
    }

    /// **exec-push()**: links the prepared node as the new top and records
    /// completion in `X[tid]`.
    ///
    /// # Panics
    ///
    /// Panics if no push is prepared for `tid`.
    pub fn exec_push(&self, h: ThreadHandle) {
        let tid = h.slot();
        let _g = self.pin(tid);
        let xa = self.x_addr(tid);
        let x = self.pool().load(xa);
        assert!(tag::has(x, PUSH_PREP), "exec-push without a prepared push");
        let node = tag::addr_of(x);
        let mut bo = self.new_backoff();
        loop {
            let top = self.find_top(tid);
            self.pool().store(node.offset(F_NEXT), top.to_word());
            self.pool().flush(node.offset(F_NEXT));
            // Ordering point: the announce and the node's linkage must be
            // persistent before the push can take effect.
            self.pool().drain_lines(&[xa, node.offset(F_NEXT)]);
            if self.pool().cas(self.top_addr(), top.to_word(), node.to_word()).is_ok() {
                self.pool().flush(self.top_addr());
                // Ordering point: the completion mark must not persist
                // ahead of the top pointer it certifies.
                self.pool().drain_line(self.top_addr());
                self.core.complete(tid, tag::set(x, PUSH_COMPL));
                self.pool().drain();
                return;
            }
            bo.spin();
        }
    }

    /// Non-detectable **push(val)** (Axiom 4): `prep` + `exec` with the
    /// `X` accesses omitted.
    ///
    /// # Errors
    ///
    /// Returns [`StackFull`] when the node pool is exhausted.
    pub fn push(&self, h: ThreadHandle, val: u64) -> Result<(), StackFull> {
        let tid = h.slot();
        let node = self.alloc(tid)?;
        self.pool().store(node.offset(F_VALUE), val);
        self.pool().store(node.offset(F_NEXT), PAddr::NULL.to_word());
        self.pool().store(node.offset(F_POPPER), NO_POPPER);
        self.flush_node(node);
        let _g = self.pin(tid);
        let mut bo = self.new_backoff();
        loop {
            let top = self.find_top(tid);
            self.pool().store(node.offset(F_NEXT), top.to_word());
            self.pool().flush(node.offset(F_NEXT));
            // The node must be persistent before its linkage can be.
            self.drain_node(node);
            if self.pool().cas(self.top_addr(), top.to_word(), node.to_word()).is_ok() {
                self.pool().flush(self.top_addr());
                self.pool().drain();
                return Ok(());
            }
            bo.spin();
        }
    }

    /// **prep-pop()**.
    pub fn prep_pop(&self, h: ThreadHandle) {
        // Announce + the durable-before-return drain (DetectableCore).
        self.core.announce(h.slot(), POP_PREP);
    }

    /// **exec-pop()**: claims the top node by CAS-ing the thread ID into
    /// its `popper` field — having first announced the node in `X[tid]`,
    /// which is what makes the pop detectable.
    ///
    /// # Panics
    ///
    /// Panics if no pop is prepared for `tid`.
    pub fn exec_pop(&self, h: ThreadHandle) -> StackResp {
        let tid = h.slot();
        let _g = self.pin(tid);
        let xa = self.x_addr(tid);
        let elide = self.backoff_enabled();
        let mut bo = self.new_backoff();
        // Last announce this call wrote to X[tid] (0 = none): a retry that
        // targets the same top again may skip re-persisting it, since only
        // this thread writes X[tid].
        let mut announced = 0u64;
        loop {
            let top = self.find_top(tid);
            if top.is_null() {
                // The EMPTY mark is this path's completion mark.
                self.core.complete(tid, POP_PREP | EMPTY);
                self.pool().drain();
                return StackResp::Empty;
            }
            // Announce the node we are about to claim (cf. queue line 47).
            let announce = tag::set(top.to_word(), POP_PREP);
            if !elide || announced != announce {
                self.pool().store(xa, announce);
                self.pool().flush(xa);
                announced = announce;
            }
            // Ordering point: the announced node must be persistent before
            // a claim on it can be — resolve interprets the claim through it.
            self.pool().drain_line(xa);
            if self.pool().cas(top.offset(F_POPPER), NO_POPPER, tid as u64).is_ok() {
                self.pool().flush(top.offset(F_POPPER));
                let next = self.pool().load(top.offset(F_NEXT));
                // The top must not persist past an unpersisted claim.
                self.pool().drain_line(top.offset(F_POPPER));
                if self.pool().cas(self.top_addr(), top.to_word(), next).is_ok() {
                    self.retire(tid, top);
                }
                let val = self.pool().load(top.offset(F_VALUE));
                self.pool().drain();
                return StackResp::Value(val);
            }
            // Lost the claim race; find_top will help the winner.
            bo.spin();
        }
    }

    /// Non-detectable **pop()**: the claim combines the thread ID with the
    /// `NONDET_DEQ` tag so detection never mistakes it for a detectable
    /// claim by the same thread (cf. queue §3.2).
    pub fn pop(&self, h: ThreadHandle) -> StackResp {
        let tid = h.slot();
        let _g = self.pin(tid);
        let mut bo = self.new_backoff();
        loop {
            let top = self.find_top(tid);
            if top.is_null() {
                self.pool().drain();
                return StackResp::Empty;
            }
            if self
                .pool()
                .cas(top.offset(F_POPPER), NO_POPPER, tid as u64 | tag::NONDET_DEQ)
                .is_ok()
            {
                self.pool().flush(top.offset(F_POPPER));
                let next = self.pool().load(top.offset(F_NEXT));
                self.pool().drain_line(top.offset(F_POPPER));
                if self.pool().cas(self.top_addr(), top.to_word(), next).is_ok() {
                    self.retire(tid, top);
                }
                let val = self.pool().load(top.offset(F_VALUE));
                self.pool().drain();
                return StackResp::Value(val);
            }
            bo.spin();
        }
    }

    fn retire(&self, tid: usize, node: PAddr) {
        if self.nodes.contains(node) {
            self.ebr().retire(tid, node);
        }
    }

    /// **resolve()**: the `(A[pᵢ], R[pᵢ])` pair for the stack.
    pub fn resolve(&self, h: ThreadHandle) -> StackResolved {
        let tid = h.slot();
        let x = self.pool().load(self.x_addr(tid));
        if tag::has(x, PUSH_PREP) {
            let node = tag::addr_of(x);
            let value = self.pool().load(node.offset(F_VALUE));
            StackResolved {
                op: Some(StackResolvedOp::Push(value)),
                resp: tag::has(x, PUSH_COMPL).then_some(StackResp::Ok),
            }
        } else if tag::has(x, POP_PREP) {
            let node = tag::addr_of(x);
            let resp = if node.is_null() {
                tag::has(x, EMPTY).then_some(StackResp::Empty)
            } else if self.pool().load(node.offset(F_POPPER)) == tid as u64 {
                Some(StackResp::Value(self.pool().load(node.offset(F_VALUE))))
            } else {
                None
            };
            StackResolved { op: Some(StackResolvedOp::Pop), resp }
        } else {
            StackResolved { op: None, resp: None }
        }
    }

    /// Advances `top` past the claimed prefix and persists it (the
    /// structural half of the stack's Figure 6).
    fn repair_top(&self) {
        loop {
            let top_w = self.pool().load(self.top_addr());
            let top = tag::addr_of(top_w);
            if top.is_null() || self.pool().load(top.offset(F_POPPER)) == NO_POPPER {
                break;
            }
            let next = self.pool().load(top.offset(F_NEXT));
            self.pool().store(self.top_addr(), next);
        }
        self.pool().flush(self.top_addr());
    }

    fn reachable_set(&self) -> NodeSet {
        let mut set = self.nodes.node_set();
        let mut cur = tag::addr_of(self.pool().load(self.top_addr()));
        while !cur.is_null() {
            set.insert(cur);
            cur = tag::addr_of(self.pool().load(cur.offset(F_NEXT)));
        }
        set
    }

    /// Completes slot `i`'s `PUSH_COMPL` tag if its prepared push took
    /// effect (node reachable, or already claimed off the stack).
    fn recover_x_entry(&self, i: usize, reachable: &NodeSet) {
        let xa = self.x_addr(i);
        let x = self.pool().load(xa);
        if !tag::has(x, PUSH_PREP) || tag::has(x, PUSH_COMPL) {
            return;
        }
        let d = tag::addr_of(x);
        if d.is_null() {
            return;
        }
        let effective = reachable.contains(d) || self.pool().load(d.offset(F_POPPER)) != NO_POPPER;
        if effective {
            self.core.complete(i, tag::set(x, PUSH_COMPL));
        }
    }

    /// Post-crash recovery (the stack's Figure 6, restructured through
    /// the registry): mark the crash boundary, advance `top` past the
    /// claimed prefix, then adopt every orphaned slot and complete its
    /// `PUSH_COMPL` tag. Returns the adopted handles; pre-crash handles
    /// remain usable (adoption re-LIVEs slots rather than freeing them).
    pub fn recover(&self) -> Vec<ThreadHandle> {
        self.core.recover_adopting(
            || {
                self.repair_top();
                self.reachable_set()
            },
            |slot, reachable| self.recover_x_entry(slot, reachable),
        )
    }

    /// Independent per-slot recovery (§3.3): repairs only this handle's
    /// `X` entry; `top` is repaired lazily by `find_top`'s helping path.
    pub fn recover_one(&self, h: ThreadHandle) {
        self.core.recover_one_with(
            h,
            || self.reachable_set(),
            |slot, reachable| self.recover_x_entry(slot, reachable),
        );
    }

    /// Rebuilds the volatile allocator after a crash (`X`-referenced
    /// nodes stay allocated for `resolve`).
    pub fn rebuild_allocator(&self) {
        let mut live = self.reachable_set();
        live.extend(self.x_referenced_nodes());
        self.nodes.rebuild(&live);
        self.ebr().reset();
    }

    /// Volatile snapshot, top first (test helper; skips claimed nodes).
    pub fn snapshot_values(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = tag::addr_of(self.pool().peek(self.top_addr()));
        while !cur.is_null() {
            if self.pool().peek(cur.offset(F_POPPER)) == NO_POPPER {
                out.push(self.pool().peek(cur.offset(F_VALUE)));
            }
            cur = tag::addr_of(self.pool().peek(cur.offset(F_NEXT)));
        }
        out
    }
}

impl<M: Memory> Deref for DssStack<M> {
    type Target = DetectableCore<M>;

    fn deref(&self) -> &DetectableCore<M> {
        &self.core
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
    use dss_pmem::WritebackAdversary;
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

    #[test]
    fn push_crash_sweep_resolves_consistently() {
        for adv in [
            WritebackAdversary::None,
            WritebackAdversary::All,
            WritebackAdversary::Random { seed: 9, prob: 0.5 },
        ] {
            for k in 1..50 {
                let s = DssStack::new(1, 8);
                let h0 = s.register_thread().unwrap();
                let crashed = s.pool().crashes_within(k, || {
                    s.prep_push(h0, 42).unwrap();
                    s.exec_push(h0);
                });
                if !crashed {
                    break;
                }
                s.pool().crash(&adv);
                s.recover();
                s.rebuild_allocator();
                let present = s.snapshot_values() == vec![42];
                match s.resolve(h0) {
                    StackResolved { op: None, resp: None } => {
                        assert!(!present, "k={k} {adv:?}")
                    }
                    StackResolved {
                        op: Some(StackResolvedOp::Push(42)),
                        resp: Some(StackResp::Ok),
                    } => assert!(present, "k={k} {adv:?}"),
                    StackResolved { op: Some(StackResolvedOp::Push(42)), resp: None } => {
                        assert!(!present, "k={k} {adv:?}")
                    }
                    other => panic!("k={k} {adv:?}: impossible {other:?}"),
                }
            }
        }
    }

    #[test]
    fn pop_crash_sweep_resolves_consistently() {
        for adv in [WritebackAdversary::None, WritebackAdversary::All] {
            for k in 1..50 {
                let s = DssStack::new(1, 8);
                let h0 = s.register_thread().unwrap();
                s.push(h0, 7).unwrap();
                let crashed = s.pool().crashes_within(k, || {
                    s.prep_pop(h0);
                    let _ = s.exec_pop(h0);
                });
                if !crashed {
                    break;
                }
                s.pool().crash(&adv);
                s.recover();
                s.rebuild_allocator();
                let still_there = s.snapshot_values() == vec![7];
                match s.resolve(h0) {
                    StackResolved { op: None, resp: None } => {
                        assert!(still_there, "k={k} {adv:?}")
                    }
                    StackResolved {
                        op: Some(StackResolvedOp::Pop),
                        resp: Some(StackResp::Value(7)),
                    } => assert!(!still_there, "k={k} {adv:?}"),
                    StackResolved { op: Some(StackResolvedOp::Pop), resp: None } => {
                        assert!(still_there, "k={k} {adv:?}")
                    }
                    other => panic!("k={k} {adv:?}: impossible {other:?}"),
                }
            }
        }
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
}
