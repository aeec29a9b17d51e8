//! The versioned binding: a pointer word naming an immutable value node,
//! and the one install protocol the register, the CAS object and the map
//! run on it.
//!
//! A recoverable object cannot keep provenance in a bare 64-bit cell: if a
//! thread's write is overwritten before the thread persists its completion
//! mark, no post-crash inspection of the cell can tell whether the write
//! ever took effect. So every write allocates an immutable *value node*
//! `[payload0, payload1, seq, flags]`, and a *binding* is a pointer word
//! naming the current one: the single cell of
//! [`DetectableRegister`](crate::DetectableRegister) and
//! [`DetectableCas`](crate::DetectableCas), and the `vptr` word of each
//! [`DetectableMap`](crate::DetectableMap) entry. [`Bindings`] writes the
//! protocol once:
//!
//! * **Prep** ([`prep`](Bindings::prep)) persists every field word of a
//!   fresh node and announces it in `X[slot]` tagged [`PREP`].
//! * **Install** ([`install`](Bindings::install)) flags the current node
//!   `SUPERSEDED`, persisted and ordered with the announce, *before* it
//!   CASes the pointer; then it persists the pointer and, for a
//!   detectable write, the completion mark.
//! * **Effect proof** ([`took_effect`](Bindings::took_effect)): a
//!   prepared write took effect iff `X` carries [`COMPL`], or its node is
//!   flagged `SUPERSEDED`, or its node is still current. All three survive
//!   a crash, so `resolve` needs no recovery phase.
//!
//! A value node is **retired exactly once**, at a cost independent of how
//! many bindings its writer owns:
//!
//! * **The superseder retires.** The thread whose install replaced a node
//!   retires it at once — unless some `X[t]` still names it (`resolve` may
//!   dereference it), in which case it parks the node in slot `t`'s `held`
//!   list, and slot `t` retires it at the top of a later write, once
//!   `X[t]` has moved on.
//! * **The owner retires what was never installed.** When a prep moves `X`
//!   off its previous node (an abandoned prep, a failed CAS, a remove of an
//!   absent key), the owner retires that node if it is neither current nor
//!   flagged `SUPERSEDED`. The flag is set before the replacing CAS, so
//!   such a node was never installed and no other thread knows of it.
//!
//! After a crash, [`rebuild`](Bindings::rebuild) keeps every node an `X`
//! word names and parks a superseded one with its slot again. Retirement
//! uses only uninstrumented `peek`s and EBR calls: it adds no pool
//! operation. The objects read a pointer word only through
//! [`current`](Bindings::current), store a fresh one only with
//! [`seed`](Bindings::seed), and leave every compare of one to this module.

use std::ops::Deref;

use dss_pmem::{
    tag, AppKind, CachePadded, Memory, Mutex, NodePool, NodeSet, ObjectCore, PAddr, WORDS_PER_LINE,
};

use crate::detect::DetectableCore;

/// First `X` word. Every binding object's layout starts `[0: NULL][root
/// line][n X lines]`: the object's root word (the cell, the map's level
/// count) and each `X` entry on a cache line of its own.
const X_BASE: u64 = 2 * WORDS_PER_LINE;

/// First word past the `X` lines of `nthreads` slots.
pub(crate) fn x_end(nthreads: usize) -> u64 {
    X_BASE + nthreads as u64 * WORDS_PER_LINE
}

/// First payload word of a value node (the cell's value, the map's key).
pub(crate) const PAYLOAD0: u64 = 0;
/// Second payload word (the CAS object's expected value, the map's value).
pub(crate) const PAYLOAD1: u64 = 1;
/// The writer's packed `(slot, seq)`, or [`NO_WRITER`].
const SEQ: u64 = 2;
/// Flag bits: [`SUPERSEDED`], and the object's own above it.
pub(crate) const FLAGS: u64 = 3;
/// Words per node. Nodes never straddle a line: node regions are
/// `NODE_WORDS`-aligned and `NODE_WORDS` divides the line.
pub(crate) const NODE_WORDS: u64 = 4;

/// `flags` bit: a later install replaced this node.
const SUPERSEDED: u64 = 1;

/// The seq word of a plain write's node.
const NO_WRITER: u64 = u64::MAX;

/// `X` tag: the word names an announced value node. (Bit positions are
/// shared with the queue's enqueue tags; objects never share an `X` word.)
pub(crate) const PREP: u64 = tag::ENQ_PREP;
/// `X` tag: the announced operation completed.
pub(crate) const COMPL: u64 = tag::ENQ_COMPL;

/// An object's bindings: its [`DetectableCore`], which it dereferences to,
/// the node pool its value nodes come from, and the retirement state of
/// the [module docs](self).
pub(crate) struct Bindings<M: Memory> {
    core: DetectableCore<M>,
    nodes: NodePool,
    /// Per-slot superseded value nodes that slot's `X` still named when
    /// they were replaced. Never holds a current binding: at most a couple
    /// of nodes. Padded, since every write locks its own slot's list.
    pub(crate) held: Box<[CachePadded<Mutex<Vec<PAddr>>>]>,
    /// Names the object in the exhaustion panic.
    kind: AppKind,
}

/// The outcome of one [`install`](Bindings::install) attempt.
pub(crate) enum Install {
    /// The pointer names the new node now.
    Done,
    /// Another install moved the pointer first: retry.
    Lost,
    /// `admit` refused the current node; nothing was written.
    Refused,
}

/// A slot's announced operation, as `X` and its value node record it.
pub(crate) struct Announced {
    /// The `X` word.
    pub(crate) x: u64,
    /// The value node it names.
    pub(crate) node: PAddr,
    pub(crate) payload0: u64,
    /// The application's §2.1 disambiguation tag.
    pub(crate) seq: u64,
    pub(crate) flags: u64,
}

impl<M: Memory> Deref for Bindings<M> {
    type Target = DetectableCore<M>;

    fn deref(&self) -> &DetectableCore<M> {
        &self.core
    }
}

impl<M: Memory> Bindings<M> {
    /// A `kind` object's bindings over its skeleton, with `nodes_per_thread`
    /// nodes per slot in the region at word `region`.
    pub(crate) fn new(
        object: ObjectCore<M>,
        kind: AppKind,
        region: u64,
        nodes_per_thread: u64,
    ) -> Self {
        let n = object.nthreads();
        Bindings {
            core: DetectableCore::new(object, X_BASE, WORDS_PER_LINE),
            nodes: NodePool::new(PAddr::from_index(region), NODE_WORDS, nodes_per_thread, n),
            held: (0..n).map(|_| CachePadded(Mutex::new(Vec::new()))).collect(),
            kind,
        }
    }

    /// Allocates a node of the pool: a value node, or another node the
    /// object keeps beside them (the map's entries).
    ///
    /// # Panics
    ///
    /// Panics if the pool is exhausted.
    pub(crate) fn alloc(&self, tid: usize) -> PAddr {
        self.nodes.alloc_with_reclaim(tid, self.ebr()).unwrap_or_else(|| {
            panic!("{} node pool exhausted (size it for the workload)", self.kind)
        })
    }

    /// Returns a node no other thread has seen to the caller's free list.
    pub(crate) fn discard(&self, tid: usize, node: PAddr) {
        self.nodes.free(tid, node);
    }

    /// Allocates a value node and persists every field word — separate
    /// flush units under word-granular flushing — with one ordering point:
    /// nothing naming the node may persist ahead of it.
    fn init(&self, tid: usize, [p0, p1]: [u64; 2], seq: u64, flags: u64) -> PAddr {
        let node = self.alloc(tid);
        let fields = [PAYLOAD0, PAYLOAD1, SEQ, FLAGS].map(|f| node.offset(f));
        for (f, w) in fields.into_iter().zip([p0, p1, seq, flags]) {
            self.pool().store(f, w);
        }
        self.pool().persist_batch(&fields);
        node
    }

    /// A plain write's persisted value node. Like a prep, it first retires
    /// the caller's parked nodes that `X` has moved off.
    pub(crate) fn plain_node(&self, tid: usize, payload: [u64; 2], flags: u64) -> PAddr {
        self.release_held(tid);
        self.init(tid, payload, NO_WRITER, flags)
    }

    /// The prep of a detectable write: persists a value node and durably
    /// announces it in `X[tid]`. `ptr_of` names (uninstrumented) the
    /// pointer word a node's binding lives in, if any; the owner's half of
    /// retirement asks it about the node `X` moved off.
    pub(crate) fn prep(
        &self,
        tid: usize,
        payload: [u64; 2],
        seq: u64,
        flags: u64,
        ptr_of: impl FnOnce(PAddr) -> Option<PAddr>,
    ) {
        self.release_held(tid);
        let old = tag::addr_of(self.pool().load(self.x_addr(tid)));
        let node = self.init(tid, payload, ((tid as u64) << 48) | (seq & tag::ADDR_MASK), flags);
        // Pinned after the allocation, which a pin would hold back, and
        // before the announce: once X[tid] stops naming `old`, a superseder
        // may retire it, and it must not be recycled before the check
        // below has read it.
        let _g = self.pin(tid);
        // Announce + the durable-before-return drain (DetectableCore).
        self.announce(tid, tag::set(node.to_word(), PREP));
        // The owner's half of retirement: a node X moved off that was
        // never installed is known to no other thread.
        if !old.is_null() && !self.installed(old, ptr_of(old)) {
            self.ebr().retire(tid, old);
        }
    }

    /// Whether `node` was ever installed (uninstrumented): it is current
    /// at its binding's pointer word `ptr`, or flagged `SUPERSEDED`. The
    /// flag is set before the replacing CAS and read here after the
    /// pointer, so a node replaced in between is still seen.
    fn installed(&self, node: PAddr, ptr: Option<PAddr>) -> bool {
        ptr.is_some_and(|p| self.peek_node(p) == node)
            || self.pool().peek(node.offset(FLAGS)) & SUPERSEDED != 0
    }

    /// `X[tid]`, asserting it announces an operation not yet completed
    /// (Axiom 2's precondition `R[pᵢ] = ⊥`).
    ///
    /// # Panics
    ///
    /// Panics, naming `op`, if it does not.
    pub(crate) fn prepared(&self, tid: usize, op: &str) -> u64 {
        let x = self.pool().load(self.x_addr(tid));
        assert!(
            tag::has(x, PREP) && !tag::has(x, COMPL),
            "{op} without a pending prepared operation (X[{tid}] = {x:#x})"
        );
        x
    }

    /// The node the binding pointer at `ptr` names.
    pub(crate) fn current(&self, ptr: PAddr) -> PAddr {
        tag::addr_of(self.pool().load(ptr))
    }

    /// The node the pointer word at `word` names, uninstrumented: a
    /// binding's current node (see [`current`](Self::current)), or the node
    /// an `X` word announces. For retirement, rebuilds and snapshots.
    pub(crate) fn peek_node(&self, word: PAddr) -> PAddr {
        tag::addr_of(self.pool().peek(word))
    }

    /// Stores a fresh binding's pointer word at `ptr`, which no other
    /// thread sees yet, naming `node`. The caller persists it.
    pub(crate) fn seed(&self, ptr: PAddr, node: PAddr) {
        self.pool().store(ptr, node.to_word());
    }

    /// One attempt to bind `node` at the pointer word `ptr`; the caller
    /// retries on [`Install::Lost`]. `x` is the caller's `X` word for a
    /// detectable install and `None` for a plain one. `admit` sees the
    /// current node before anything is written: the CAS object's compare.
    ///
    /// # Panics
    ///
    /// Panics if a detectable install's node was installed already — a
    /// crash between the install and its completion mark, after which
    /// `resolve` reports the write as taken effect (Axiom 2). Installing
    /// it again would retire a live node.
    pub(crate) fn install(
        &self,
        tid: usize,
        ptr: PAddr,
        node: PAddr,
        x: Option<u64>,
        admit: impl FnOnce(PAddr) -> bool,
    ) -> Install {
        let pool = self.pool();
        let old_w = pool.load(ptr);
        let old = tag::addr_of(old_w);
        assert!(
            x.is_none() || !self.installed(node, Some(ptr)),
            "exec of a write that already took effect (X[{tid}] names installed node {node:?})"
        );
        if !admit(old) {
            return Install::Refused;
        }
        // Mark the incumbent superseded *before* replacing it: its owner
        // must be able to prove installation even after we win. Its other
        // flag bits stay.
        let flags = old.offset(FLAGS);
        let fl = pool.load(flags);
        pool.store(flags, fl | SUPERSEDED);
        pool.flush(flags);
        // The announce and the incumbent's superseded mark must be
        // persistent before the install can take effect — resolve proves
        // installation through either.
        match x {
            Some(_) => pool.drain_lines(&[flags, self.x_addr(tid)]),
            None => pool.drain_line(flags),
        }
        if pool.cas(ptr, old_w, node.to_word()).is_err() {
            return Install::Lost;
        }
        pool.flush(ptr);
        if x.is_some() {
            // Ordering point: the completion mark must not persist ahead
            // of the install it certifies.
            pool.drain_line(ptr);
        }
        self.finish(tid, x, 0);
        self.release_superseded(tid, old);
        Install::Done
    }

    /// The end of every write that took effect: marks a detectable one's
    /// operation `x` complete, with `tags` beside [`COMPL`], and drains.
    /// The caller has ordered the effect the mark certifies.
    pub(crate) fn finish(&self, tid: usize, x: Option<u64>, tags: u64) {
        if let Some(x) = x {
            self.complete(tid, tag::set(x, COMPL | tags));
        }
        self.pool().drain();
    }

    /// The effect proof of [`announced`](Self::announced)'s operation `a`:
    /// the completion mark, the `SUPERSEDED` flag, or — asked last — its
    /// node being current at `ptr()`, its binding's pointer word, if any.
    pub(crate) fn took_effect(&self, a: &Announced, ptr: impl FnOnce() -> Option<PAddr>) -> bool {
        tag::has(a.x, COMPL)
            || a.flags & SUPERSEDED != 0
            || ptr().is_some_and(|p| self.current(p) == a.node)
    }

    /// The operation `X[slot]` announces, if any. Loads `X`, then the
    /// node's `payload0`, seq and flags.
    pub(crate) fn announced(&self, slot: usize) -> Option<Announced> {
        let x = self.pool().load(self.x_addr(slot));
        if !tag::has(x, PREP) {
            return None;
        }
        let node = tag::addr_of(x);
        Some(Announced {
            x,
            node,
            payload0: self.pool().load(node.offset(PAYLOAD0)),
            seq: self.pool().load(node.offset(SEQ)) & tag::ADDR_MASK,
            flags: self.pool().load(node.offset(FLAGS)),
        })
    }

    /// The superseder's half of retirement: `old` was just replaced by the
    /// caller's install CAS. Retire it, or park it with the slot whose `X`
    /// still names it. Only that slot's next prep moves `X` off `old`, and
    /// `old` cannot reappear in any `X` before it is retired.
    fn release_superseded(&self, tid: usize, old: PAddr) {
        match (0..self.nthreads()).find(|&t| self.peek_node(self.x_addr(t)) == old) {
            Some(t) => self.held[t].lock().push(old),
            None => self.ebr().retire(tid, old),
        }
    }

    /// Retires the nodes parked with slot `tid` that `X[tid]` no longer
    /// names; called at the top of every write.
    fn release_held(&self, tid: usize) {
        let x = self.peek_node(self.x_addr(tid));
        for p in self.held[tid].lock().extract_if(.., |p| *p != x) {
            self.ebr().retire(tid, p);
        }
    }

    /// Rebuilds the volatile allocator after a crash. `mark` inserts the
    /// object's reachable nodes into the live set; every node an `X` word
    /// names stays live too, and an `X` node that was installed and
    /// superseded is parked with its slot again — its superseder's
    /// obligation to retire it did not survive the crash.
    pub(crate) fn rebuild(&self, mark: impl FnOnce(&mut NodeSet)) {
        let mut live = self.nodes.node_set();
        mark(&mut live);
        for i in 0..self.nthreads() {
            let d = self.peek_node(self.x_addr(i));
            let mut held = self.held[i].lock();
            held.clear();
            if live.insert(d) && self.installed(d, None) {
                held.push(d);
            }
        }
        self.nodes.rebuild(&live);
        self.ebr().reset();
    }

    /// Asserts node conservation once every writer has quiesced: the free
    /// lists, EBR limbo, the held lists, the object's `owned` nodes (its
    /// current bindings under the label `"binding"`, and any other nodes
    /// it keeps) and the nodes only an `X` word names together make up
    /// every node of the region, none counted twice — a double retire
    /// shows up twice, a leak not at all. Moves what it finds in limbo to
    /// the free lists.
    #[cfg(test)]
    pub(crate) fn assert_conserved(&self, owned: impl IntoIterator<Item = (PAddr, &'static str)>) {
        let held: Vec<_> = (0..self.nthreads()).flat_map(|t| self.held[t].lock().clone()).collect();
        // Nobody is pinned, so a few epoch advances drain every limbo list.
        let limbo: Vec<_> = (0..4).flat_map(|_| self.ebr().collect_all(0)).collect();
        assert_eq!(self.ebr().limbo_len(), 0);
        let free: Vec<_> = std::iter::from_fn(|| self.nodes.alloc(0)).collect();
        // Last, X nodes: a binding, held, or (never installed) their own —
        // and no other X word's.
        let xs: Vec<_> = (0..self.nthreads())
            .map(|t| self.peek_node(self.x_addr(t)))
            .filter(|x| !x.is_null())
            .collect();
        let mut place = std::collections::HashMap::new();
        for (node, what) in owned.into_iter().chain(
            [(held, "held"), (limbo, "limbo"), (free, "free"), (xs, "X")]
                .into_iter()
                .flat_map(|(nodes, what)| nodes.into_iter().map(move |p| (p, what))),
        ) {
            assert!(self.nodes.contains(node), "{what} node {node:?} is not a pool node");
            match (place.insert(node, what), what) {
                (None, _) | (Some("binding" | "held"), "X") => {}
                (Some(prev), _) => panic!("node {node:?} counted as {prev} and as {what}"),
            }
            if matches!(what, "limbo" | "free") {
                self.nodes.free(0, node);
            }
        }
        assert_eq!(place.len() as u64, self.nodes.total_nodes(), "every node accounted for");
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dss_pmem::{FlushGranularity, PmemPool, ThreadHandle, WritebackAdversary};

    /// `obj` with its one thread registered.
    pub(crate) fn one_thread<T: Deref<Target = DetectableCore<PmemPool>>>(
        obj: T,
    ) -> (T, ThreadHandle) {
        let h = obj.register_thread().unwrap();
        (obj, h)
    }

    /// Runs `op` on a fresh object from `new`, crashing at every pmem-op
    /// index in turn, under both flush granularities and each of `advs`;
    /// after each crash `check` judges the object, `at` naming the point.
    pub(crate) fn crash_sweep<T: Deref<Target = DetectableCore<PmemPool>>>(
        advs: &[WritebackAdversary],
        new: impl Fn(FlushGranularity) -> (T, ThreadHandle),
        op: impl Fn(&T, ThreadHandle),
        check: impl Fn(&T, ThreadHandle, &str),
    ) {
        for granularity in [FlushGranularity::Line, FlushGranularity::Word] {
            for adv in advs {
                for k in 1.. {
                    let (obj, h) = new(granularity);
                    if !obj.pool().crashes_within(k, || op(&obj, h)) {
                        break;
                    }
                    obj.pool().crash(adv);
                    check(&obj, h, &format!("k={k} {granularity:?} {adv:?}"));
                }
            }
        }
    }
}
