//! The claimed-node list under the DSS queue and the DSS stack.
//!
//! Both containers are singly linked lists of `{value, next, claim}` nodes
//! in persistent memory, run with the paper's §3 recipe:
//!
//! * **Insert.** `new Node(val)` persists a fresh node
//!   ([`new_node`](NodeList::new_node)); a detectable insert announces it
//!   in `X[tid]` tagged `ENQ_PREP` ([`prep_insert`](NodeList::prep_insert),
//!   Figure 3 lines 1–4). The container links it — at the queue's tail, at
//!   the stack's top — once the node ([`drain_node`](NodeList::drain_node))
//!   or the announce is persistent, and a detectable insert then marks `X`
//!   `ENQ_COMPL` ([`complete_insert`](NodeList::complete_insert)).
//! * **Claim.** A removal CASes its slot into the node's claim word (the
//!   queue's `deqThreadID`, the stack's `popper`), tagged `NONDET_DEQ` for
//!   a plain claim so detection never mistakes it for a detectable one
//!   (§3.2), and persists the claim before the container's head or top
//!   moves past the node ([`claim`](NodeList::claim)). A detectable claim
//!   first announces the node it goes through
//!   ([`announce_claim`](NodeList::announce_claim)).
//! * **Detection.** [`resolve`](NodeList::resolve) reads `X` and the nodes
//!   it names (Figure 3 lines 20–31, Figure 4 lines 56–63), and recovery
//!   completes the `ENQ_COMPL` mark of every insert that took effect
//!   ([`repair_insert`](NodeList::repair_insert), Figure 6 lines 70–76).
//!   The nodes `X` names stay allocated, both under epoch reclamation and
//!   across the allocator rebuild.
//! * **Rebuild.** The centralized [`recover`](NodeList::recover) ends by
//!   rebuilding the allocator around the live set its walk found, and
//!   [`rebuild_allocator`](NodeList::rebuild_allocator) walks the list
//!   only where no such recovery has run since the last crash.
//!
//! Where the containers differ, they say so in data, not here: the queue
//! announces the *predecessor* of the node it claims (Figure 4 lines
//! 47–48), so its claims target the announced node's successor, while the
//! stack announces the claimed node itself — the `target` map each passes
//! to [`NodeList::new`] — and each names its *root*, the pointer word its
//! list hangs from (the queue's head, the stack's top). The queue's
//! sentinel and tail, and the head and top repairs, stay in their own
//! modules.
//!
//! Every method issues exactly the pool operations it names, in order: the
//! crash sweeps arm crash points by pool-operation index.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

use dss_pmem::{
    tag, FlushGranularity, Memory, NodePool, NodeSet, ObjectCore, PAddr, ThreadHandle,
    WORDS_PER_LINE,
};

use crate::detect::DetectableCore;

/// The node's value.
const VALUE: u64 = 0;
/// The successor link.
const NEXT: u64 = 1;
/// [`UNCLAIMED`], or the claimer's slot — tagged `NONDET_DEQ` for a plain
/// claim.
const CLAIM: u64 = 2;
/// Words per node, padding included: a node never straddles a cache line,
/// so the paper's whole-node `FLUSH(node)` is one flush under line
/// granularity.
pub(crate) const NODE_WORDS: u64 = 4;

/// The paper's `deqThreadID = −1`: no thread has claimed this node.
const UNCLAIMED: u64 = u64::MAX;

/// What a slot's last prepared operation did, as
/// [`resolve`](NodeList::resolve) reads it from `X` and the nodes it names.
pub(crate) enum Prepared {
    /// An insert of `value`; `done` if it took effect.
    Insert { value: u64, done: bool },
    /// A claim: `None` if it did not take effect, else what it removed —
    /// the claimed value, or `None` from an empty container.
    Claim(Option<Option<u64>>),
}

/// What a container's recovery repair found on its walk of the list.
pub(crate) struct Repaired {
    /// The pool nodes reachable from the repaired root.
    pub(crate) live: NodeSet,
    /// The pool nodes the repair cut off: reachable from the pre-recovery
    /// root, not from the repaired one. Together with `live`, Figure 6's
    /// `AllNodes`.
    pub(crate) cut: NodeSet,
}

/// A container's claimed-node list: its [`DetectableCore`], which it
/// dereferences to, and the node pool of the [module docs](self).
pub(crate) struct NodeList<M: Memory> {
    core: DetectableCore<M>,
    nodes: NodePool,
    /// The pointer word the list hangs from: the queue's head, the stack's
    /// top.
    root: PAddr,
    /// Maps the node a claim's announce names to the node the claim takes.
    target: fn(&Self, PAddr) -> PAddr,
    /// The crash generation the last centralized recovery rebuilt the
    /// allocator in (`u64::MAX`: none yet).
    rebuilt: AtomicU64,
}

impl<M: Memory> Deref for NodeList<M> {
    type Target = DetectableCore<M>;

    fn deref(&self) -> &DetectableCore<M> {
        &self.core
    }
}

impl<M: Memory> NodeList<M> {
    /// A list hanging from the pointer word `root` over `object`, with one
    /// `X` line per slot from word `x_base` and `nodes_per_thread` nodes per
    /// slot from word `region`; a claim announced through node `n` takes
    /// `target(list, n)`.
    pub(crate) fn new(
        object: ObjectCore<M>,
        root: u64,
        x_base: u64,
        region: u64,
        nodes_per_thread: u64,
        target: fn(&Self, PAddr) -> PAddr,
    ) -> Self {
        let n = object.nthreads();
        NodeList {
            core: DetectableCore::new(object, x_base, WORDS_PER_LINE),
            nodes: NodePool::new(PAddr::from_index(region), NODE_WORDS, nodes_per_thread, n),
            root: PAddr::from_index(root),
            target,
            rebuilt: AtomicU64::new(u64::MAX),
        }
    }

    /// The node pool.
    pub(crate) fn nodes(&self) -> &NodePool {
        &self.nodes
    }

    /// The successor of `node` (`NULL` at the end of the list).
    pub(crate) fn next(&self, node: PAddr) -> PAddr {
        tag::addr_of(self.next_word(node))
    }

    /// The link word of `node`.
    pub(crate) fn next_word(&self, node: PAddr) -> u64 {
        self.pool().load(node.offset(NEXT))
    }

    /// The value of `node`.
    pub(crate) fn value(&self, node: PAddr) -> u64 {
        self.pool().load(node.offset(VALUE))
    }

    /// Whether some thread has claimed `node`.
    pub(crate) fn claimed(&self, node: PAddr) -> bool {
        self.pool().load(node.offset(CLAIM)) != UNCLAIMED
    }

    /// Writes `node` as `new Node(val)` — `next = NULL`, unclaimed — and
    /// flushes it: `FLUSH(node)` (Figure 3 line 2), one flush per field
    /// under word granularity.
    pub(crate) fn init(&self, node: PAddr, val: u64) {
        self.pool().store(node.offset(VALUE), val);
        self.pool().store(node.offset(NEXT), PAddr::NULL.to_word());
        self.pool().store(node.offset(CLAIM), UNCLAIMED);
        match self.pool().granularity() {
            FlushGranularity::Line => self.pool().flush(node),
            FlushGranularity::Word => {
                for f in [VALUE, NEXT, CLAIM] {
                    self.pool().flush(node.offset(f));
                }
            }
        }
    }

    /// Per-address ordering drain of a whole node: writes back only the
    /// node's own pending flush units (one line, or three words under word
    /// granularity), so every other pending flush stays coalescible.
    pub(crate) fn drain_node(&self, node: PAddr) {
        self.pool().drain_lines(&[VALUE, NEXT, CLAIM].map(|f| node.offset(f)));
    }

    /// Allocates and [`init`](Self::init)s a node holding `val`; `None`
    /// when the pool is exhausted. Allocation recycles retired nodes
    /// through EBR, except those `resolve` can still reach through an `X`
    /// word, which stay in limbo until the word moves on.
    ///
    /// A reclamation round first persists the root. The root moves with an
    /// unflushed CAS, so its persisted value can name a node the list has
    /// left; recycling that node would cut the list recovery walks from it
    /// (`init` clears its link and claim). Every candidate was retired
    /// after the root moved past it, so once the round's flush is drained
    /// the persisted root names none of them, nor any node retired before.
    pub(crate) fn new_node(&self, tid: usize, val: u64) -> Option<PAddr> {
        let node = self.nodes.alloc_with_reclaim_guarded(tid, self.ebr(), || {
            self.pool().flush(self.root);
            self.pool().drain_line(self.root);
            self.announced_nodes()
        })?;
        self.init(node, val);
        Some(node)
    }

    /// The nodes some `X` word names, each with the node a claim through it
    /// takes (`resolve` reads both, however long ago the operation
    /// completed), repeats included. Recycling one would make a later
    /// `resolve` chase reinitialized memory.
    fn announced_nodes(&self) -> Vec<PAddr> {
        (0..self.nthreads())
            .map(|i| tag::addr_of(self.pool().load(self.x_addr(i))))
            .filter(|d| !d.is_null())
            .flat_map(|d| [d, (self.target)(self, d)])
            .collect()
    }

    /// Retires a node a head or top moved past (not the queue's static
    /// initial sentinel, which is no pool node).
    pub(crate) fn retire(&self, tid: usize, node: PAddr) {
        if self.nodes.contains(node) {
            self.ebr().retire(tid, node);
        }
    }

    /// **prep-insert(val)** (Figure 3, lines 1–4): persists a node holding
    /// `val` and durably announces it in `X[tid]` tagged `ENQ_PREP`; `None`
    /// (with `X[tid]` unchanged) when the pool is exhausted.
    pub(crate) fn prep_insert(&self, tid: usize, val: u64) -> Option<()> {
        let node = self.new_node(tid, val)?;
        // Ordering point: the announce must not persist ahead of the node
        // it names (writeback is per-word, so X[tid] could otherwise
        // survive a crash pointing at an unwritten node).
        self.drain_node(node);
        self.announce(tid, tag::set(node.to_word(), tag::ENQ_PREP));
        Some(())
    }

    /// `X[tid]`, asserting it announces an insert (Axiom 2's precondition).
    ///
    /// # Panics
    ///
    /// Panics with `what` if it does not.
    pub(crate) fn prepared_insert(&self, tid: usize, what: &str) -> u64 {
        let x = self.pool().load(self.x_addr(tid));
        assert!(tag::has(x, tag::ENQ_PREP), "{what} (X[{tid}] = {x:#x})");
        x
    }

    /// Marks a detectable insert `x` complete (Figure 3 lines 13–14); the
    /// caller has ordered the link the mark certifies.
    pub(crate) fn complete_insert(&self, tid: usize, x: Option<u64>) {
        if let Some(x) = x {
            self.complete(tid, tag::set(x, tag::ENQ_COMPL));
        }
    }

    /// Sets `node`'s link to `next` and flushes it (the stack's push links
    /// its node before it swings `top`); returns the link word's address
    /// for the caller's ordering drain.
    pub(crate) fn set_next(&self, node: PAddr, next: PAddr) -> PAddr {
        let link = node.offset(NEXT);
        self.pool().store(link, next.to_word());
        self.pool().flush(link);
        link
    }

    /// The link CAS of an append (Figure 3 line 11): `last.next` from NULL
    /// to `node`.
    pub(crate) fn link(&self, last: PAddr, node: PAddr) -> bool {
        self.pool().cas(last.offset(NEXT), PAddr::NULL.to_word(), node.to_word()).is_ok()
    }

    /// Persists `node`'s link, ordered before what follows: a tail or a
    /// completion mark must not persist ahead of the link (Figure 3 lines
    /// 12 and 18, Figure 4 line 44).
    pub(crate) fn persist_link(&self, node: PAddr) {
        self.pool().flush(node.offset(NEXT));
        self.pool().drain_line(node.offset(NEXT));
    }

    /// **prep-claim** (Figure 4, lines 32–33): durably announces a claim
    /// in `X[tid]` as `DEQ_PREP` over NULL.
    pub(crate) fn prep_claim(&self, tid: usize) {
        self.announce(tid, tag::DEQ_PREP);
    }

    /// Announces in `X[tid]` the node a detectable claim goes through
    /// (Figure 4 lines 47–48) and orders it before the claim, which
    /// `resolve` interprets through it. `last` is the word this call last
    /// announced (0 = none): only this thread writes `X[tid]`, so with
    /// backoff on a retry through the same node skips re-persisting it.
    pub(crate) fn announce_claim(&self, tid: usize, node: PAddr, last: &mut u64) {
        let xa = self.x_addr(tid);
        let word = tag::set(node.to_word(), tag::DEQ_PREP);
        if !self.backoff_enabled() || *last != word {
            self.pool().store(xa, word);
            self.pool().flush(xa);
            *last = word;
        }
        self.pool().drain_line(xa);
    }

    /// Marks a detectable claim that found its container empty complete:
    /// the `EMPTY` mark (Figure 4 lines 41–42).
    pub(crate) fn complete_empty(&self, tid: usize, detectable: bool) {
        if detectable {
            self.complete(tid, tag::DEQ_PREP | tag::EMPTY);
        }
    }

    /// The claim CAS (Figure 4 line 49): marks `node` claimed by `tid`,
    /// tagged `NONDET_DEQ` unless `detectable`. A won claim is persisted
    /// as [`persist_claim`](Self::persist_claim) does, running `during`.
    pub(crate) fn claim<R>(
        &self,
        tid: usize,
        node: PAddr,
        detectable: bool,
        during: impl FnOnce() -> R,
    ) -> Option<R> {
        let by = if detectable { tid as u64 } else { tid as u64 | tag::NONDET_DEQ };
        let won = self.pool().cas(node.offset(CLAIM), UNCLAIMED, by).is_ok();
        won.then(|| self.persist_claim(node, during))
    }

    /// Flushes `node`'s claim (Figure 4 lines 50 and 54), runs `during` —
    /// a load the caller overlaps with the flush — and orders the claim
    /// before what follows: a head or top must not persist past an
    /// unpersisted claim.
    pub(crate) fn persist_claim<R>(&self, node: PAddr, during: impl FnOnce() -> R) -> R {
        self.pool().flush(node.offset(CLAIM));
        let r = during();
        self.pool().drain_line(node.offset(CLAIM));
        r
    }

    /// **resolve** (Figure 3 lines 20–31, Figure 4 lines 56–63): what
    /// `X[tid]` and the nodes it names say of the slot's last prepared
    /// operation; `None` if it never prepared one.
    pub(crate) fn resolve(&self, tid: usize) -> Option<Prepared> {
        let x = self.pool().load(self.x_addr(tid));
        let node = tag::addr_of(x);
        if tag::has(x, tag::ENQ_PREP) {
            let value = self.value(node);
            return Some(Prepared::Insert { value, done: tag::has(x, tag::ENQ_COMPL) });
        }
        if !tag::has(x, tag::DEQ_PREP) {
            return None;
        }
        if node.is_null() {
            // Prepared only, or completed on an empty container.
            return Some(Prepared::Claim(tag::has(x, tag::EMPTY).then_some(None)));
        }
        // A NULL target's linkage never persisted, so no claim on it can
        // have; a claim by someone else — or by this thread's plain
        // removal — is not this operation's.
        let target = (self.target)(self, node);
        let mine = !target.is_null() && self.pool().load(target.offset(CLAIM)) == tid as u64;
        Some(Prepared::Claim(mine.then(|| Some(self.value(target)))))
    }

    /// Visits every node reachable from the root, in list order.
    pub(crate) fn walk(&self, mut visit: impl FnMut(PAddr)) {
        let mut cur = tag::addr_of(self.pool().load(self.root));
        while !cur.is_null() {
            visit(cur);
            cur = self.next(cur);
        }
    }

    /// Every node reachable from the root, in list order.
    pub(crate) fn chain(&self) -> Vec<PAddr> {
        let mut out = Vec::new();
        self.walk(|n| out.push(n));
        out
    }

    /// The pool nodes reachable from the root, with nothing cut off: what
    /// a repair that moves the root before it walks (the stack's) returns.
    pub(crate) fn reachable(&self) -> Repaired {
        let mut live = self.nodes.node_set();
        self.walk(|n| {
            live.insert(n);
        });
        Repaired { live, cut: self.nodes.node_set() }
    }

    /// Completes `X[i]`'s insert if it took effect (Figure 6 lines 70–76):
    /// its node is still in the list (`in_list`, the nodes reachable from
    /// the pre-recovery root), or left it claimed.
    pub(crate) fn repair_insert(&self, i: usize, in_list: impl Fn(PAddr) -> bool) {
        let x = self.pool().load(self.x_addr(i));
        if !tag::has(x, tag::ENQ_PREP) || tag::has(x, tag::ENQ_COMPL) {
            return;
        }
        let d = tag::addr_of(x);
        if !d.is_null() && (in_list(d) || self.claimed(d)) {
            self.complete_insert(i, Some(x));
        }
    }

    /// The centralized recovery (Figure 6, restructured through the
    /// registry): marks the crash boundary, runs the container's `repair`
    /// of its roots — which returns what its walk of the list found — then
    /// adopts every orphaned slot and [repairs](Self::repair_insert) its
    /// insert against `AllNodes`, the live and the cut-off nodes. Ends by
    /// rebuilding the allocator around the live nodes, which no other
    /// thread changes before recovery returns, and records the crash
    /// generation it rebuilt in.
    pub(crate) fn recover(&self, repair: impl FnOnce() -> Repaired) -> Vec<ThreadHandle> {
        let (adopted, Repaired { live, .. }) = self.recover_adopting(repair, |slot, r| {
            self.repair_insert(slot, |d| r.live.contains(d) || r.cut.contains(d))
        });
        self.rebuild_around(live);
        self.rebuilt.store(self.pool().crash_generation(), SeqCst);
        adopted
    }

    /// Independent per-slot recovery (§3.3): `h`'s owner repairs its own
    /// insert against the nodes reachable from the root.
    pub(crate) fn recover_one(&self, h: ThreadHandle) {
        self.recover_one_with(
            h,
            || self.reachable().live,
            |slot, all| self.repair_insert(slot, |d| all.contains(d)),
        );
    }

    /// Rebuilds the volatile allocator and reclamation state after a
    /// crash, preventing the leaks the paper's §4 mentions (e.g. "a crash
    /// in prep-enqueue"): a node stays allocated iff it is reachable from
    /// the root or `resolve` can still read it through an `X` word; the
    /// rest return to the free lists.
    ///
    /// Returns at once if [`recover`](Self::recover) has rebuilt the
    /// allocator since the last crash: an allocator rebuilt while the list
    /// is quiescent stays current under every later operation until a
    /// crash starts a new generation. Otherwise — after
    /// [`recover_one`](Self::recover_one) alone, or on attach — it walks
    /// the list from the root.
    pub(crate) fn rebuild_allocator(&self) {
        if self.rebuilt.load(SeqCst) != self.pool().crash_generation() {
            self.rebuild_around(self.reachable().live);
        }
    }

    /// Rebuilds the free lists around `live` and the nodes an `X` word
    /// names, and drops the EBR limbo lists: they are volatile and name
    /// pre-crash nodes the rebuild has already re-classified.
    fn rebuild_around(&self, mut live: NodeSet) {
        live.extend(self.announced_nodes());
        self.nodes.rebuild(&live);
        self.ebr().reset();
    }

    /// The successor of `node`, uninstrumented.
    pub(crate) fn peek_next(&self, node: PAddr) -> PAddr {
        tag::addr_of(self.pool().peek(node.offset(NEXT)))
    }

    /// The unclaimed values from `node` to the end of the list,
    /// uninstrumented (test/debug only — not atomic with respect to
    /// concurrent operations).
    pub(crate) fn unclaimed_values(&self, mut node: PAddr) -> Vec<u64> {
        let mut out = Vec::new();
        while !node.is_null() {
            if self.pool().peek(node.offset(CLAIM)) == UNCLAIMED {
                out.push(self.pool().peek(node.offset(VALUE)));
            }
            node = self.peek_next(node);
        }
        out
    }

    /// Asserts node conservation once every thread has quiesced: each node
    /// of the region is free, in EBR limbo, reachable from the root, or
    /// one `resolve` can read through an `X` word (the last two *live*); no
    /// node is free or in limbo twice — a double retire shows up so — and
    /// none is both free and live. A retired node an `X` word still names
    /// waits in limbo, live. Leaves every node where it found it.
    #[cfg(test)]
    pub(crate) fn assert_conserved(&self) {
        // Nobody is pinned, so a few epoch advances drain every limbo list.
        let limbo: Vec<_> = (0..4).flat_map(|_| self.ebr().collect_all(0)).collect();
        assert_eq!(self.ebr().limbo_len(), 0);
        let free: Vec<_> = std::iter::from_fn(|| self.nodes.alloc(0)).collect();
        let mut live = self.chain();
        live.extend(self.announced_nodes());
        let mut place = std::collections::HashMap::new();
        for (node, what) in [(live, "live"), (limbo, "limbo"), (free, "free")]
            .into_iter()
            .flat_map(|(nodes, what)| nodes.into_iter().map(move |n| (n, what)))
        {
            if !self.nodes.contains(node) {
                // The queue's static sentinel, or an unlinked successor.
                assert_eq!(what, "live", "{what} node {node:?} is not a pool node");
                continue;
            }
            match (place.insert(node, what), what) {
                (None, _) | (Some("live"), "live" | "limbo") => {}
                (Some(prev), _) => panic!("node {node:?} counted as {prev} and as {what}"),
            }
            match what {
                "limbo" => self.ebr().retire(0, node),
                "free" => self.nodes.free(0, node),
                _ => {}
            }
        }
        assert_eq!(place.len() as u64, self.nodes.total_nodes(), "every node accounted for");
    }

    /// Asserts that the last allocator rebuild left the free lists that a
    /// rebuild walking the list leaves, in the same order: drains them,
    /// rebuilds around the nodes a walk reaches, and drains again. Leaves
    /// the free lists as that rebuild does.
    #[cfg(test)]
    pub(crate) fn assert_rebuilt_as_walked(&self) {
        let drain = || std::iter::from_fn(|| self.nodes.alloc(0)).collect::<Vec<_>>();
        let walked = || self.rebuild_around(self.reachable().live);
        let rebuilt = drain();
        walked();
        assert_eq!(rebuilt, drain(), "free lists unlike a walk's rebuild");
        walked();
    }

    /// Asserts the invariant the queue's one-walk recovery stops on: along
    /// the chain from the root, the claimed nodes after the root node form
    /// a prefix. A node is claimed only once the root has reached its
    /// predecessor, which the root does only after the predecessor's claim
    /// was persisted. Uninstrumented; call it on a crashed or quiesced
    /// list.
    #[cfg(test)]
    pub(crate) fn assert_claimed_prefix(&self) {
        let root = tag::addr_of(self.pool().peek(self.root));
        let mut unclaimed = None;
        let mut node = if root.is_null() { root } else { self.peek_next(root) };
        while !node.is_null() {
            match (self.pool().peek(node.offset(CLAIM)) != UNCLAIMED, unclaimed) {
                (false, None) => unclaimed = Some(node),
                (true, Some(u)) => panic!("{node:?} is claimed after unclaimed {u:?}"),
                _ => {}
            }
            node = self.peek_next(node);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::ops::Deref;

    use dss_pmem::{FlushGranularity, PmemPool, ThreadHandle, WritebackAdversary};

    use crate::detect::DetectableCore;

    /// What `resolve` reported for a crashed operation.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub(crate) enum Verdict {
        /// No operation was prepared.
        NotPrepared,
        /// The prepared operation did not take effect.
        NoEffect,
        /// The prepared operation took effect.
        Effect,
    }

    /// Runs `op` on a fresh container from `new`, crashing at every
    /// pool-operation index in turn, under both flush granularities and
    /// the writeback adversaries None, All and Random. Each crashed
    /// container is recovered twice over, on fresh copies: by `recover`
    /// with `central` set (the centralized recovery) and unset (the slot's
    /// own); then `check` judges it, `at` naming the point. Both recoveries
    /// must reach the same verdicts. Returns one line per configuration:
    /// `"<granularity> <adversary>: <points> = <not prepared>/<no
    /// effect>/<effect>"`.
    pub(crate) fn crash_sweep<T: Deref<Target = DetectableCore<PmemPool>>>(
        new: impl Fn(FlushGranularity) -> (T, ThreadHandle),
        op: impl Fn(&T, ThreadHandle),
        recover: impl Fn(&T, ThreadHandle, bool),
        check: impl Fn(&T, ThreadHandle, &str) -> Verdict,
    ) -> Vec<String> {
        let advs = [
            ("None", WritebackAdversary::None),
            ("All", WritebackAdversary::All),
            ("Random", WritebackAdversary::Random { seed: 7, prob: 0.5 }),
        ];
        let mut tallies = Vec::new();
        for granularity in [FlushGranularity::Line, FlushGranularity::Word] {
            for (name, adv) in &advs {
                let verdicts = |central: bool| -> Vec<Verdict> {
                    (1..)
                        .map_while(|k| {
                            let (obj, h) = new(granularity);
                            if !obj.pool().crashes_within(k, || op(&obj, h)) {
                                return None; // the operation completed
                            }
                            obj.pool().crash(adv);
                            recover(&obj, h, central);
                            let at = format!("k={k} {granularity:?} {name} central={central}");
                            Some(check(&obj, h, &at))
                        })
                        .collect()
                };
                let v = verdicts(true);
                assert_eq!(verdicts(false), v, "{granularity:?} {name}: recoveries disagree");
                let n = |want| v.iter().filter(|&&w| w == want).count();
                tallies.push(format!(
                    "{granularity:?} {name}: {} = {}/{}/{}",
                    v.len(),
                    n(Verdict::NotPrepared),
                    n(Verdict::NoEffect),
                    n(Verdict::Effect)
                ));
            }
        }
        tallies
    }
}
