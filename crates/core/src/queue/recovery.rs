//! Post-crash recovery (paper Appendix A, Figure 6) and its independent
//! per-thread variant (§3.3), plus the leak-preventing allocator rebuild
//! the evaluation section describes.

use std::collections::HashSet;

use dss_pmem::{tag, Memory, NodeSet, PAddr, ThreadHandle};

use super::{DssQueue, F_DEQ_TID, F_NEXT, NO_DEQUEUER};

impl<M: Memory> DssQueue<M> {
    /// Walks the linked list from `start`, visiting every reachable node
    /// in list order.
    fn walk_from(&self, start: PAddr, mut visit: impl FnMut(PAddr)) {
        let mut cur = start;
        loop {
            visit(cur);
            let next = tag::addr_of(self.pool().load(cur.offset(F_NEXT)));
            if next.is_null() {
                return;
            }
            cur = next;
        }
    }

    /// Every node reachable from `start`, in list order.
    fn reachable_from(&self, start: PAddr) -> Vec<PAddr> {
        let mut out = Vec::new();
        self.walk_from(start, |n| out.push(n));
        out
    }

    /// The region nodes reachable from the head (the static initial
    /// sentinel is not one, and no detectability word names it as an
    /// enqueued node).
    fn reachable_set(&self) -> NodeSet {
        let mut set = self.nodes.node_set();
        let head = tag::addr_of(self.pool().load(self.head_addr()));
        self.walk_from(head, |n| {
            set.insert(n);
        });
        set
    }

    /// **recovery()** (Figure 6, restructured through the registry): run
    /// after [`PmemPool::crash`](dss_pmem::PmemPool::crash) and before
    /// application threads resume. Figure 6's centralized "for each
    /// thread, repair `X[i]`" loop becomes *adopt every ORPHANED slot,
    /// then resolve each*:
    ///
    /// 1. Marks the crash boundary in the registry
    ///    ([`begin_recovery`](dss_pmem::ObjectCore::begin_recovery)): every slot LIVE at
    ///    the crash is now ORPHANED.
    /// 2. Recomputes and persists the `tail` pointer (lines 65–66), then
    ///    advances and persists the `head` pointer to the last *marked*
    ///    (already dequeued) node (lines 67–69).
    /// 3. Adopts each orphaned slot in ascending order — inheriting its
    ///    EBR state — and completes its detectability word: `X[i]`
    ///    holding `ENQ_PREP` without `ENQ_COMPL` whose node either is
    ///    still in the list, or left it already marked, gains `ENQ_COMPL`
    ///    (lines 70–76).
    ///
    /// Returns the adopted handles (ascending slot order). Pre-crash
    /// `ThreadHandle`s remain usable for operations — adoption re-LIVEs
    /// the slot rather than freeing it — so the paper §2's
    /// recover-under-the-same-ID model still holds for callers that kept
    /// their handles.
    ///
    /// Idempotent: running it twice (e.g. after a crash *during*
    /// recovery) is safe, which the tests exercise; the second pass
    /// adopts nothing and repairs nothing.
    pub fn recover(&self) -> Vec<ThreadHandle> {
        // The adopt-then-repair driver is the core's; the queue supplies
        // its shared-state repair (lines 64–69) and per-slot X repair
        // (lines 70–76). Slots that were FREE at the crash hold no pending
        // announce, so adopting only the orphans covers exactly the X
        // entries Figure 6's full sweep would repair.
        self.core.recover_adopting(
            || {
                // line 64: AllNodes := nodes reachable from head
                let old_head = tag::addr_of(self.pool().load(self.head_addr()));
                let chain = self.reachable_from(old_head);
                let mut all_nodes = self.nodes.node_set();
                all_nodes.extend(chain.iter().copied());

                // lines 65–66: tail := last reachable node
                let last = *chain.last().expect("chain contains at least head");
                self.pool().store(self.tail_addr(), last.to_word());
                self.pool().flush(self.tail_addr());

                // lines 67–69: head := last marked node reachable from oldHead
                let last_marked = chain
                    .iter()
                    .copied()
                    .filter(|n| self.pool().load(n.offset(F_DEQ_TID)) != NO_DEQUEUER)
                    .last();
                if let Some(m) = last_marked {
                    self.pool().store(self.head_addr(), m.to_word());
                }
                self.pool().flush(self.head_addr());
                all_nodes
            },
            |slot, all_nodes| self.recover_x_entry(slot, |d| all_nodes.contains(d)),
        )
    }

    /// The pre-registry centralized recovery (Figure 6 verbatim): repairs
    /// tail, head, and **every** `X[i]` by index, with no registry
    /// transitions. Kept only as the reference implementation for the
    /// parity test that shows the registry-driven [`recover`](Self::recover)
    /// produces byte-identical resolved responses; it keeps Figure 6's
    /// `AllNodes` as a hash set, so that test also checks `recover`'s
    /// bitmap [`NodeSet`] against it.
    #[doc(hidden)]
    pub fn recover_centralized(&self) {
        // line 64: AllNodes := nodes reachable from head
        let old_head = tag::addr_of(self.pool().load(self.head_addr()));
        let chain = self.reachable_from(old_head);
        let all_nodes: HashSet<PAddr> = chain.iter().copied().collect();

        // lines 65–66: tail := last reachable node
        let last = *chain.last().expect("chain contains at least head");
        self.pool().store(self.tail_addr(), last.to_word());
        self.pool().flush(self.tail_addr());

        // lines 67–69: head := last marked node reachable from oldHead
        let last_marked = chain
            .iter()
            .copied()
            .filter(|n| self.pool().load(n.offset(F_DEQ_TID)) != NO_DEQUEUER)
            .last();
        if let Some(m) = last_marked {
            self.pool().store(self.head_addr(), m.to_word());
        }
        self.pool().flush(self.head_addr());

        // lines 70–76: complete detectability state of effective enqueues.
        for i in 0..self.nthreads() {
            self.recover_x_entry(i, |d| all_nodes.contains(&d));
        }
        self.pool().drain();
    }

    /// Independent per-slot recovery (§3.3): the handle's owner repairs
    /// only its own `X` entry by scanning the list itself; no centralized
    /// phase, and with it "the last trace of auxiliary state" disappears.
    ///
    /// Two callers use this: a thread that survived the crash with its
    /// own handle (its slot never went through adoption — the cheap
    /// fully-independent path), and an adopter finishing what
    /// [`adopt`](dss_pmem::ObjectCore::adopt) started on a dead thread's behalf.
    ///
    /// The queue's head and tail pointers are *not* repaired here — the
    /// MS-queue helping paths advance a lagging tail, and the dequeue path
    /// advances a head that points at marked nodes, so ordinary operations
    /// restore them lazily.
    pub fn recover_one(&self, h: ThreadHandle) {
        self.core.recover_one_with(
            h,
            || self.reachable_set(),
            |slot, all_nodes| self.recover_x_entry(slot, |d| all_nodes.contains(d)),
        );
    }

    /// Repairs `X[i]` (lines 70–76); `in_list` tells whether a node is
    /// among `AllNodes`, the nodes reachable from the pre-recovery head.
    fn recover_x_entry(&self, i: usize, in_list: impl Fn(PAddr) -> bool) {
        let xa = self.x_addr(i);
        let x = self.pool().load(xa);
        if !tag::has(x, tag::ENQ_PREP) || tag::has(x, tag::ENQ_COMPL) {
            return;
        }
        let d = tag::addr_of(x);
        if d.is_null() {
            return;
        }
        let effective = if in_list(d) {
            // lines 71–74: enqueued and still in the linked list
            true
        } else {
            // lines 75–76: enqueued and no longer in the list — it must
            // have been dequeued, i.e. marked
            self.pool().load(d.offset(F_DEQ_TID)) != NO_DEQUEUER
        };
        if effective {
            self.core.complete(i, tag::set(x, tag::ENQ_COMPL));
        }
    }

    /// Rebuilds the volatile allocator and reclamation state after a
    /// crash, preventing the memory leaks the paper's §4 mentions (e.g. "a
    /// crash in prep-enqueue").
    ///
    /// A node survives (stays allocated) iff it is reachable from the
    /// head, or referenced by some thread's detectability word `X[i]`
    /// (directly or as that node's successor — `resolve` may still
    /// dereference both). Everything else returns to the free lists.
    ///
    /// Call after [`recover`](Self::recover) (or after every slot's
    /// [`recover_one`](Self::recover_one)); threads may resolve
    /// before or after, since `X`-referenced nodes are preserved.
    pub fn rebuild_allocator(&self) {
        let mut live = self.reachable_set();
        live.extend(self.x_referenced_nodes());
        self.nodes.rebuild(&live);
        // The EBR limbo lists are volatile and reference pre-crash nodes
        // that rebuild() has already re-classified; drop them wholesale.
        self.ebr().reset();
    }
}
