//! Post-crash recovery (paper Appendix A, Figure 6) and its independent
//! per-thread variant (§3.3), plus the leak-preventing allocator rebuild
//! the evaluation section describes.

use std::collections::HashSet;

use dss_pmem::{Memory, PAddr, ThreadHandle};

use super::DssQueue;
use crate::linked::Repaired;

impl<M: Memory> DssQueue<M> {
    /// Figure 6 lines 65–69 once the walk from the pre-recovery head has
    /// found the `last` reachable node and the `marked` (claimed) node the
    /// head moves to, if any: persists the tail, then the head.
    fn repair_head_and_tail(&self, last: PAddr, marked: Option<PAddr>) {
        // lines 65–66: tail := last reachable node
        self.pool().store(self.tail_addr(), last.to_word());
        self.pool().flush(self.tail_addr());
        // lines 67–69: head := last marked node reachable from oldHead
        if let Some(m) = marked {
            self.pool().store(self.head_addr(), m.to_word());
        }
        self.pool().flush(self.head_addr());
    }

    /// Figure 6 lines 64–69 in one walk from the pre-recovery head:
    /// repairs the tail and the head, and returns the walk's nodes split
    /// at the last marked node. The nodes from it on are live: exactly
    /// those a walk from the repaired head reaches. The ones before it,
    /// the claimed prefix the head repair drops, are cut off; both
    /// together are `AllNodes`.
    ///
    /// The walk loads claim words only while the claimed prefix after the
    /// head node lasts: its end is the last marked node. The claims after
    /// the head node do form a prefix. A dequeuer claims node k+1 only once
    /// the head has reached node k, and the head reaches k only after k's
    /// claim was flushed and drained (`take`). A reclamation round persists
    /// the head before it recycles a node the head has left, so no
    /// recycled node's cleared claim lies on the walk.
    fn repair_in_one_walk(&self) -> Repaired {
        let mut live = self.list.nodes().node_set();
        // The nodes whose claims the walk loads, and the index of the last
        // claimed one.
        let (mut prefix, mut marked) = (Vec::new(), None);
        let (mut last, mut in_prefix) = (PAddr::NULL, true);
        self.list.walk(|n| {
            if in_prefix {
                let claimed = self.list.claimed(n);
                if claimed {
                    marked = Some(prefix.len());
                }
                // The head node's own claim says nothing of the nodes
                // after it: the static sentinel is never claimed.
                in_prefix = claimed || last.is_null();
                prefix.push(n);
            } else {
                live.insert(n);
            }
            last = n;
        });
        self.repair_head_and_tail(last, marked.map(|i| prefix[i]));
        let (cut_off, kept) = prefix.split_at(marked.unwrap_or(0));
        live.extend(kept.iter().copied());
        let mut cut = self.list.nodes().node_set();
        cut.extend(cut_off.iter().copied());
        Repaired { live, cut }
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
    /// 2. Walks the list once from the persisted head, collecting
    ///    `AllNodes`, then persists the `tail` pointer as the last node
    ///    (lines 64–66) and advances and persists the `head` pointer to the
    ///    last *marked* (already dequeued) node (lines 67–69). The walk
    ///    stops reading claim words at the end of the claimed prefix after
    ///    the head node: past it no node is claimed, since a dequeue
    ///    claims a node only once the head has reached its predecessor,
    ///    whose claim is persistent by then. `AllNodes` is kept in two
    ///    parts: the nodes from the last marked node on, which a walk from
    ///    the repaired head reaches, and the prefix before it.
    /// 3. Adopts each orphaned slot in ascending order — inheriting its
    ///    EBR state — and completes its detectability word: `X[i]`
    ///    holding `ENQ_PREP` without `ENQ_COMPL` whose node either is
    ///    still in the list, or left it already marked, gains `ENQ_COMPL`
    ///    (lines 70–76).
    ///
    /// The first part is the live set the allocator rebuild needs, and
    /// `recover` ends by rebuilding the allocator around it, so the
    /// [`rebuild_allocator`](Self::rebuild_allocator) that follows has
    /// nothing left to do.
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
        // The adopt-then-repair driver is the list's; the queue supplies
        // its shared-state repair (lines 64–69).
        self.list.recover(|| self.repair_in_one_walk())
    }

    /// The pre-registry centralized recovery (Figure 6 verbatim): repairs
    /// tail, head, and **every** `X[i]` by index, with no registry
    /// transitions. Kept only as the reference implementation for the
    /// parity tests that show the registry-driven
    /// [`recover`](Self::recover) produces byte-identical resolved
    /// responses. It keeps Figure 6's full claim scan, where `recover`
    /// stops at the end of the claimed prefix, and Figure 6's `AllNodes`
    /// as a hash set, so those tests also check `recover`'s early stop and
    /// its bitmap [`NodeSet`] against it.
    #[doc(hidden)]
    pub fn recover_centralized(&self) {
        // line 64: AllNodes := nodes reachable from head
        let chain = self.list.chain();
        let last = *chain.last().expect("chain contains at least head");
        let marked = chain.iter().copied().filter(|&n| self.list.claimed(n)).last();
        self.repair_head_and_tail(last, marked);
        let all_nodes: HashSet<PAddr> = chain.into_iter().collect();
        // lines 70–76: complete detectability state of effective enqueues.
        for i in 0..self.nthreads() {
            self.list.repair_insert(i, |d| all_nodes.contains(&d));
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
        self.list.recover_one(h);
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
    ///
    /// After `recover` it returns at once until the next crash: `recover`
    /// rebuilt the allocator before any thread resumed, and that rebuild
    /// stays current under every later operation. After `recover_one`
    /// alone, after the `recover_centralized` reference and on
    /// [`attach`](DssQueue::attach) it walks the list from the head.
    pub fn rebuild_allocator(&self) {
        self.list.rebuild_allocator();
    }
}
