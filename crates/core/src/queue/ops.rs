//! Enqueue and dequeue operations (paper Figures 3 and 4).
//!
//! Line numbers in comments refer to the paper's pseudocode. The
//! non-detectable operations are, per §3.1/§3.2, the detectable ones with
//! every access to `X` omitted, and with the dequeue claim combining the
//! thread ID "with another special tag" (`NONDET_DEQ`) so detection never
//! confuses a non-detectable claim with a detectable one.

use dss_pmem::{tag, Memory, PAddr, ThreadHandle};
use dss_spec::types::QueueResp;

use super::{DssQueue, QueueFull, F_DEQ_TID, F_NEXT, F_VALUE, NO_DEQUEUER};

impl<M: Memory> DssQueue<M> {
    /// **prep-enqueue(val)** (Figure 3, lines 1–4): allocates and persists
    /// a node holding `val`, then announces it in `X[tid]` with
    /// `ENQ_PREP`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the pre-allocated node pool is exhausted
    /// (in which case `X[tid]` is left unchanged).
    pub fn prep_enqueue(&self, h: ThreadHandle, val: u64) -> Result<(), QueueFull> {
        let tid = h.slot();
        let node = self.alloc_node(tid)?;
        // line 1: new Node(val) — init next = NULL, deqThreadID = −1
        self.pool().store(node.offset(F_VALUE), val);
        self.pool().store(node.offset(F_NEXT), PAddr::NULL.to_word());
        self.pool().store(node.offset(F_DEQ_TID), NO_DEQUEUER);
        self.flush_node(node); // line 2
                               // Ordering point: the announce below must not persist ahead of the
                               // node it names (writeback is per-word, so X[tid] could otherwise
                               // survive a crash pointing at an unwritten node). A targeted drain
                               // of the node's own lines is enough.
        self.drain_node(node);
        // lines 3–4 + the durable-before-return drain (DetectableCore).
        self.core.announce(tid, tag::set(node.to_word(), tag::ENQ_PREP));
        Ok(())
    }

    /// **exec-enqueue()** (Figure 3, lines 5–19): links the prepared node
    /// at the tail, records completion in `X[tid]`, and swings the tail.
    ///
    /// # Panics
    ///
    /// Panics if no enqueue is currently prepared for `tid` (Axiom 2's
    /// precondition; the application drives the prep/exec protocol).
    pub fn exec_enqueue(&self, h: ThreadHandle) {
        let tid = h.slot();
        let _guard = self.pin(tid);
        let xa = self.x_addr(tid);
        let x = self.pool().load(xa); // line 5
        assert!(
            tag::has(x, tag::ENQ_PREP),
            "exec-enqueue without a prepared enqueue (X[{tid}] = {x:#x})"
        );
        let node = tag::addr_of(x);
        let mut bo = self.new_backoff();
        loop {
            let last_w = self.pool().load(self.tail_addr()); // line 7
            let last = tag::addr_of(last_w);
            let next_w = self.pool().load(last.offset(F_NEXT)); // line 8
            if self.pool().load(self.tail_addr()) == last_w {
                // line 9
                if tag::addr_of(next_w).is_null() {
                    // line 10: at tail
                    // Ordering point: the announce (and the node it names)
                    // must be persistent before the link can take effect.
                    self.pool().drain_line(xa);
                    if self
                        .pool()
                        .cas(last.offset(F_NEXT), PAddr::NULL.to_word(), node.to_word())
                        .is_ok()
                    {
                        // line 11 succeeded
                        self.pool().flush(last.offset(F_NEXT)); // line 12
                                                                // Ordering point: the completion mark must not
                                                                // persist ahead of the link it certifies.
                        self.pool().drain_line(last.offset(F_NEXT));
                        // lines 13–14: the completion mark (DetectableCore).
                        self.core.complete(tid, tag::set(x, tag::ENQ_COMPL));
                        let _ = self.pool().cas(self.tail_addr(), last_w, node.to_word()); // line 15
                        self.bump_ops(tid);
                        self.pool().drain();
                        return;
                    }
                } else {
                    // lines 17–19: help another enqueuing thread
                    self.pool().flush(last.offset(F_NEXT)); // line 18
                                                            // The tail must not persist ahead of the link it follows.
                    self.pool().drain_line(last.offset(F_NEXT));
                    let _ = self.pool().cas(self.tail_addr(), last_w, next_w);
                    // line 19
                }
            }
            // Reaching here means another thread won the race this
            // iteration; back off before colliding with it again.
            bo.spin();
        }
    }

    /// Non-detectable **enqueue(val)**: `prep-enqueue` + `exec-enqueue`
    /// with every access to `X` omitted (§3.1).
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the node pool is exhausted.
    pub fn enqueue(&self, h: ThreadHandle, val: u64) -> Result<(), QueueFull> {
        let tid = h.slot();
        // Allocate and initialize before pinning: a pinned thread blocks
        // epoch advancement, and allocation may need to reclaim.
        let node = self.alloc_node(tid)?;
        self.pool().store(node.offset(F_VALUE), val);
        self.pool().store(node.offset(F_NEXT), PAddr::NULL.to_word());
        self.pool().store(node.offset(F_DEQ_TID), NO_DEQUEUER);
        self.flush_node(node);
        let _guard = self.pin(tid);
        let mut bo = self.new_backoff();
        loop {
            let last_w = self.pool().load(self.tail_addr());
            let last = tag::addr_of(last_w);
            let next_w = self.pool().load(last.offset(F_NEXT));
            if self.pool().load(self.tail_addr()) == last_w {
                if tag::addr_of(next_w).is_null() {
                    // The node must be persistent before the link can be.
                    self.drain_node(node);
                    if self
                        .pool()
                        .cas(last.offset(F_NEXT), PAddr::NULL.to_word(), node.to_word())
                        .is_ok()
                    {
                        self.pool().flush(last.offset(F_NEXT));
                        self.pool().drain_line(last.offset(F_NEXT));
                        let _ = self.pool().cas(self.tail_addr(), last_w, node.to_word());
                        self.bump_ops(tid);
                        self.pool().drain();
                        return Ok(());
                    }
                } else {
                    self.pool().flush(last.offset(F_NEXT));
                    self.pool().drain_line(last.offset(F_NEXT));
                    let _ = self.pool().cas(self.tail_addr(), last_w, next_w);
                }
            }
            bo.spin();
        }
    }

    /// **prep-dequeue()** (Figure 4, lines 32–33): announces the intent to
    /// dequeue by writing `DEQ_PREP` (over a NULL pointer) into `X[tid]`.
    pub fn prep_dequeue(&self, h: ThreadHandle) {
        // lines 32–33 + the durable-before-return drain (DetectableCore).
        self.core.announce(h.slot(), tag::DEQ_PREP);
    }

    /// **exec-dequeue()** (Figure 4, lines 34–55): claims the node after
    /// the sentinel by CAS-ing the thread ID into its `deqThreadID`,
    /// returning its value, or [`QueueResp::Empty`] on an empty queue.
    ///
    /// The predecessor pointer written to `X[tid]` at lines 47–48 before
    /// the claim is what makes the operation detectable.
    pub fn exec_dequeue(&self, h: ThreadHandle) -> QueueResp {
        let tid = h.slot();
        let _guard = self.pin(tid);
        let xa = self.x_addr(tid);
        let elide = self.backoff_enabled();
        let mut bo = self.new_backoff();
        // The announce word this call last wrote to X[tid] (0 = none). Only
        // this thread writes X[tid], so under contention management a retry
        // may skip re-announcing the same predecessor it already persisted.
        let mut announced = 0u64;
        loop {
            let first_w = self.pool().load(self.head_addr()); // line 35
            let last_w = self.pool().load(self.tail_addr()); // line 36
            let first = tag::addr_of(first_w);
            let next_w = self.pool().load(first.offset(F_NEXT)); // line 37
            let next = tag::addr_of(next_w);
            if self.pool().load(self.head_addr()) != first_w {
                bo.spin();
                continue; // line 38 failed
            }
            if first_w == last_w {
                // line 39: empty queue (or lagging tail)
                if next.is_null() {
                    // lines 40–43: nothing appended at tail; the EMPTY
                    // mark is this path's completion mark.
                    self.core.complete(tid, tag::DEQ_PREP | tag::EMPTY); // lines 41–42
                    self.bump_ops(tid);
                    self.pool().drain();
                    return QueueResp::Empty; // line 43
                }
                self.pool().flush(first.offset(F_NEXT)); // line 44 (first == last)
                self.pool().drain_line(first.offset(F_NEXT));
                let _ = self.pool().cas(self.tail_addr(), last_w, next_w); // line 45
            } else {
                // lines 46–55: non-empty queue
                // save predecessor of the node to be dequeued
                let announce = tag::set(first.to_word(), tag::DEQ_PREP);
                if !elide || announced != announce {
                    self.pool().store(xa, announce); // line 47
                    self.pool().flush(xa); // line 48
                    announced = announce;
                }
                // Ordering point: the announced predecessor must be
                // persistent before a claim on its successor can be —
                // resolve interprets the claim through it.
                self.pool().drain_line(xa);
                if self.pool().cas(next.offset(F_DEQ_TID), NO_DEQUEUER, tid as u64).is_ok() {
                    // line 49 succeeded
                    self.pool().flush(next.offset(F_DEQ_TID)); // line 50
                                                               // The head must not persist past an unpersisted claim.
                    self.pool().drain_line(next.offset(F_DEQ_TID));
                    if self.pool().cas(self.head_addr(), first_w, next_w).is_ok() {
                        // line 51
                        self.retire_node(tid, first);
                    }
                    let val = self.pool().load(next.offset(F_VALUE)); // line 52
                    self.bump_ops(tid);
                    self.pool().drain();
                    return QueueResp::Value(val);
                } else if self.pool().load(self.head_addr()) == first_w {
                    // lines 53–55: help another dequeuing thread
                    self.pool().flush(next.offset(F_DEQ_TID)); // line 54
                    self.pool().drain_line(next.offset(F_DEQ_TID));
                    if self.pool().cas(self.head_addr(), first_w, next_w).is_ok() {
                        // line 55
                        self.retire_node(tid, first);
                    }
                }
            }
            bo.spin();
        }
    }

    /// Non-detectable **dequeue()**: `prep-dequeue` + `exec-dequeue` with
    /// every access to `X` omitted, claiming nodes with
    /// `tid | NONDET_DEQ` (§3.2).
    pub fn dequeue(&self, h: ThreadHandle) -> QueueResp {
        let tid = h.slot();
        let _guard = self.pin(tid);
        let mut bo = self.new_backoff();
        loop {
            let first_w = self.pool().load(self.head_addr());
            let last_w = self.pool().load(self.tail_addr());
            let first = tag::addr_of(first_w);
            let next_w = self.pool().load(first.offset(F_NEXT));
            let next = tag::addr_of(next_w);
            if self.pool().load(self.head_addr()) != first_w {
                bo.spin();
                continue;
            }
            if first_w == last_w {
                if next.is_null() {
                    self.bump_ops(tid);
                    self.pool().drain();
                    return QueueResp::Empty;
                }
                self.pool().flush(first.offset(F_NEXT));
                self.pool().drain_line(first.offset(F_NEXT));
                let _ = self.pool().cas(self.tail_addr(), last_w, next_w);
            } else {
                if self
                    .pool()
                    .cas(next.offset(F_DEQ_TID), NO_DEQUEUER, tid as u64 | tag::NONDET_DEQ)
                    .is_ok()
                {
                    self.pool().flush(next.offset(F_DEQ_TID));
                    self.pool().drain_line(next.offset(F_DEQ_TID));
                    if self.pool().cas(self.head_addr(), first_w, next_w).is_ok() {
                        self.retire_node(tid, first);
                    }
                    let val = self.pool().load(next.offset(F_VALUE));
                    self.bump_ops(tid);
                    self.pool().drain();
                    return QueueResp::Value(val);
                } else if self.pool().load(self.head_addr()) == first_w {
                    self.pool().flush(next.offset(F_DEQ_TID));
                    self.pool().drain_line(next.offset(F_DEQ_TID));
                    if self.pool().cas(self.head_addr(), first_w, next_w).is_ok() {
                        self.retire_node(tid, first);
                    }
                }
            }
            bo.spin();
        }
    }
}
