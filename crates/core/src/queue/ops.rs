//! Enqueue and dequeue operations (paper Figures 3 and 4).
//!
//! Line numbers in comments refer to the paper's pseudocode. The
//! non-detectable operations are, per §3.1/§3.2, the detectable ones with
//! every access to `X` omitted, and with the dequeue claim combining the
//! thread ID "with another special tag" (`NONDET_DEQ`) so detection never
//! confuses a non-detectable claim with a detectable one. Each operation is
//! one loop for both forms: [`append`](DssQueue::append) takes the
//! announced `X` word (`None` for a plain enqueue), and
//! [`take`](DssQueue::take) a `detectable` flag.

use dss_pmem::{tag, Memory, PAddr, ThreadHandle};
use dss_spec::types::QueueResp;

use super::{DssQueue, QueueFull};

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
        self.list.prep_insert(h.slot(), val).ok_or(QueueFull)
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
        let x = self.list.prepared_insert(tid, "exec-enqueue without a prepared enqueue"); // line 5
        self.append(tid, tag::addr_of(x), Some(x));
    }

    /// Non-detectable **enqueue(val)**: `prep-enqueue` + `exec-enqueue`
    /// with every access to `X` omitted (§3.1).
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the node pool is exhausted.
    pub fn enqueue(&self, h: ThreadHandle, val: u64) -> Result<(), QueueFull> {
        // Allocate and initialize before pinning: a pinned thread blocks
        // epoch advancement, and allocation may need to reclaim.
        let node = self.list.new_node(h.slot(), val).ok_or(QueueFull)?;
        self.append(h.slot(), node, None);
        Ok(())
    }

    /// Lines 6–19: links `node` at the tail; `x` is the announced `X` word
    /// of a detectable enqueue.
    fn append(&self, tid: usize, node: PAddr, x: Option<u64>) {
        let _guard = self.pin(tid);
        let mut bo = self.new_backoff();
        loop {
            let last_w = self.pool().load(self.tail_addr()); // line 7
            let last = tag::addr_of(last_w);
            let next_w = self.list.next_word(last); // line 8
            if self.pool().load(self.tail_addr()) == last_w {
                // line 9
                if tag::addr_of(next_w).is_null() {
                    // line 10: at tail
                    // Ordering point: the announce (and the node it names)
                    // or a plain enqueue's node must be persistent before
                    // the link can take effect.
                    match x {
                        Some(_) => self.pool().drain_line(self.x_addr(tid)),
                        None => self.list.drain_node(node),
                    }
                    if self.list.link(last, node) {
                        // line 11 succeeded
                        self.list.persist_link(last); // line 12
                        self.list.complete_insert(tid, x); // lines 13–14
                        let _ = self.pool().cas(self.tail_addr(), last_w, node.to_word()); // line 15
                        self.pool().drain();
                        return;
                    }
                } else {
                    // lines 17–19: help another enqueuing thread
                    self.list.persist_link(last); // line 18
                    let _ = self.pool().cas(self.tail_addr(), last_w, next_w);
                }
            }
            // Reaching here means another thread won the race this
            // iteration; back off before colliding with it again.
            bo.spin();
        }
    }

    /// **prep-dequeue()** (Figure 4, lines 32–33): announces the intent to
    /// dequeue by writing `DEQ_PREP` (over a NULL pointer) into `X[tid]`.
    pub fn prep_dequeue(&self, h: ThreadHandle) {
        self.list.prep_claim(h.slot());
    }

    /// **exec-dequeue()** (Figure 4, lines 34–55): claims the node after
    /// the sentinel by CAS-ing the thread ID into its `deqThreadID`,
    /// returning its value, or [`QueueResp::Empty`] on an empty queue.
    ///
    /// The predecessor pointer written to `X[tid]` at lines 47–48 before
    /// the claim is what makes the operation detectable.
    pub fn exec_dequeue(&self, h: ThreadHandle) -> QueueResp {
        self.take(h.slot(), true)
    }

    /// Non-detectable **dequeue()**: `prep-dequeue` + `exec-dequeue` with
    /// every access to `X` omitted, claiming nodes with
    /// `tid | NONDET_DEQ` (§3.2).
    pub fn dequeue(&self, h: ThreadHandle) -> QueueResp {
        self.take(h.slot(), false)
    }

    /// Lines 34–55, announcing in `X[tid]` only if `detectable`.
    fn take(&self, tid: usize, detectable: bool) -> QueueResp {
        let _guard = self.pin(tid);
        let mut bo = self.new_backoff();
        // The announce word this call last wrote to X[tid] (0 = none).
        let mut announced = 0u64;
        loop {
            let first_w = self.pool().load(self.head_addr()); // line 35
            let last_w = self.pool().load(self.tail_addr()); // line 36
            let first = tag::addr_of(first_w);
            let next_w = self.list.next_word(first); // line 37
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
                    self.list.complete_empty(tid, detectable); // lines 41–42
                    self.pool().drain();
                    return QueueResp::Empty; // line 43
                }
                self.list.persist_link(first); // line 44 (first == last)
                let _ = self.pool().cas(self.tail_addr(), last_w, next_w); // line 45
            } else {
                // lines 46–55: non-empty queue
                if detectable {
                    // lines 47–48: save the predecessor of the node to be
                    // dequeued
                    self.list.announce_claim(tid, first, &mut announced);
                }
                if self.list.claim(tid, next, detectable, || ()).is_some() {
                    // lines 49–50 succeeded
                    if self.pool().cas(self.head_addr(), first_w, next_w).is_ok() {
                        // line 51
                        self.list.retire(tid, first);
                    }
                    let val = self.list.value(next); // line 52
                    self.pool().drain();
                    return QueueResp::Value(val);
                } else if self.pool().load(self.head_addr()) == first_w {
                    // lines 53–55: help another dequeuing thread
                    self.list.persist_claim(next, || ()); // line 54
                    if self.pool().cas(self.head_addr(), first_w, next_w).is_ok() {
                        // line 55
                        self.list.retire(tid, first);
                    }
                }
            }
            bo.spin();
        }
    }
}
