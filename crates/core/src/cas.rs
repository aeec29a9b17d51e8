//! A bespoke implementation of `D⟨CAS⟩`.
//!
//! The second base-object type of the §2.2 nesting discussion. Like the
//! [`DetectableRegister`](crate::DetectableRegister) it uses value-node
//! indirection with persisted `superseded` flags, so a thread can prove —
//! across crashes and later overwrites — whether its compare-and-swap ever
//! installed. Note the contrast the paper draws with NRL-like objects:
//! Ben-Baruch et al. prove NRL-like detectable CAS *requires* auxiliary
//! external state, while this DSS-based object needs none — the `prep`
//! announcement carries everything.

use std::fmt;
use std::ops::Deref;

use dss_pmem::object::{checked_words, thread_count};
use dss_pmem::{
    tag, AppKind, AttachError, FlushGranularity, Memory, NodePool, ObjectCore, ObjectLayout, PAddr,
    PmemPool, ThreadHandle, WORDS_PER_LINE,
};

use crate::detect::DetectableCore;

// Node layout (4 words, line-aligned).
const F_NEW: u64 = 0;
const F_EXPECTED: u64 = 1;
const F_WRITER_SEQ: u64 = 2;
const F_SUPERSEDED: u64 = 3;
const NODE_WORDS: u64 = 4;

// X-word tags (above the 48 address bits; this object never shares an X
// word with another type, so bit positions may be reused).
const C_PREP: u64 = tag::ENQ_PREP;
const C_COMPL: u64 = tag::ENQ_COMPL;
const C_FAILED: u64 = tag::DEQ_PREP;

// Fixed layout: [0:NULL][cur line][n X lines][initial node][region] — cur
// and each X entry on their own cache line (no false sharing).
const A_CUR: u64 = WORDS_PER_LINE;
const A_X_BASE: u64 = 2 * WORDS_PER_LINE;

/// Structure-kind word a file-backed CAS object records in its pool
/// superblock.
pub const KIND_DETECTABLE_CAS: u64 = AppKind::DetectableCas.word();

/// The CAS object's pool layout, derived from `(nthreads,
/// nodes_per_thread)` alone (cf. the queue's `QueueLayout`).
struct CasLayout {
    nthreads: usize,
    nodes_per_thread: u64,
    init_node: u64,
    region: u64,
    reg_base: u64,
}

impl ObjectLayout for CasLayout {
    const KIND: AppKind = AppKind::DetectableCas;

    fn params(&self) -> Vec<u64> {
        vec![self.nthreads as u64, self.nodes_per_thread]
    }

    fn from_params(p: &[u64]) -> Result<Self, &'static str> {
        let (nthreads, nodes_per_thread) = (thread_count(p[0])?, p[1]);
        let nodes = checked_words(&[nthreads as u64, nodes_per_thread, NODE_WORDS])?;
        let x_end = A_X_BASE + nthreads as u64 * WORDS_PER_LINE;
        let init_node = x_end.next_multiple_of(NODE_WORDS);
        let region = init_node + NODE_WORDS;
        let reg_base = (region + nodes).next_multiple_of(WORDS_PER_LINE);
        Ok(CasLayout { nthreads, nodes_per_thread, init_node, region, reg_base })
    }

    fn registry_base(&self) -> u64 {
        self.reg_base
    }
}

/// The outcome reported by [`DetectableCas::resolve`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ResolvedCas {
    /// The prepared operation `(expected, new, seq)`, if any.
    pub op: Option<(u64, u64, u64)>,
    /// `Some(true)` — the CAS took effect and succeeded; `Some(false)` —
    /// it took effect and failed (value mismatch); `None` — it did not
    /// take effect.
    pub resp: Option<bool>,
}

/// A detectable recoverable compare-and-swap object (`D⟨CAS⟩`).
///
/// # Examples
///
/// ```
/// use dss_core::DetectableCas;
///
/// let c = DetectableCas::new(2, 16);
/// let h0 = c.register_thread().unwrap();
/// let h1 = c.register_thread().unwrap();
/// c.prep_cas(h0, 0, 5, 1);
/// assert!(c.exec_cas(h0));
/// assert_eq!(c.read(h1), 5);
/// let r = c.resolve(h0);
/// assert_eq!(r.op, Some((0, 5, 1)));
/// assert_eq!(r.resp, Some(true));
/// ```
pub struct DetectableCas<M: Memory = PmemPool> {
    core: DetectableCore<M>,
    nodes: NodePool,
    pending: Box<[std::sync::Mutex<Vec<PAddr>>]>,
}

impl DetectableCas {
    /// Creates a CAS object (initial value 0) for `nthreads` threads with
    /// `nodes_per_thread` pre-allocated value nodes each, on a fresh
    /// line-granular [`PmemPool`].
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn new(nthreads: usize, nodes_per_thread: u64) -> Self {
        Self::new_in(nthreads, nodes_per_thread, FlushGranularity::Line)
    }

    /// Creates a CAS object on a **file-backed** pool at `path`
    /// (line-granular), recording [`KIND_DETECTABLE_CAS`] and the
    /// construction parameters in the superblock so
    /// [`attach`](Self::attach) needs only the path.
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
        let layout = CasLayout::from_args(&[nthreads as u64, nodes_per_thread]);
        let c = Self::assemble(ObjectCore::create(path, &layout, FlushGranularity::Line)?, &layout);
        c.format(layout.init_node);
        Ok(c)
    }

    /// Rebuilds a CAS object from a pool file with no in-process state.
    /// Like the register, no recovery phase is needed: after
    /// [`begin_recovery`](ObjectCore::begin_recovery) +
    /// [`adopt_orphans`](ObjectCore::adopt_orphans), [`resolve`](Self::resolve)
    /// answers from persisted state alone.
    ///
    /// # Errors
    ///
    /// Any [`AttachError`], including [`AttachError::AppMismatch`] if the
    /// file holds a different structure.
    pub fn attach<P: AsRef<std::path::Path>>(path: P) -> Result<Self, AttachError> {
        let (object, layout) = ObjectCore::attach(path)?;
        let c = Self::assemble(object, &layout);
        c.rebuild_allocator();
        Ok(c)
    }
}

impl<M: Memory> DetectableCas<M> {
    /// Creates a CAS object on a freshly created backend of type `M`
    /// ([`Memory::create`]) — the backend-generic constructor behind
    /// [`new`](DetectableCas::new).
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn new_in(nthreads: usize, nodes_per_thread: u64, granularity: FlushGranularity) -> Self {
        let layout = CasLayout::from_args(&[nthreads as u64, nodes_per_thread]);
        let c = Self::assemble(ObjectCore::fresh(&layout, granularity), &layout);
        c.format(layout.init_node);
        c
    }

    /// The shared constructor tail: in-DRAM side tables over an object
    /// skeleton — everything `attach` must rebuild rather than map.
    fn assemble(object: ObjectCore<M>, layout: &CasLayout) -> Self {
        let (n, region) = (layout.nthreads, PAddr::from_index(layout.region));
        DetectableCas {
            core: DetectableCore::new(object, A_X_BASE, WORDS_PER_LINE),
            nodes: NodePool::new(region, NODE_WORDS, layout.nodes_per_thread, n),
            pending: (0..n).map(|_| std::sync::Mutex::new(Vec::new())).collect(),
        }
    }

    /// Writes and persists the initial object state (fresh pools only —
    /// never run on attach).
    fn format(&self, init_node: u64) {
        let init = PAddr::from_index(init_node);
        self.pool().store(init.offset(F_NEW), 0);
        self.pool().store(init.offset(F_EXPECTED), 0);
        self.pool().store(init.offset(F_WRITER_SEQ), u64::MAX);
        self.pool().store(init.offset(F_SUPERSEDED), 0);
        self.pool().flush(init);
        self.pool().store(self.cur_addr(), init.to_word());
        self.pool().flush(self.cur_addr());
        self.core.format_x();
        self.pool().drain();
    }

    fn cur_addr(&self) -> PAddr {
        PAddr::from_index(A_CUR)
    }

    fn alloc(&self, tid: usize) -> PAddr {
        self.nodes
            .alloc_with_reclaim(tid, self.ebr())
            .unwrap_or_else(|| panic!("CAS node pool exhausted (size it for the workload)"))
    }

    fn sweep_pending(&self, tid: usize) {
        let mut pending = self.pending[tid].lock().unwrap_or_else(|e| e.into_inner());
        let cur = self.pool().peek(self.cur_addr());
        let x = tag::addr_of(self.pool().peek(self.x_addr(tid)));
        pending.retain(|&p| {
            if p.to_word() != cur && p != x {
                self.ebr().retire(tid, p);
                false
            } else {
                true
            }
        });
    }

    fn push_pending(&self, tid: usize, node: PAddr) {
        self.pending[tid].lock().unwrap_or_else(|e| e.into_inner()).push(node);
    }

    /// **prep-cas(expected, new, seq)**: allocates and persists a value
    /// node, then announces it in `X[tid]`. `seq` is the §2.1
    /// disambiguation tag.
    ///
    /// # Panics
    ///
    /// Panics if the node pool is exhausted.
    pub fn prep_cas(&self, h: ThreadHandle, expected: u64, new: u64, seq: u64) {
        let tid = h.slot();
        self.sweep_pending(tid);
        let old = tag::addr_of(self.pool().load(self.x_addr(tid)));
        let node = self.alloc(tid);
        self.pool().store(node.offset(F_NEW), new);
        self.pool().store(node.offset(F_EXPECTED), expected);
        self.pool().store(node.offset(F_WRITER_SEQ), ((tid as u64) << 48) | (seq & tag::ADDR_MASK));
        self.pool().store(node.offset(F_SUPERSEDED), 0);
        self.pool().flush(node);
        // Ordering point: the announce must not persist ahead of the node
        // it names.
        self.pool().drain_lines(&[
            node.offset(F_NEW),
            node.offset(F_EXPECTED),
            node.offset(F_WRITER_SEQ),
            node.offset(F_SUPERSEDED),
        ]);
        // Announce + the durable-before-return drain (DetectableCore).
        self.core.announce(tid, tag::set(node.to_word(), C_PREP));
        if !old.is_null() {
            self.push_pending(tid, old);
        }
    }

    /// **exec-cas()**: attempts the prepared compare-and-swap, returning
    /// whether it succeeded. Success installs the prepared node (marking
    /// the incumbent superseded first); failure is recorded in `X[tid]`
    /// with the `FAILED` tag.
    ///
    /// # Panics
    ///
    /// Panics if no CAS is prepared for `tid` (or it already executed —
    /// Axiom 2's precondition `R[pᵢ] = ⊥`).
    pub fn exec_cas(&self, h: ThreadHandle) -> bool {
        let tid = h.slot();
        let _g = self.pin(tid);
        let xa = self.x_addr(tid);
        let x = self.pool().load(xa);
        assert!(
            tag::has(x, C_PREP) && !tag::has(x, C_COMPL),
            "exec-cas without a pending prepared CAS (X[{tid}] = {x:#x})"
        );
        let node = tag::addr_of(x);
        let expected = self.pool().load(node.offset(F_EXPECTED));
        let mut bo = self.new_backoff();
        loop {
            let cur_w = self.pool().load(self.cur_addr());
            let cur = tag::addr_of(cur_w);
            let cur_val = self.pool().load(cur.offset(F_NEW));
            if cur_val != expected {
                // The CAS takes effect (fails) at this read.
                self.core.complete(tid, tag::set(x, C_COMPL | C_FAILED));
                self.pool().drain();
                return false;
            }
            self.pool().store(cur.offset(F_SUPERSEDED), 1);
            self.pool().flush(cur.offset(F_SUPERSEDED));
            // The announce and the incumbent's superseded mark must be
            // persistent before the install can take effect — resolve
            // proves installation through either of them.
            self.pool().drain_lines(&[cur.offset(F_SUPERSEDED), xa]);
            if self.pool().cas(self.cur_addr(), cur_w, node.to_word()).is_ok() {
                self.pool().flush(self.cur_addr());
                // Ordering point: the completion mark must not persist
                // ahead of the installed pointer it certifies.
                self.pool().drain_line(self.cur_addr());
                self.core.complete(tid, tag::set(x, C_COMPL));
                self.pool().drain();
                return true;
            }
            bo.spin();
        }
    }

    /// Non-detectable **cas(expected, new)** (Axiom 4).
    ///
    /// # Panics
    ///
    /// Panics if the node pool is exhausted.
    pub fn cas(&self, h: ThreadHandle, expected: u64, new: u64) -> bool {
        let tid = h.slot();
        let _g = self.pin(tid);
        self.sweep_pending(tid);
        let node = self.alloc(tid);
        self.pool().store(node.offset(F_NEW), new);
        self.pool().store(node.offset(F_EXPECTED), expected);
        self.pool().store(node.offset(F_WRITER_SEQ), u64::MAX);
        self.pool().store(node.offset(F_SUPERSEDED), 0);
        self.pool().flush(node);
        let mut bo = self.new_backoff();
        loop {
            let cur_w = self.pool().load(self.cur_addr());
            let cur = tag::addr_of(cur_w);
            let cur_val = self.pool().load(cur.offset(F_NEW));
            if cur_val != expected {
                // The node was never exposed; free it directly.
                self.nodes.free(tid, node);
                self.pool().drain();
                return false;
            }
            self.pool().store(cur.offset(F_SUPERSEDED), 1);
            self.pool().flush(cur.offset(F_SUPERSEDED));
            // The new node and the incumbent's superseded mark must be
            // persistent before the install can take effect.
            self.pool().drain_lines(&[
                cur.offset(F_SUPERSEDED),
                node.offset(F_NEW),
                node.offset(F_EXPECTED),
                node.offset(F_WRITER_SEQ),
                node.offset(F_SUPERSEDED),
            ]);
            if self.pool().cas(self.cur_addr(), cur_w, node.to_word()).is_ok() {
                self.pool().flush(self.cur_addr());
                self.pool().drain();
                self.push_pending(tid, node);
                return true;
            }
            bo.spin();
        }
    }

    /// **read()** (plain): the current value.
    pub fn read(&self, h: ThreadHandle) -> u64 {
        let _g = self.pin(h.slot());
        let cur = tag::addr_of(self.pool().load(self.cur_addr()));
        self.pool().load(cur.offset(F_NEW))
    }

    /// **resolve()**: reports the most recently prepared CAS and whether
    /// it took effect, and with which outcome. Needs no recovery phase;
    /// idempotent.
    pub fn resolve(&self, h: ThreadHandle) -> ResolvedCas {
        let x = self.pool().load(self.x_addr(h.slot()));
        if !tag::has(x, C_PREP) {
            return ResolvedCas { op: None, resp: None };
        }
        let node = tag::addr_of(x);
        let op = Some((
            self.pool().load(node.offset(F_EXPECTED)),
            self.pool().load(node.offset(F_NEW)),
            self.pool().load(node.offset(F_WRITER_SEQ)) & tag::ADDR_MASK,
        ));
        if tag::has(x, C_COMPL) {
            return ResolvedCas { op, resp: Some(!tag::has(x, C_FAILED)) };
        }
        let installed = self.pool().load(self.cur_addr()) == node.to_word()
            || self.pool().load(node.offset(F_SUPERSEDED)) == 1;
        ResolvedCas { op, resp: if installed { Some(true) } else { None } }
    }

    /// Rebuilds the volatile allocator after a crash.
    pub fn rebuild_allocator(&self) {
        let mut live = self.nodes.node_set();
        live.insert(tag::addr_of(self.pool().load(self.cur_addr())));
        for i in 0..self.nthreads() {
            live.insert(tag::addr_of(self.pool().load(self.x_addr(i))));
        }
        self.nodes.rebuild(&live);
        self.ebr().reset();
        for p in self.pending.iter() {
            p.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }
}

impl<M: Memory> Deref for DetectableCas<M> {
    type Target = DetectableCore<M>;

    fn deref(&self) -> &DetectableCore<M> {
        &self.core
    }
}

impl<M: Memory> fmt::Debug for DetectableCas<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetectableCas").field("nthreads", &self.nthreads()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_pmem::WritebackAdversary;
    use std::sync::Arc;

    #[test]
    fn cas_success_and_failure() {
        let c = DetectableCas::new(2, 8);
        let h0 = c.register_thread().unwrap();
        let h1 = c.register_thread().unwrap();
        assert!(c.cas(h0, 0, 5));
        assert!(!c.cas(h1, 0, 9), "expected value is stale");
        assert_eq!(c.read(h0), 5);
        assert!(c.cas(h1, 5, 9));
        assert_eq!(c.read(h0), 9);
    }

    #[test]
    fn detectable_cas_resolves_success() {
        let c = DetectableCas::new(1, 8);
        let h0 = c.register_thread().unwrap();
        c.prep_cas(h0, 0, 7, 3);
        assert_eq!(c.resolve(h0), ResolvedCas { op: Some((0, 7, 3)), resp: None });
        assert!(c.exec_cas(h0));
        assert_eq!(c.resolve(h0), ResolvedCas { op: Some((0, 7, 3)), resp: Some(true) });
    }

    #[test]
    fn detectable_cas_resolves_failure() {
        let c = DetectableCas::new(1, 8);
        let h0 = c.register_thread().unwrap();
        c.cas(h0, 0, 1);
        c.prep_cas(h0, 0, 7, 0); // expected 0, but value is 1
        assert!(!c.exec_cas(h0));
        assert_eq!(c.resolve(h0), ResolvedCas { op: Some((0, 7, 0)), resp: Some(false) });
        assert_eq!(c.read(h0), 1, "failed CAS has no effect");
    }

    #[test]
    fn overwritten_success_still_resolves_true() {
        let c = DetectableCas::new(2, 8);
        let h0 = c.register_thread().unwrap();
        let h1 = c.register_thread().unwrap();
        c.prep_cas(h0, 0, 5, 0);
        assert!(c.exec_cas(h0));
        assert!(c.cas(h1, 5, 6)); // supersedes thread 0's node
        assert_eq!(c.resolve(h0), ResolvedCas { op: Some((0, 5, 0)), resp: Some(true) });
    }

    #[test]
    #[should_panic(expected = "without a pending prepared")]
    fn double_exec_panics() {
        let c = DetectableCas::new(1, 8);
        let h0 = c.register_thread().unwrap();
        c.prep_cas(h0, 0, 1, 0);
        assert!(c.exec_cas(h0));
        let _ = c.exec_cas(h0); // Axiom 2: R[pᵢ] ≠ ⊥
    }

    #[test]
    fn crash_sweep_successful_cas() {
        for adv in [
            WritebackAdversary::None,
            WritebackAdversary::All,
            WritebackAdversary::Random { seed: 11, prob: 0.5 },
        ] {
            for k in 1..40 {
                let c = DetectableCas::new(1, 8);
                let h0 = c.register_thread().unwrap();
                let crashed = c.pool().crashes_within(k, || {
                    c.prep_cas(h0, 0, 5, 2);
                    c.exec_cas(h0);
                });
                if !crashed {
                    break;
                }
                c.pool().crash(&adv);
                c.rebuild_allocator();
                let now = c.read(h0);
                match c.resolve(h0) {
                    ResolvedCas { op: None, resp: None } => assert_eq!(now, 0, "k={k} {adv:?}"),
                    ResolvedCas { op: Some((0, 5, 2)), resp: Some(true) } => {
                        assert_eq!(now, 5, "k={k} {adv:?}")
                    }
                    ResolvedCas { op: Some((0, 5, 2)), resp: None } => {
                        assert_eq!(now, 0, "k={k} {adv:?}")
                    }
                    other => panic!("k={k} {adv:?}: impossible resolution {other:?}"),
                }
            }
        }
    }

    #[test]
    fn crash_sweep_failing_cas_never_reports_success() {
        for k in 1..40 {
            let c = DetectableCas::new(1, 8);
            let h0 = c.register_thread().unwrap();
            let crashed = c.pool().crashes_within(k, || {
                c.prep_cas(h0, 3, 5, 0); // object holds 0: must fail
                c.exec_cas(h0);
            });
            if !crashed {
                break;
            }
            c.pool().crash(&WritebackAdversary::All);
            c.rebuild_allocator();
            assert_eq!(c.read(h0), 0, "k={k}: failing CAS must never change the value");
            if let ResolvedCas { resp: Some(true), .. } = c.resolve(h0) {
                panic!("k={k}: failing CAS resolved as success");
            }
        }
    }

    #[test]
    fn concurrent_counter_via_cas() {
        // Increment a counter with detectable CAS retry loops: total must
        // equal the number of successful increments.
        let c = Arc::new(DetectableCas::new(4, 128));
        let hs: Vec<_> = (0..4).map(|_| c.register_thread().unwrap()).collect();
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let c = Arc::clone(&c);
                let h = hs[tid];
                std::thread::spawn(move || {
                    let mut seq = 0;
                    for _ in 0..100 {
                        loop {
                            let v = c.read(h);
                            c.prep_cas(h, v, v + 1, seq);
                            seq += 1;
                            if c.exec_cas(h) {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.read(hs[0]), 400);
    }
}
