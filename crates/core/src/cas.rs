//! A bespoke implementation of `D⟨CAS⟩`, and the single-cell object it
//! shares with [`DetectableRegister`](crate::DetectableRegister).
//!
//! The second base-object type of the §2.2 nesting discussion. Both
//! objects are one [binding](crate::binding): a pointer word, the *cell*,
//! naming the value node of the last installed write. A CAS node records
//! the new value and the expected one, and its install goes ahead only
//! over a current value equal to the expected one; a register write is
//! the same install without the compare. So [`SingleCell`] holds both
//! objects whole — layout, constructors, `format`, the write paths,
//! `read`, `resolve` and `rebuild_allocator` — and the public types only
//! name their payloads. A CAS that fails at its compare records the
//! failure in its completion mark. Note the contrast the paper draws with
//! NRL-like objects: Ben-Baruch et al. prove NRL-like detectable CAS
//! *requires* auxiliary external state, while this DSS-based object needs
//! none — the `prep` announcement carries everything.

use std::fmt;
use std::marker::PhantomData;
use std::ops::Deref;
use std::path::Path;

use dss_pmem::object::{checked_words, thread_count};
use dss_pmem::{
    tag, AppKind, AttachError, FlushGranularity, Memory, ObjectCore, ObjectLayout, PAddr, PmemPool,
    ThreadHandle, WORDS_PER_LINE,
};

use crate::binding::{x_end, Announced, Bindings, Install, NODE_WORDS, PAYLOAD0, PAYLOAD1};
use crate::detect::DetectableCore;

/// Structure-kind word a file-backed CAS object records in its pool
/// superblock.
pub const KIND_DETECTABLE_CAS: u64 = AppKind::DetectableCas.word();

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
    cell: SingleCell<M>,
}

impl<M: Memory> CellKind for DetectableCas<M> {
    const KIND: AppKind = AppKind::DetectableCas;
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
    pub fn create<P: AsRef<Path>>(
        path: P,
        nthreads: usize,
        nodes_per_thread: u64,
    ) -> Result<Self, AttachError> {
        SingleCell::create::<Self>(path.as_ref(), nthreads, nodes_per_thread)
            .map(|cell| Self { cell })
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
    pub fn attach<P: AsRef<Path>>(path: P) -> Result<Self, AttachError> {
        SingleCell::attach::<Self>(path.as_ref()).map(|cell| Self { cell })
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
        Self { cell: SingleCell::new_in::<Self>(nthreads, nodes_per_thread, granularity) }
    }

    /// **prep-cas(expected, new, seq)**: allocates and persists a value
    /// node, then announces it in `X[tid]`. `seq` is the §2.1
    /// disambiguation tag.
    ///
    /// # Panics
    ///
    /// Panics if the node pool is exhausted.
    pub fn prep_cas(&self, h: ThreadHandle, expected: u64, new: u64, seq: u64) {
        self.cell.prep(h, [new, expected], seq);
    }

    /// **exec-cas()**: attempts the prepared compare-and-swap, returning
    /// whether it succeeded. Success installs the prepared node (marking
    /// the incumbent superseded first); failure is recorded in `X[tid]`
    /// with the `FAILED` tag.
    ///
    /// # Panics
    ///
    /// Panics if no CAS is prepared for `tid`, or it already took effect —
    /// completed, or installed before a crash that `resolve` reports
    /// (Axiom 2's precondition `R[pᵢ] = ⊥`).
    pub fn exec_cas(&self, h: ThreadHandle) -> bool {
        self.cell.exec(h, "exec-cas", true)
    }

    /// Non-detectable **cas(expected, new)** (Axiom 4).
    ///
    /// # Panics
    ///
    /// Panics if the node pool is exhausted.
    pub fn cas(&self, h: ThreadHandle, expected: u64, new: u64) -> bool {
        self.cell.write(h, [new, expected], true)
    }

    /// **read()** (plain): the current value.
    pub fn read(&self, h: ThreadHandle) -> u64 {
        self.cell.read(h)
    }

    /// **resolve()**: reports the most recently prepared CAS and whether
    /// it took effect, and with which outcome. Needs no recovery phase;
    /// idempotent.
    pub fn resolve(&self, h: ThreadHandle) -> ResolvedCas {
        match self.cell.resolve(h) {
            None => ResolvedCas { op: None, resp: None },
            Some((a, resp)) => {
                let expected = self.pool().load(a.node.offset(PAYLOAD1));
                ResolvedCas { op: Some((expected, a.payload0, a.seq)), resp }
            }
        }
    }

    /// Rebuilds the volatile allocator after a crash: the current node and
    /// every `X`-referenced node stay allocated.
    pub fn rebuild_allocator(&self) {
        self.cell.rebuild_allocator();
    }
}

impl<M: Memory> Deref for DetectableCas<M> {
    type Target = DetectableCore<M>;

    fn deref(&self) -> &DetectableCore<M> {
        &self.cell
    }
}

impl<M: Memory> fmt::Debug for DetectableCas<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetectableCas").field("nthreads", &self.nthreads()).finish_non_exhaustive()
    }
}

/// `X` tag beside `COMPL`: the CAS failed at its compare.
const FAILED: u64 = tag::DEQ_PREP;

/// The public object a cell pool holds: the kind its superblock records.
pub(crate) trait CellKind {
    const KIND: AppKind;
}

/// A cell pool's layout, derived from `(nthreads, nodes_per_thread)`
/// alone (cf. the queue's `QueueLayout`).
struct CellLayout<K> {
    nthreads: usize,
    nodes_per_thread: u64,
    region: u64,
    reg_base: u64,
    kind: PhantomData<K>,
}

impl<K: CellKind> ObjectLayout for CellLayout<K> {
    const KIND: AppKind = K::KIND;

    fn params(&self) -> Vec<u64> {
        vec![self.nthreads as u64, self.nodes_per_thread]
    }

    fn from_params(p: &[u64]) -> Result<Self, &'static str> {
        let (nthreads, nodes_per_thread) = (thread_count(p[0])?, p[1]);
        let nodes = checked_words(&[nthreads as u64, nodes_per_thread, NODE_WORDS])?;
        let region = x_end(nthreads);
        let reg_base = (region + nodes).next_multiple_of(WORDS_PER_LINE);
        Ok(CellLayout { nthreads, nodes_per_thread, region, reg_base, kind: PhantomData })
    }

    fn registry_base(&self) -> u64 {
        self.reg_base
    }
}

/// One binding at a fixed pointer word: the register and the CAS object.
/// The initial value 0 is a node of the pool, so every node the cell ever
/// names retires the same way.
pub(crate) struct SingleCell<M: Memory> {
    values: Bindings<M>,
}

impl SingleCell<PmemPool> {
    /// The line-granular, file-backed constructor behind both `create`s.
    pub(crate) fn create<K: CellKind>(
        path: &Path,
        nthreads: usize,
        nodes_per_thread: u64,
    ) -> Result<Self, AttachError> {
        let layout = CellLayout::<K>::from_args(&[nthreads as u64, nodes_per_thread]);
        let c = Self::assemble(ObjectCore::create(path, &layout, FlushGranularity::Line)?, &layout);
        c.format();
        Ok(c)
    }

    /// The attach path behind both `attach`es: no recovery phase, only the
    /// allocator rebuild.
    pub(crate) fn attach<K: CellKind>(path: &Path) -> Result<Self, AttachError> {
        let (object, layout) = ObjectCore::attach::<CellLayout<K>, _>(path)?;
        let c = Self::assemble(object, &layout);
        c.rebuild_allocator();
        Ok(c)
    }
}

impl<M: Memory> SingleCell<M> {
    /// The fresh-pool constructor behind both `new_in`s.
    pub(crate) fn new_in<K: CellKind>(
        nthreads: usize,
        nodes_per_thread: u64,
        granularity: FlushGranularity,
    ) -> Self {
        let layout = CellLayout::<K>::from_args(&[nthreads as u64, nodes_per_thread]);
        let c = Self::assemble(ObjectCore::fresh(&layout, granularity), &layout);
        c.format();
        c
    }

    /// The shared constructor tail: in-DRAM side tables over an object
    /// skeleton — everything `attach` must rebuild rather than map.
    fn assemble<K: CellKind>(object: ObjectCore<M>, layout: &CellLayout<K>) -> Self {
        SingleCell {
            values: Bindings::new(object, K::KIND, layout.region, layout.nodes_per_thread),
        }
    }

    /// Binds and persists the initial value 0 (fresh pools only — never
    /// run on attach).
    fn format(&self) {
        let init = self.values.plain_node(0, [0, 0], 0);
        self.values.seed(self.cell(), init);
        self.pool().flush(self.cell());
        self.format_x();
        self.pool().drain();
    }

    /// The cell, on the root line of the fixed layout `[0:NULL][cell
    /// line][n X lines][node region][registry]`.
    fn cell(&self) -> PAddr {
        PAddr::from_index(WORDS_PER_LINE)
    }

    /// Announces a detectable write of `payload` tagged `seq`.
    pub(crate) fn prep(&self, h: ThreadHandle, payload: [u64; 2], seq: u64) {
        self.values.prep(h.slot(), payload, seq, 0, |_| Some(self.cell()));
    }

    /// Installs the announced node — with `compare`, only over a current
    /// value equal to its `payload1`, else the failure is the completion.
    /// Returns whether it installed.
    ///
    /// # Panics
    ///
    /// Panics, naming `op`, if no operation is pending, and if it already
    /// took effect ([`Bindings::install`]).
    pub(crate) fn exec(&self, h: ThreadHandle, op: &str, compare: bool) -> bool {
        let tid = h.slot();
        let _g = self.pin(tid);
        let x = self.values.prepared(tid, op);
        let node = tag::addr_of(x);
        let expected = compare.then(|| self.pool().load(node.offset(PAYLOAD1)));
        let installed = self.install(tid, node, Some(x), expected);
        if !installed {
            // The CAS takes effect (fails) at the compare.
            self.values.finish(tid, Some(x), FAILED);
        }
        installed
    }

    /// A plain write of `payload` — with `compare`, only over a current
    /// value equal to `payload[1]`. Returns whether it installed.
    pub(crate) fn write(&self, h: ThreadHandle, payload: [u64; 2], compare: bool) -> bool {
        let tid = h.slot();
        let node = self.values.plain_node(tid, payload, 0);
        // Pinned after the allocation, which a pin would hold back.
        let _g = self.pin(tid);
        let installed = self.install(tid, node, None, compare.then_some(payload[1]));
        if !installed {
            // The node was never exposed.
            self.values.discard(tid, node);
            self.pool().drain();
        }
        installed
    }

    /// Installs `node` in the cell unless the current value differs from
    /// `expected`.
    fn install(&self, tid: usize, node: PAddr, x: Option<u64>, expected: Option<u64>) -> bool {
        let admit =
            |cur: PAddr| expected.is_none_or(|e| self.pool().load(cur.offset(PAYLOAD0)) == e);
        let mut bo = self.new_backoff();
        loop {
            match self.values.install(tid, self.cell(), node, x, admit) {
                Install::Done => return true,
                Install::Refused => return false,
                Install::Lost => bo.spin(),
            }
        }
    }

    /// The current value.
    pub(crate) fn read(&self, h: ThreadHandle) -> u64 {
        let _g = self.pin(h.slot());
        let cur = self.values.current(self.cell());
        self.pool().load(cur.offset(PAYLOAD0))
    }

    /// The announced operation and, if it took effect, whether it
    /// installed (`false`: a CAS that failed at its compare).
    pub(crate) fn resolve(&self, h: ThreadHandle) -> Option<(Announced, Option<bool>)> {
        let a = self.values.announced(h.slot())?;
        let effect =
            self.values.took_effect(&a, || Some(self.cell())).then(|| !tag::has(a.x, FAILED));
        Some((a, effect))
    }

    /// Rebuilds the volatile allocator after a crash: the current node and
    /// every `X`-referenced node stay allocated.
    pub(crate) fn rebuild_allocator(&self) {
        self.values.rebuild(|live| {
            live.insert(self.values.peek_node(self.cell()));
        });
    }
}

#[cfg(test)]
impl SingleCell<PmemPool> {
    /// Races two writers through `op(h, i)` over the cell and checks node
    /// conservation ([`Bindings::assert_conserved`]) once they quiesce.
    /// Then `h1` overwrites `h0`'s installed write while `X[h0]` still
    /// names it, and after a crash the rebuild must park that node with
    /// `h0` again and conserve every node.
    pub(crate) fn check_conservation(
        &self,
        hs: [ThreadHandle; 2],
        op: impl Fn(ThreadHandle, u64) + Sync,
    ) {
        let assert_conserved = || {
            self.values.assert_conserved([(self.values.peek_node(self.cell()), "binding")]);
        };
        std::thread::scope(|s| {
            for h in hs {
                let op = &op;
                s.spawn(move || (0..20_000).for_each(|i| op(h, i + h.slot() as u64)));
            }
        });
        assert_conserved();
        let [h0, h1] = hs;
        self.prep(h0, [1, 0], 0);
        self.exec(h0, "exec", false);
        let first = self.values.peek_node(self.x_addr(h0.slot()));
        self.write(h1, [2, 0], false);
        self.pool().crash(&dss_pmem::WritebackAdversary::None);
        self.rebuild_allocator();
        assert_eq!(*self.values.held[h0.slot()].lock(), vec![first]);
        assert_conserved();
    }
}

impl<M: Memory> Deref for SingleCell<M> {
    type Target = DetectableCore<M>;

    fn deref(&self) -> &DetectableCore<M> {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::tests::{crash_sweep, one_thread};
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
        let random = WritebackAdversary::Random { seed: 11, prob: 0.5 };
        crash_sweep(
            &[WritebackAdversary::None, WritebackAdversary::All, random],
            |g| one_thread(<DetectableCas>::new_in(1, 8, g)),
            |c, h| {
                c.prep_cas(h, 0, 5, 2);
                c.exec_cas(h);
            },
            |c, h, at| {
                c.rebuild_allocator();
                let now = c.read(h);
                match c.resolve(h) {
                    ResolvedCas { op: None, resp: None } => assert_eq!(now, 0, "{at}"),
                    ResolvedCas { op: Some((0, 5, 2)), resp: Some(true) } => {
                        assert_eq!(now, 5, "{at}")
                    }
                    ResolvedCas { op: Some((0, 5, 2)), resp: None } => assert_eq!(now, 0, "{at}"),
                    other => panic!("{at}: impossible resolution {other:?}"),
                }
            },
        );
    }

    #[test]
    fn crash_sweep_failing_cas_never_reports_success() {
        crash_sweep(
            &[WritebackAdversary::All],
            |g| one_thread(<DetectableCas>::new_in(1, 8, g)),
            |c, h| {
                c.prep_cas(h, 3, 5, 0); // object holds 0: must fail
                c.exec_cas(h);
            },
            |c, h, at| {
                c.rebuild_allocator();
                assert_eq!(c.read(h), 0, "{at}: failing CAS must never change the value");
                if let ResolvedCas { resp: Some(true), .. } = c.resolve(h) {
                    panic!("{at}: failing CAS resolved as success");
                }
            },
        );
    }

    #[test]
    fn value_nodes_are_conserved_under_mixed_writers() {
        // Detectable and plain CASes that succeed or fail race with
        // abandoned preps over a small pool.
        let c = DetectableCas::new(2, 16);
        let hs = [0, 1].map(|_| c.register_thread().unwrap());
        c.cell.check_conservation(hs, |h, i| {
            let v = c.read(h);
            match i % 5 {
                0 => {
                    c.prep_cas(h, v, v + 1, i);
                    c.exec_cas(h);
                }
                1 => {
                    c.prep_cas(h, u64::MAX, 0, i);
                    assert!(!c.exec_cas(h));
                }
                2 => {
                    c.cas(h, v, v + 1);
                }
                3 => assert!(!c.cas(h, u64::MAX, 0)),
                _ => c.prep_cas(h, v, v + 1, i), // abandoned
            }
        });
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
