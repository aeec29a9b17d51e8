//! A bespoke implementation of `D⟨read/write register⟩` — the object of the
//! paper's Figure 2.
//!
//! A recoverable register cannot keep provenance in a bare 64-bit cell: if a
//! thread's write is overwritten before the thread persists its completion
//! tag, no amount of post-crash inspection of the cell can tell whether the
//! write ever took effect. This implementation therefore uses the standard
//! indirection idiom (shared with [`DetectableCas`](crate::DetectableCas)):
//! the register is a pointer to an immutable *value node* `{value, writer,
//! seq, superseded}`, and an installer marks its predecessor's `superseded`
//! flag (persisted) *before* swinging the pointer. A thread's write
//! provably took effect iff its node is current **or** superseded — both
//! survive crashes.
//!
//! This is also the first half of the §2.2 nesting demonstration: the DSS
//! queue's base objects (registers and CAS) can themselves be detectable.

use std::fmt;
use std::ops::Deref;

use dss_pmem::object::{checked_words, thread_count};
use dss_pmem::{
    tag, AppKind, AttachError, FlushGranularity, Memory, NodePool, ObjectCore, ObjectLayout, PAddr,
    PmemPool, ThreadHandle, WORDS_PER_LINE,
};
use dss_spec::types::RegisterResp;

use crate::detect::DetectableCore;

// Node layout (4 words, line-aligned like the queue's nodes).
const F_VALUE: u64 = 0;
const F_WRITER_SEQ: u64 = 1;
const F_SUPERSEDED: u64 = 2;
const NODE_WORDS: u64 = 4;

// Register-local tags (same bit positions as the queue's enqueue tags; the
// objects never share an X word, so reuse is safe and keeps all tags above
// the 48 address bits).
const W_PREP: u64 = tag::ENQ_PREP;
const W_COMPL: u64 = tag::ENQ_COMPL;

// Fixed layout: [0:NULL][cur line][n X lines][initial node][region] — cur
// and each X entry on their own cache line (no false sharing).
const A_CUR: u64 = WORDS_PER_LINE;
const A_X_BASE: u64 = 2 * WORDS_PER_LINE;

/// Structure-kind word a file-backed register records in its pool
/// superblock.
pub const KIND_DETECTABLE_REGISTER: u64 = AppKind::DetectableRegister.word();

/// The register's pool layout, derived from `(nthreads, nodes_per_thread)`
/// alone (cf. the queue's `QueueLayout`).
struct RegisterLayout {
    nthreads: usize,
    nodes_per_thread: u64,
    init_node: u64,
    region: u64,
    reg_base: u64,
}

impl ObjectLayout for RegisterLayout {
    const KIND: AppKind = AppKind::DetectableRegister;

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
        Ok(RegisterLayout { nthreads, nodes_per_thread, init_node, region, reg_base })
    }

    fn registry_base(&self) -> u64 {
        self.reg_base
    }
}

/// The outcome reported by [`DetectableRegister::resolve`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ResolvedWrite {
    /// The prepared write's value and the application-chosen sequence tag
    /// (the §2.1 disambiguation argument), if a write was ever prepared.
    pub op: Option<(u64, u64)>,
    /// `Some(Ok)` if the write took effect.
    pub resp: Option<RegisterResp>,
}

/// A detectable recoverable multi-writer register (`D⟨register⟩`).
///
/// Detectable writes go through [`prep_write`](Self::prep_write) /
/// [`exec_write`](Self::exec_write); plain [`write`](Self::write) and
/// [`read`](Self::read) are the non-detectable operations (Axiom 4). After
/// a crash no recovery phase is needed: [`resolve`](Self::resolve) inspects
/// persisted state only — the register recovers independently, like the
/// §3.3 queue variant.
///
/// Values are limited to 48 bits (they share a word with nothing, but this
/// keeps the example honest about tag budgets; larger payloads belong in
/// multi-word nodes like the queue's).
///
/// # Examples
///
/// ```
/// use dss_core::DetectableRegister;
/// use dss_spec::types::RegisterResp;
///
/// let r = DetectableRegister::new(2, 16);
/// let h0 = r.register_thread().unwrap();
/// let h1 = r.register_thread().unwrap();
/// r.prep_write(h0, 7, 1);
/// r.exec_write(h0);
/// assert_eq!(r.read(h1), 7);
/// let res = r.resolve(h0);
/// assert_eq!(res.op, Some((7, 1)));
/// assert_eq!(res.resp, Some(RegisterResp::Ok));
/// ```
pub struct DetectableRegister<M: Memory = PmemPool> {
    core: DetectableCore<M>,
    nodes: NodePool,
    /// Per-thread nodes this thread created that are awaiting retirement.
    /// A node may be retired once it is neither the register's current
    /// node nor referenced by the owner's `X` entry; only the owner ever
    /// retires its nodes, so `resolve` can always dereference `X` safely.
    pending: Box<[std::sync::Mutex<Vec<PAddr>>]>,
}

impl DetectableRegister {
    /// Creates a register (initial value 0) for `nthreads` threads with
    /// `nodes_per_thread` pre-allocated value nodes each, on a fresh
    /// line-granular [`PmemPool`].
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn new(nthreads: usize, nodes_per_thread: u64) -> Self {
        Self::new_in(nthreads, nodes_per_thread, FlushGranularity::Line)
    }

    /// Creates a register on a **file-backed** pool at `path`
    /// (line-granular), recording [`KIND_DETECTABLE_REGISTER`] and the
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
        let layout = RegisterLayout::from_args(&[nthreads as u64, nodes_per_thread]);
        let r = Self::assemble(ObjectCore::create(path, &layout, FlushGranularity::Line)?, &layout);
        r.format(layout.init_node);
        Ok(r)
    }

    /// Rebuilds a register from a pool file with no in-process state. The
    /// register recovers independently (no recovery phase): after
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
        let r = Self::assemble(object, &layout);
        r.rebuild_allocator();
        Ok(r)
    }
}

impl<M: Memory> DetectableRegister<M> {
    /// Creates a register on a freshly created backend of type `M`
    /// ([`Memory::create`]) — the backend-generic constructor behind
    /// [`new`](DetectableRegister::new).
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero.
    pub fn new_in(nthreads: usize, nodes_per_thread: u64, granularity: FlushGranularity) -> Self {
        let layout = RegisterLayout::from_args(&[nthreads as u64, nodes_per_thread]);
        let r = Self::assemble(ObjectCore::fresh(&layout, granularity), &layout);
        r.format(layout.init_node);
        r
    }

    /// The shared constructor tail: in-DRAM side tables over an object
    /// skeleton — everything `attach` must rebuild rather than map.
    fn assemble(object: ObjectCore<M>, layout: &RegisterLayout) -> Self {
        let (n, region) = (layout.nthreads, PAddr::from_index(layout.region));
        DetectableRegister {
            core: DetectableCore::new(object, A_X_BASE, WORDS_PER_LINE),
            nodes: NodePool::new(region, NODE_WORDS, layout.nodes_per_thread, n),
            pending: (0..n).map(|_| std::sync::Mutex::new(Vec::new())).collect(),
        }
    }

    /// Writes and persists the initial register state (fresh pools only —
    /// never run on attach).
    fn format(&self, init_node: u64) {
        let init = PAddr::from_index(init_node);
        self.pool().store(init.offset(F_VALUE), 0);
        self.pool().store(init.offset(F_WRITER_SEQ), u64::MAX); // no writer
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
            .unwrap_or_else(|| panic!("register node pool exhausted (size it for the workload)"))
    }

    /// Retires the caller's past nodes that are no longer the current node
    /// (nor the caller's `X` node, which is excluded at push time); called
    /// from `prep_write`/`write` so retirement needs no extra API.
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

    /// **prep-write(val, seq)**: allocates and persists a value node, then
    /// announces it in `X[tid]` with the prepared tag. `seq` is the
    /// application's disambiguation tag (§2.1); a parity bit suffices.
    ///
    /// # Panics
    ///
    /// Panics if `val` exceeds 48 bits or the node pool is exhausted.
    pub fn prep_write(&self, h: ThreadHandle, val: u64, seq: u64) {
        let tid = h.slot();
        assert!(val <= tag::ADDR_MASK, "register values are limited to 48 bits");
        self.sweep_pending(tid);
        let old = tag::addr_of(self.pool().load(self.x_addr(tid)));
        let node = self.alloc(tid);
        self.pool().store(node.offset(F_VALUE), val);
        self.pool().store(node.offset(F_WRITER_SEQ), pack(tid, seq));
        self.pool().store(node.offset(F_SUPERSEDED), 0);
        self.pool().flush(node);
        // Ordering point: the announce must not persist ahead of the node
        // it names.
        self.pool().drain_lines(&[
            node.offset(F_VALUE),
            node.offset(F_WRITER_SEQ),
            node.offset(F_SUPERSEDED),
        ]);
        // Announce + the durable-before-return drain (DetectableCore).
        self.core.announce(tid, tag::set(node.to_word(), W_PREP));
        // The previous announcement node is no longer referenced by X[tid];
        // it becomes retirable once it also stops being the current node.
        if !old.is_null() {
            self.push_pending(tid, old);
        }
    }

    /// **exec-write()**: installs the prepared node, marking the previous
    /// node superseded (persisted) first, so every installed node remains
    /// provably installed across crashes.
    ///
    /// # Panics
    ///
    /// Panics if no write is prepared for `tid`.
    pub fn exec_write(&self, h: ThreadHandle) {
        let tid = h.slot();
        let _g = self.pin(tid);
        let xa = self.x_addr(tid);
        let x = self.pool().load(xa);
        assert!(tag::has(x, W_PREP), "exec-write without a prepared write");
        let node = tag::addr_of(x);
        let mut bo = self.new_backoff();
        loop {
            let cur_w = self.pool().load(self.cur_addr());
            let cur = tag::addr_of(cur_w);
            // Mark the incumbent superseded *before* replacing it: its
            // owner must be able to prove installation even after we win.
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
                self.core.complete(tid, tag::set(x, W_COMPL));
                self.pool().drain();
                return;
            }
            bo.spin();
        }
    }

    /// Non-detectable **write(val)** (Axiom 4): the same installation loop
    /// with every access to `X` omitted.
    ///
    /// # Panics
    ///
    /// Panics if `val` exceeds 48 bits or the node pool is exhausted.
    pub fn write(&self, h: ThreadHandle, val: u64) {
        let tid = h.slot();
        assert!(val <= tag::ADDR_MASK, "register values are limited to 48 bits");
        let _g = self.pin(tid);
        self.sweep_pending(tid);
        let node = self.alloc(tid);
        self.pool().store(node.offset(F_VALUE), val);
        self.pool().store(node.offset(F_WRITER_SEQ), u64::MAX);
        self.pool().store(node.offset(F_SUPERSEDED), 0);
        self.pool().flush(node);
        let mut bo = self.new_backoff();
        loop {
            let cur_w = self.pool().load(self.cur_addr());
            let cur = tag::addr_of(cur_w);
            self.pool().store(cur.offset(F_SUPERSEDED), 1);
            self.pool().flush(cur.offset(F_SUPERSEDED));
            // The new node and the incumbent's superseded mark must be
            // persistent before the install can take effect.
            self.pool().drain_lines(&[
                cur.offset(F_SUPERSEDED),
                node.offset(F_VALUE),
                node.offset(F_WRITER_SEQ),
                node.offset(F_SUPERSEDED),
            ]);
            if self.pool().cas(self.cur_addr(), cur_w, node.to_word()).is_ok() {
                self.pool().flush(self.cur_addr());
                self.pool().drain();
                // X never references a plain write's node, so it joins the
                // owner's pending list right away; it is retired by a later
                // sweep once it stops being the current node.
                self.push_pending(tid, node);
                return;
            }
            bo.spin();
        }
    }

    /// **read()** (plain): the current value.
    pub fn read(&self, h: ThreadHandle) -> u64 {
        let _g = self.pin(h.slot());
        let cur = tag::addr_of(self.pool().load(self.cur_addr()));
        self.pool().load(cur.offset(F_VALUE))
    }

    /// **resolve()**: reports the most recently prepared write and whether
    /// it took effect. Needs no prior recovery phase; callable any time,
    /// idempotent.
    pub fn resolve(&self, h: ThreadHandle) -> ResolvedWrite {
        let x = self.pool().load(self.x_addr(h.slot()));
        if !tag::has(x, W_PREP) {
            return ResolvedWrite { op: None, resp: None };
        }
        let node = tag::addr_of(x);
        let (_, seq) = unpack(self.pool().load(node.offset(F_WRITER_SEQ)));
        let val = self.pool().load(node.offset(F_VALUE));
        let effective = tag::has(x, W_COMPL)
            || self.pool().load(self.cur_addr()) == node.to_word()
            || self.pool().load(node.offset(F_SUPERSEDED)) == 1;
        ResolvedWrite {
            op: Some((val, seq)),
            resp: if effective { Some(RegisterResp::Ok) } else { None },
        }
    }

    /// Rebuilds the volatile allocator after a crash: the current node and
    /// every `X`-referenced node stay allocated.
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

fn pack(pid: usize, seq: u64) -> u64 {
    ((pid as u64) << 48) | (seq & tag::ADDR_MASK)
}

fn unpack(w: u64) -> (usize, u64) {
    ((w >> 48) as usize, w & tag::ADDR_MASK)
}

impl<M: Memory> Deref for DetectableRegister<M> {
    type Target = DetectableCore<M>;

    fn deref(&self) -> &DetectableCore<M> {
        &self.core
    }
}

impl<M: Memory> fmt::Debug for DetectableRegister<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetectableRegister")
            .field("nthreads", &self.nthreads())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_pmem::WritebackAdversary;

    #[test]
    fn read_write_basic() {
        let r = DetectableRegister::new(2, 8);
        let h0 = r.register_thread().unwrap();
        let h1 = r.register_thread().unwrap();
        assert_eq!(r.read(h0), 0);
        r.write(h0, 5);
        assert_eq!(r.read(h1), 5);
        r.write(h1, 9);
        assert_eq!(r.read(h0), 9);
    }

    #[test]
    fn detectable_write_resolves_ok() {
        let r = DetectableRegister::new(1, 8);
        let h0 = r.register_thread().unwrap();
        r.prep_write(h0, 3, 0);
        assert_eq!(r.resolve(h0), ResolvedWrite { op: Some((3, 0)), resp: None });
        r.exec_write(h0);
        assert_eq!(r.resolve(h0), ResolvedWrite { op: Some((3, 0)), resp: Some(RegisterResp::Ok) });
        assert_eq!(r.read(h0), 3);
    }

    #[test]
    fn overwritten_write_still_resolves_ok() {
        // The superseded flag preserves provenance after an overwrite.
        let r = DetectableRegister::new(2, 8);
        let h0 = r.register_thread().unwrap();
        let h1 = r.register_thread().unwrap();
        r.prep_write(h0, 3, 1);
        r.exec_write(h0);
        r.write(h1, 4); // overwrites
        assert_eq!(r.read(h0), 4);
        assert_eq!(r.resolve(h0), ResolvedWrite { op: Some((3, 1)), resp: Some(RegisterResp::Ok) });
    }

    #[test]
    fn figure2_sweep_over_crash_points() {
        // prep-write(1); exec-write(1) with a crash at every pmem-op index:
        // resolve must answer exactly per Figure 2's allowed outcomes.
        for adv in [
            WritebackAdversary::None,
            WritebackAdversary::All,
            WritebackAdversary::Random { seed: 3, prob: 0.5 },
        ] {
            for k in 1..40 {
                let r = DetectableRegister::new(1, 8);
                let h0 = r.register_thread().unwrap();
                let crashed = r.pool().crashes_within(k, || {
                    r.prep_write(h0, 1, 9);
                    r.exec_write(h0);
                });
                if !crashed {
                    break;
                }
                r.pool().crash(&adv);
                r.rebuild_allocator();
                let value_now = r.read(h0);
                match r.resolve(h0) {
                    ResolvedWrite { op: None, resp: None } => {
                        assert_eq!(value_now, 0, "k={k} {adv:?}")
                    }
                    ResolvedWrite { op: Some((1, 9)), resp: Some(RegisterResp::Ok) } => {
                        assert_eq!(value_now, 1, "k={k} {adv:?}: effect means value persisted")
                    }
                    ResolvedWrite { op: Some((1, 9)), resp: None } => {
                        assert_eq!(value_now, 0, "k={k} {adv:?}: no effect means old value")
                    }
                    other => panic!("k={k} {adv:?}: impossible resolution {other:?}"),
                }
            }
        }
    }

    #[test]
    fn seq_tag_disambiguates_identical_writes() {
        let r = DetectableRegister::new(1, 8);
        let h0 = r.register_thread().unwrap();
        r.prep_write(h0, 5, 0);
        r.exec_write(h0);
        r.prep_write(h0, 5, 1); // same value, new op
        assert_eq!(r.resolve(h0), ResolvedWrite { op: Some((5, 1)), resp: None });
    }

    #[test]
    fn concurrent_writers_last_value_is_someones() {
        use std::sync::Arc;
        let r = Arc::new(DetectableRegister::new(4, 64));
        let hs: Vec<_> = (0..4).map(|_| r.register_thread().unwrap()).collect();
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let r = Arc::clone(&r);
                let h = hs[tid];
                std::thread::spawn(move || {
                    for i in 0..200 {
                        r.prep_write(h, (tid as u64) << 16 | i, i);
                        r.exec_write(h);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let v = r.read(hs[0]);
        let tid = v >> 16;
        assert!(tid < 4 && (v & 0xffff) == 199, "final value {v:#x} is someone's last write");
        // Every thread's last write resolves as effective.
        for &h in &hs {
            assert_eq!(r.resolve(h).resp, Some(RegisterResp::Ok));
        }
    }

    #[test]
    #[should_panic(expected = "48 bits")]
    fn oversized_value_rejected() {
        let r = DetectableRegister::new(1, 4);
        let h0 = r.register_thread().unwrap();
        r.write(h0, 1 << 50);
    }
}
