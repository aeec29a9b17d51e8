//! A bespoke implementation of `D⟨read/write register⟩` — the object of the
//! paper's Figure 2.
//!
//! A register write is a [`DetectableCas`](crate::DetectableCas) install
//! without the compare: both objects are the same single-cell
//! [binding](crate::binding), whose versioned value nodes keep every
//! installed write provable across crashes and later overwrites. This
//! module only names the register's operations over it.
//!
//! This is also the first half of the §2.2 nesting demonstration: the DSS
//! queue's base objects (registers and CAS) can themselves be detectable.

use std::fmt;
use std::ops::Deref;

use dss_pmem::{tag, AppKind, AttachError, FlushGranularity, Memory, PmemPool, ThreadHandle};
use dss_spec::types::RegisterResp;

use crate::cas::{CellKind, SingleCell};
use crate::detect::DetectableCore;

/// Structure-kind word a file-backed register records in its pool
/// superblock.
pub const KIND_DETECTABLE_REGISTER: u64 = AppKind::DetectableRegister.word();

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
    cell: SingleCell<M>,
}

impl<M: Memory> CellKind for DetectableRegister<M> {
    const KIND: AppKind = AppKind::DetectableRegister;
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
        SingleCell::create::<Self>(path.as_ref(), nthreads, nodes_per_thread)
            .map(|cell| Self { cell })
    }

    /// Rebuilds a register from a pool file with no in-process state. The
    /// register recovers independently (no recovery phase): after
    /// [`begin_recovery`](dss_pmem::ObjectCore::begin_recovery) +
    /// [`adopt_orphans`](dss_pmem::ObjectCore::adopt_orphans),
    /// [`resolve`](Self::resolve) answers from persisted state alone.
    ///
    /// # Errors
    ///
    /// Any [`AttachError`], including [`AttachError::AppMismatch`] if the
    /// file holds a different structure.
    pub fn attach<P: AsRef<std::path::Path>>(path: P) -> Result<Self, AttachError> {
        SingleCell::attach::<Self>(path.as_ref()).map(|cell| Self { cell })
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
        Self { cell: SingleCell::new_in::<Self>(nthreads, nodes_per_thread, granularity) }
    }

    /// **prep-write(val, seq)**: allocates and persists a value node, then
    /// announces it in `X[tid]` with the prepared tag. `seq` is the
    /// application's disambiguation tag (§2.1); a parity bit suffices.
    ///
    /// # Panics
    ///
    /// Panics if `val` exceeds 48 bits or the node pool is exhausted.
    pub fn prep_write(&self, h: ThreadHandle, val: u64, seq: u64) {
        assert!(val <= tag::ADDR_MASK, "register values are limited to 48 bits");
        self.cell.prep(h, [val, 0], seq);
    }

    /// **exec-write()**: installs the prepared node, marking the previous
    /// node superseded (persisted) first, so every installed node remains
    /// provably installed across crashes.
    ///
    /// # Panics
    ///
    /// Panics if no write is prepared for `tid`, or it already took effect
    /// — completed, or installed before a crash that `resolve` reports
    /// (Axiom 2's precondition `R[pᵢ] = ⊥`).
    pub fn exec_write(&self, h: ThreadHandle) {
        self.cell.exec(h, "exec-write", false);
    }

    /// Non-detectable **write(val)** (Axiom 4): the same installation with
    /// every access to `X` omitted.
    ///
    /// # Panics
    ///
    /// Panics if `val` exceeds 48 bits or the node pool is exhausted.
    pub fn write(&self, h: ThreadHandle, val: u64) {
        assert!(val <= tag::ADDR_MASK, "register values are limited to 48 bits");
        self.cell.write(h, [val, 0], false);
    }

    /// **read()** (plain): the current value.
    pub fn read(&self, h: ThreadHandle) -> u64 {
        self.cell.read(h)
    }

    /// **resolve()**: reports the most recently prepared write and whether
    /// it took effect. Needs no prior recovery phase; callable any time,
    /// idempotent.
    pub fn resolve(&self, h: ThreadHandle) -> ResolvedWrite {
        match self.cell.resolve(h) {
            None => ResolvedWrite { op: None, resp: None },
            Some((a, effect)) => ResolvedWrite {
                op: Some((a.payload0, a.seq)),
                resp: effect.map(|_| RegisterResp::Ok),
            },
        }
    }

    /// Rebuilds the volatile allocator after a crash: the current node and
    /// every `X`-referenced node stay allocated.
    pub fn rebuild_allocator(&self) {
        self.cell.rebuild_allocator();
    }
}

impl<M: Memory> Deref for DetectableRegister<M> {
    type Target = DetectableCore<M>;

    fn deref(&self) -> &DetectableCore<M> {
        &self.cell
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
    use crate::binding::tests::{crash_sweep, one_thread};
    use dss_pmem::WritebackAdversary;
    use std::panic::AssertUnwindSafe;

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
        // prep-write(1); exec-write(1) with a crash at every pmem-op index,
        // under both flush granularities: resolve must answer exactly per
        // Figure 2's allowed outcomes, and a write it reports must not
        // execute again.
        let random = WritebackAdversary::Random { seed: 3, prob: 0.5 };
        crash_sweep(
            &[WritebackAdversary::None, WritebackAdversary::All, random],
            |g| one_thread(<DetectableRegister>::new_in(1, 8, g)),
            |r, h| {
                r.prep_write(h, 1, 9);
                r.exec_write(h);
            },
            |r, h, at| {
                r.rebuild_allocator();
                let value_now = r.read(h);
                match r.resolve(h) {
                    ResolvedWrite { op: None, resp: None } => assert_eq!(value_now, 0, "{at}"),
                    ResolvedWrite { op: Some((1, 9)), resp: Some(RegisterResp::Ok) } => {
                        assert_eq!(value_now, 1, "{at}: effect means value persisted");
                        // Axiom 2: even with no completion mark yet.
                        let redo = std::panic::catch_unwind(AssertUnwindSafe(|| r.exec_write(h)));
                        assert!(redo.is_err(), "{at}: a write that took effect re-executed");
                    }
                    ResolvedWrite { op: Some((1, 9)), resp: None } => {
                        assert_eq!(value_now, 0, "{at}: no effect means old value")
                    }
                    other => panic!("{at}: impossible resolution {other:?}"),
                }
            },
        );
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
    fn value_nodes_are_conserved_under_mixed_writers() {
        // Detectable and plain writes race with abandoned preps over a
        // small pool.
        let r = DetectableRegister::new(2, 16);
        let hs = [0, 1].map(|_| r.register_thread().unwrap());
        r.cell.check_conservation(hs, |h, i| match i % 3 {
            0 => {
                r.prep_write(h, i, i);
                r.exec_write(h);
            }
            1 => r.write(h, i),
            _ => r.prep_write(h, i, i), // abandoned
        });
    }

    #[test]
    #[should_panic(expected = "48 bits")]
    fn oversized_value_rejected() {
        let r = DetectableRegister::new(1, 4);
        let h0 = r.register_thread().unwrap();
        r.write(h0, 1 << 50);
    }
}
