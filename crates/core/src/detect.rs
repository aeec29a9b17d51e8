//! The extracted `D⟨T⟩` detectability core (paper §2–§3).
//!
//! Every detectable structure in this crate — queue, stack, register, CAS,
//! the universal construction, and the hash map — instantiates the same
//! skeleton: a per-thread *detectability word* `X[tid]` holding a tagged
//! node pointer, the durable-announce idiom of the prep phase, the
//! store-and-flush completion mark of the exec phase, and the
//! adopt-then-repair recovery drivers (Appendix A Figure 6 centralized,
//! §3.3 independent). [`DetectableCore`] owns exactly that skeleton,
//! layered on the [`ObjectCore`] every structure in the workspace shares
//! (pool, registry-backed thread identity, epoch-based reclamation,
//! contention management, and the slot API). A new object family is the
//! structure-specific state machine plus a layout — not a fork of the
//! whole protocol.
//!
//! The helpers are *instruction-exact*: [`announce`](DetectableCore::announce)
//! is the store/flush/drain-line triple every prep ends with, and
//! [`complete`](DetectableCore::complete) the store/flush pair every exec
//! marks completion with. The crash-sweep suites arm crash points by pool-
//! operation index, so the extraction must be (and is) pure code motion —
//! the rewired structures issue byte-identical pool-operation sequences.

use std::ops::Deref;

use dss_pmem::{Memory, ObjectCore, PAddr, ThreadHandle};

/// The shared detectability skeleton a `D⟨T⟩` structure instantiates.
///
/// Layers the geometry of the per-thread detectability words (`X[tid]` at
/// `x_base + slot * x_stride`) and the announce / complete / recovery
/// helpers over an [`ObjectCore`], which it dereferences to: the pool,
/// the registry, the EBR domain, contention management, and the slot API
/// ([`register_thread`](ObjectCore::register_thread),
/// [`adopt`](ObjectCore::adopt), …). Every structure in this crate
/// dereferences to its `DetectableCore`, so the slot API is written once.
/// Structure-specific state — node allocators, layout constants, the
/// prep/exec state machines themselves — stays in the instantiating type.
#[derive(Debug)]
pub struct DetectableCore<M: Memory> {
    object: ObjectCore<M>,
    /// First word of the detectability-word region.
    x_base: u64,
    /// Distance between consecutive `X` entries, in words. The pointer
    /// structures give each entry its own cache line
    /// ([`WORDS_PER_LINE`](dss_pmem::WORDS_PER_LINE)) to avoid false
    /// sharing, and the replicated queue keeps its announced argument in
    /// the rest of that line; the universal construction packs them at
    /// stride 1.
    x_stride: u64,
}

impl<M: Memory> Deref for DetectableCore<M> {
    type Target = ObjectCore<M>;

    fn deref(&self) -> &ObjectCore<M> {
        &self.object
    }
}

impl<M: Memory> DetectableCore<M> {
    /// Places the detectability words over an object skeleton.
    pub(crate) fn new(object: ObjectCore<M>, x_base: u64, x_stride: u64) -> Self {
        DetectableCore { object, x_base, x_stride }
    }

    /// The detectability word of `slot`.
    ///
    /// Handles are valid by construction (only the registry mints them,
    /// and only with in-range slots), so no bounds assertion is needed
    /// here; a bad raw index surfaces as
    /// [`SlotError`](dss_pmem::SlotError) at the registry boundary instead.
    pub(crate) fn x_addr(&self, slot: usize) -> PAddr {
        PAddr::from_index(self.x_base + slot as u64 * self.x_stride)
    }

    /// Formats the detectability words of a fresh pool: `X[i] = 0` for
    /// all `i`, each store flushed. The caller's format routine drains
    /// once after all regions are written.
    pub(crate) fn format_x(&self) {
        for i in 0..self.nthreads() {
            self.pool().store(self.x_addr(i), 0);
            self.pool().flush(self.x_addr(i));
        }
    }

    /// The durable-announce idiom ending every prep: publish `word` in
    /// `X[slot]` and make it durable *before prep returns* — a completed
    /// prep the crash can forget would make resolve report the previous
    /// operation, a detectability violation an observer can catch.
    ///
    /// The caller persists the node the word names *first* (writeback is
    /// per-word, so `X` could otherwise survive a crash pointing at an
    /// unwritten node).
    pub(crate) fn announce(&self, slot: usize, word: u64) {
        let xa = self.x_addr(slot);
        self.pool().store(xa, word);
        self.pool().flush(xa);
        self.pool().drain_line(xa);
    }

    /// The completion mark of an exec (or of recovery repairing an
    /// effective operation): store the completed word and flush it. The
    /// caller orders the mark behind the effect it certifies and issues
    /// the trailing drain itself.
    pub(crate) fn complete(&self, slot: usize, word: u64) {
        let xa = self.x_addr(slot);
        self.pool().store(xa, word);
        self.pool().flush(xa);
    }

    /// The centralized recovery driver (Figure 6 restructured through the
    /// registry): marks the crash boundary, runs the structure's shared-
    /// state `repair` (recomputing top/tail/head pointers and the reachable
    /// set), adopts every orphaned slot, repairs each adopted slot's
    /// detectability word with `fix`, and drains once. Returns the adopted
    /// handles and what `repair` returned.
    ///
    /// Slots that were FREE at the crash hold no pending announce, so
    /// adopting only the orphans covers exactly the `X` entries Figure 6's
    /// full sweep would repair. Idempotent: a second pass adopts nothing
    /// and repairs nothing.
    pub(crate) fn recover_adopting<R>(
        &self,
        repair: impl FnOnce() -> R,
        mut fix: impl FnMut(usize, &R),
    ) -> (Vec<ThreadHandle>, R) {
        self.begin_recovery();
        let ctx = repair();
        let adopted = self.adopt_orphans();
        for h in &adopted {
            fix(h.slot(), &ctx);
        }
        self.pool().drain();
        (adopted, ctx)
    }

    /// The independent per-slot recovery driver (§3.3): the handle's owner
    /// `prepare`s whatever view of the shared state its repair needs (e.g.
    /// the reachable set), repairs only its own `X` entry with `fix`, and
    /// drains. No centralized phase — with it, "the last trace of
    /// auxiliary state" disappears.
    pub(crate) fn recover_one_with<R>(
        &self,
        h: ThreadHandle,
        prepare: impl FnOnce() -> R,
        fix: impl FnOnce(usize, &R),
    ) {
        let ctx = prepare();
        fix(h.slot(), &ctx);
        self.pool().drain();
    }
}
