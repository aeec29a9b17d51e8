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
//!
//! [`Lease`] is the second shared piece: the combiner-lease /
//! publication-array protocol both leased queue layers (flat combining and
//! the replicated log appender) run on top of the core.

use std::ops::Deref;
use std::sync::atomic::{
    AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};

use dss_pmem::{Backoff, Memory, ObjectCore, PAddr, SlotState, ThreadHandle};

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
    /// sharing; the universal construction packs them at stride 1. Zero
    /// means the structure keeps no strided `X` region at all (the
    /// replicated queue places its announce lines per replica).
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
        debug_assert!(self.x_stride != 0, "this structure has no strided X region");
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
    /// detectability word with `fix`, and drains once.
    ///
    /// Slots that were FREE at the crash hold no pending announce, so
    /// adopting only the orphans covers exactly the `X` entries Figure 6's
    /// full sweep would repair. Idempotent: a second pass adopts nothing
    /// and repairs nothing.
    pub(crate) fn recover_adopting<R>(
        &self,
        repair: impl FnOnce() -> R,
        mut fix: impl FnMut(usize, &R),
    ) -> Vec<ThreadHandle> {
        self.begin_recovery();
        let ctx = repair();
        let adopted = self.adopt_orphans();
        for h in &adopted {
            fix(h.slot(), &ctx);
        }
        self.pool().drain();
        adopted
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

/// Volatile per-slot announce states (DRAM only — the persistent truth
/// lives in the layer's announce words; these flags exist so waiters can
/// park on their own cache line and combiners can scan without touching
/// the pool).
const IDLE: u64 = 0;
const ANNOUNCED: u64 = 1;
const DONE: u64 = 2;

/// Consecutive stable observations of a foreign lease before a waiter
/// pays for a registry staleness probe.
const STALE_PROBE: u32 = 64;

/// Parked-waiter iterations before escalating from tuned spinning to
/// unconditional yields (batches are long compared to a CAS retry, and on
/// few-core hosts a spinning waiter starves the combiner).
const YIELD_AFTER: u32 = 8;

/// Yield iterations before escalating further to short sleeps. On an
/// oversubscribed host many yielding waiters accrue almost no vruntime
/// and keep getting rescheduled — a yield storm that starves the
/// combiner of exactly the CPU it needs to set them free. Sleeping takes
/// a waiter off the run queue entirely.
const SLEEP_AFTER: u32 = YIELD_AFTER + 64;

/// Parked-waiter sleep, long enough to drain a yield storm and short
/// enough that a woken waiter's operation latency stays small next to a
/// batch under flush penalties.
const PARK_SLEEP: std::time::Duration = std::time::Duration::from_micros(50);

/// The combiner-lease / publication-array protocol of the leased queue
/// layers ([`CombiningQueue`](crate::CombiningQueue) and
/// [`ReplicatedQueue`](crate::ReplicatedQueue)).
///
/// `prep` durably announces an operation and raises the slot's volatile
/// flag ([`announce`](Self::announce)); `exec` parks in
/// [`exec`](Self::exec) until some lease holder has applied and persisted
/// it. Whoever finds the **lease word** free CASes
/// its registry nonce in and runs the layer's `combine` pass over every
/// announced slot, which marks each applied slot [`done`](Self::done).
///
/// The lease word is volatile coordination and is never flushed on the
/// hot path: a crash reverts it to whatever last persisted (free, or a
/// nonce no LIVE slot carries any more), and both images are handled.
/// Centralized recovery [`clear`](Self::clear)s it durably; otherwise a
/// parked waiter that sees a stable foreign lease probes the registry
/// and, if the holder's nonce is carried by no LIVE slot — it crashed and
/// was orphaned, or released its slot mid-lease — *steals* the lease by
/// CAS. Adoption and re-registration mint fresh nonces, so a stolen lease
/// never belongs to a live holder.
pub(crate) struct Lease {
    /// The lease word: 0 = free, else the holder's registry nonce.
    word: PAddr,
    /// Per-slot announce flags (IDLE/ANNOUNCED/DONE).
    pending: Box<[AtomicU64]>,
}

impl Lease {
    /// A lease at `word` over `nslots` publication slots, all idle.
    pub(crate) fn new(word: PAddr, nslots: usize) -> Self {
        Lease { word, pending: (0..nslots).map(|_| AtomicU64::new(IDLE)).collect() }
    }

    /// The lease word's address.
    pub(crate) fn word(&self) -> PAddr {
        self.word
    }

    /// Publishes `slot`'s freshly (durably) announced operation.
    pub(crate) fn announce(&self, slot: usize) {
        self.pending[slot].store(ANNOUNCED, Release);
    }

    /// Whether `slot` has an announced operation no batch applied yet —
    /// the combiner's gather predicate.
    pub(crate) fn is_announced(&self, slot: usize) -> bool {
        self.pending[slot].load(Acquire) == ANNOUNCED
    }

    /// Whether `slot` has nothing announced and no result uncollected.
    #[cfg(test)]
    pub(crate) fn is_idle(&self, slot: usize) -> bool {
        self.pending[slot].load(Acquire) == IDLE
    }

    /// Releases `slot`'s waiter: its operation is applied and durable.
    pub(crate) fn done(&self, slot: usize) {
        self.pending[slot].store(DONE, Release);
    }

    /// Forgets `slot`'s announcement (post-crash: the crash reverted the
    /// volatile flag's meaning along with every in-flight waiter).
    pub(crate) fn reset(&self, slot: usize) {
        self.pending[slot].store(IDLE, Relaxed);
    }

    /// [`reset`](Self::reset) over every slot.
    pub(crate) fn reset_all(&self) {
        for p in self.pending.iter() {
            p.store(IDLE, Relaxed);
        }
    }

    /// Stores, flushes and orders a free lease word. Safe whenever no live
    /// thread can hold the lease (construction, attach, post-crash
    /// recovery); idempotent.
    pub(crate) fn clear<M: Memory>(&self, pool: &M) {
        pool.store(self.word, 0);
        pool.flush(self.word);
        pool.drain_line(self.word);
    }

    /// Parks until `h`'s announced operation is applied, running
    /// `combine(h)` on this thread whenever the lease is (or goes) free,
    /// and stealing the lease if its holder provably died. Waiters always
    /// park with the core's tuned backoff.
    ///
    /// Idempotent: with no announcement outstanding (double `exec`, or
    /// `exec` re-run after a crash already resolved the slot) it returns
    /// immediately instead of parking on a batch that will never form.
    pub(crate) fn exec<M: Memory>(
        &self,
        core: &ObjectCore<M>,
        h: ThreadHandle,
        mut combine: impl FnMut(ThreadHandle),
    ) {
        let slot = h.slot();
        if self.pending[slot].load(Acquire) == IDLE {
            return;
        }
        let pool = core.pool().as_ref();
        let mut bo = Backoff::attached(true, core.tuner());
        let mut observed = 0u64;
        let mut stable = 0u32;
        let mut waits = 0u32;
        loop {
            if self.pending[slot].load(Acquire) == DONE {
                self.pending[slot].store(IDLE, Relaxed);
                return;
            }
            // The lease probe is an *instrumented* pool load, so armed
            // crash countdowns progress even while a waiter only parks.
            let lease = pool.load(self.word);
            if lease == 0 {
                // No flush: the lease is volatile coordination.
                if pool.cas(self.word, 0, h.nonce()).is_ok() {
                    combine(h);
                    self.release(pool, h);
                    continue; // the batch set our DONE flag
                }
            } else if lease != observed {
                observed = lease;
                stable = 0;
            } else {
                stable += 1;
                if stable >= STALE_PROBE && Self::is_stale(core, lease) {
                    // The holder's nonce is carried by no LIVE slot: it
                    // crashed (and recovery orphaned it) or released its
                    // slot mid-lease. Steal and combine in its place.
                    if pool.cas(self.word, lease, h.nonce()).is_ok() {
                        combine(h);
                        self.release(pool, h);
                        continue;
                    }
                    observed = 0;
                    stable = 0;
                }
            }
            waits = waits.saturating_add(1);
            if waits > SLEEP_AFTER {
                std::thread::sleep(PARK_SLEEP);
            } else if waits > YIELD_AFTER {
                std::thread::yield_now();
            } else {
                bo.spin();
            }
        }
    }

    fn release<M: Memory>(&self, pool: &M, h: ThreadHandle) {
        // Failure is benign: only a post-crash steal can move the lease
        // from under a holder, and then the thief owns the cleanup. Not
        // flushed — the lease is volatile coordination.
        let _ = pool.cas(self.word, h.nonce(), 0);
    }

    /// Whether a lease nonce belongs to no LIVE registry slot. Uses
    /// uninstrumented peeks: a staleness probe is diagnosis, not protocol
    /// progress, so it must not perturb operation-indexed crash sweeps
    /// relative to the number of probing waiters.
    fn is_stale<M: Memory>(core: &ObjectCore<M>, lease: u64) -> bool {
        let reg = core.registry();
        !(0..core.nthreads())
            .any(|s| reg.slot_state(s) == Ok(SlotState::Live) && reg.slot_nonce(s) == Ok(lease))
    }
}
