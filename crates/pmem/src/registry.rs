//! The persistent thread-slot registry: on-pool thread identity.
//!
//! The paper's model (§2) assumes a dense, crash-surviving set of thread
//! IDs; its §3.3 independent-recovery variant additionally assumes a
//! recovering thread can name *its own* slot without global coordination.
//! This module makes both assumptions operational: thread identity lives
//! **in the pool**, as a fixed array of cache-line-padded slots, and every
//! data structure hands out [`ThreadHandle`]s minted here instead of
//! trusting caller-supplied `usize` indices.
//!
//! # Layout
//!
//! The registry occupies `region_words(nslots)` words, line-aligned, at a
//! base chosen by the owning structure (always *after* its existing
//! regions, so persisted layouts of pre-registry pools are unchanged):
//!
//! ```text
//! header line:  [ R_GEN | nslots | 0.. ]
//! slot i line:  [ state word | lease | nonce | pid | 0.. ]
//! state word =  (slot_gen << 2) | state     state ∈ {FREE=0, LIVE=1}
//! ```
//!
//! `R_GEN` is the *registry generation*, bumped once per recovery.
//! **ORPHANED is derived, not stored**: a slot is orphaned iff its state
//! is `LIVE` and its `slot_gen < R_GEN` — so the FREE→LIVE→ORPHANED
//! transition at a crash needs no code to run at crash time, and a crash
//! *during* recovery simply leaves the slot orphaned for the next pass.
//!
//! # Slot lifecycle
//!
//! ```text
//! FREE --acquire--> LIVE(gen = R_GEN) --[crash bumps R_GEN]--> ORPHANED
//!   ^                    |                                        |
//!   '------release-------'               adopt: re-LIVE at new gen'
//! ```
//!
//! [`acquire`](Registry::acquire), [`release`](Registry::release) and
//! [`adopt`](Registry::adopt) are lock-free (one pool CAS on the state
//! word decides each transition). Every registry mutation is flushed and
//! drained immediately, so the registry is durable under all
//! coalescing/per-address knob combinations.
//!
//! # Recovery
//!
//! [`begin_recovery`](Registry::begin_recovery) bumps `R_GEN` (turning
//! every `LIVE` slot ORPHANED) **at most once per pool crash** — it keys
//! off [`Memory::crash_generation`], so calling `recover()` twice without
//! an intervening crash does not re-orphan slots the first pass already
//! adopted. The bump writes `max(R_GEN, max slot_gen) + 1`, which keeps
//! orphan detection sound even if a previous recovery's `R_GEN` write was
//! itself lost to the crash while some adoptions persisted.
//!
//! # Cross-process
//!
//! Nothing in a slot transition is process-local: every transition is one
//! CAS on a plain pool word (futex-free — no locks, no thread parking, no
//! in-DRAM ownership table), so the same protocol works when the pool is
//! a file shared across process lifetimes. A lease is keyed by
//! `(pid, nonce)`: [`mint`](Registry::acquire) records the owning process
//! id at `W_PID` and derives the nonce from a per-process counter mixed
//! with that pid, so leases minted by different processes on the same
//! pool file never collide. When the owner is a dead *process* (SIGKILL,
//! power loss), [`PmemPool::attach`](crate::PmemPool::attach) bumps the
//! crash generation, [`Registry::attach`] rebinds to the formatted region
//! without reformatting it, and the ordinary
//! `begin_recovery`/`adopt_orphans` pass reclaims the dead process's
//! slots — exactly the dead-thread path, because ORPHANED never cared
//! what kind of owner died.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use crate::{Memory, PAddr, PmemPool, WORDS_PER_LINE};

const STATE_FREE: u64 = 0;
const STATE_LIVE: u64 = 1;
const STATE_MASK: u64 = 0b11;

// Slot-line word offsets.
const W_STATE: u64 = 0;
const W_LEASE: u64 = 1;
const W_NONCE: u64 = 2;
const W_PID: u64 = 3;

/// Sentinel for "no crash generation orphaned yet".
const NEVER: u64 = u64::MAX;

/// Process-unique registry instance ids, so a handle minted by one
/// registry is recognisably foreign to another.
static REGISTRY_IDS: AtomicU64 = AtomicU64::new(1);

/// A registry slot's observable state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SlotState {
    /// Unowned; [`Registry::acquire`] may claim it.
    Free,
    /// Owned by a thread of the current registry generation.
    Live,
    /// Owned at crash time and not yet adopted: its generation predates
    /// the current `R_GEN`.
    Orphaned,
}

/// A typed slot-registry error — the replacement for the old
/// `assert!(tid < nthreads)` aborts: a bad slot or handle is an error
/// surfaced through the registry, never a panic in an operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SlotError {
    /// The named slot index does not exist in this registry.
    OutOfRange {
        /// The offending slot index.
        slot: usize,
        /// The registry's slot count.
        nslots: usize,
    },
    /// Every slot is LIVE or ORPHANED; no identity can be minted.
    Exhausted,
    /// [`Registry::adopt`] on a slot that is not orphaned.
    NotOrphaned {
        /// The slot that was not orphaned.
        slot: usize,
    },
    /// The handle's lease is no longer current (the slot was released
    /// and re-acquired, or adopted, since the handle was minted).
    StaleHandle {
        /// The handle's slot index.
        slot: usize,
    },
    /// The handle was minted by a different registry instance.
    ForeignHandle,
}

impl fmt::Display for SlotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlotError::OutOfRange { slot, nslots } => {
                write!(f, "slot {slot} out of range (registry has {nslots} slots)")
            }
            SlotError::Exhausted => f.write_str("no free thread slot available"),
            SlotError::NotOrphaned { slot } => write!(f, "slot {slot} is not orphaned"),
            SlotError::StaleHandle { slot } => {
                write!(f, "stale handle for slot {slot} (lease superseded)")
            }
            SlotError::ForeignHandle => f.write_str("handle minted by a different registry"),
        }
    }
}

impl std::error::Error for SlotError {}

/// A thread's registry-minted identity: the slot index every per-thread
/// resource (`X[slot]`, node pools, EBR slot, op counters) keys off.
///
/// Handles are **valid by construction** — only the registry mints them,
/// always with `slot < nslots` — so operations consume them without
/// re-validation and without touching the pool (per-operation pmem-op
/// counts are unchanged by the handle plumbing). The nonce ties a handle
/// to one lease of its slot: [`Registry::release`] rejects a handle
/// whose lease was superseded. Operations themselves treat the handle as
/// advisory identity (the paper's model has no adversarial callers);
/// enforcement lives at the registry transitions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ThreadHandle {
    slot: u32,
    nonce: u64,
    registry: u64,
}

impl ThreadHandle {
    /// The slot index, used to index per-thread state.
    pub fn slot(&self) -> usize {
        self.slot as usize
    }

    /// The lease nonce this handle was minted under.
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// The minting registry's instance id.
    pub fn registry_id(&self) -> u64 {
        self.registry
    }
}

/// The persistent thread-slot registry. The module documentation of
/// `registry.rs` gives its layout, slot lifecycle and crash semantics.
pub struct Registry<M: Memory = PmemPool> {
    pool: Arc<M>,
    base: u64,
    nslots: usize,
    id: u64,
    nonces: AtomicU64,
    /// Crash generation `begin_recovery` last bumped `R_GEN` for
    /// (volatile; `NEVER` until the first recovery of this process).
    last_bump: AtomicU64,
}

impl<M: Memory> Registry<M> {
    /// The most slots a registry may have. [`attach`](Self::attach)
    /// rejects a header claiming more, and layouts cap their thread count
    /// here ([`thread_count`](crate::object::thread_count)).
    pub const MAX_SLOTS: usize = 1 << 20;

    /// Words the registry region occupies for `nslots` slots (header line
    /// plus one line per slot).
    pub fn region_words(nslots: usize) -> u64 {
        WORDS_PER_LINE * (1 + nslots as u64)
    }

    /// Formats a fresh registry at word index `base` (must be
    /// line-aligned): generation 1, every slot FREE. All writes are
    /// flushed and drained before returning.
    ///
    /// # Panics
    ///
    /// Panics if `nslots` is zero or `base` is not line-aligned.
    pub fn create(pool: Arc<M>, base: u64, nslots: usize) -> Self {
        assert!(nslots > 0, "need at least one slot");
        assert!(base.is_multiple_of(WORDS_PER_LINE), "registry base must be line-aligned");
        let r = Registry {
            pool,
            base,
            nslots,
            id: REGISTRY_IDS.fetch_add(1, SeqCst),
            nonces: AtomicU64::new(1),
            last_bump: AtomicU64::new(NEVER),
        };
        r.pool.store(r.gen_addr(), 1);
        r.pool.store(r.gen_addr().offset(1), nslots as u64);
        r.pool.flush(r.gen_addr());
        for slot in 0..nslots {
            let a = r.slot_addr(slot);
            r.pool.store(a.offset(W_STATE), STATE_FREE);
            r.pool.store(a.offset(W_LEASE), 0);
            r.pool.store(a.offset(W_NONCE), 0);
            r.pool.store(a.offset(W_PID), 0);
            r.pool.flush(a);
        }
        r.pool.drain();
        r
    }

    /// Rebinds to a registry a previous process already formatted at
    /// `base`, validating the persisted header instead of rewriting it —
    /// slot states, leases, and owner pids are exactly as the dead
    /// process left them, which is what lets the attacher's
    /// `begin_recovery`/`adopt_orphans` pass find its orphans.
    ///
    /// # Errors
    ///
    /// [`AttachError::Corrupt`](crate::AttachError::Corrupt) if `base` is
    /// not line-aligned, the region was never formatted, or the slot count
    /// is zero or above [`MAX_SLOTS`](Self::MAX_SLOTS).
    pub fn attach(pool: Arc<M>, base: u64) -> Result<Self, crate::AttachError> {
        use crate::AttachError;
        if !base.is_multiple_of(WORDS_PER_LINE) {
            return Err(AttachError::Corrupt("registry base not line-aligned"));
        }
        let generation = pool.peek(PAddr::from_index(base));
        if generation == 0 {
            return Err(AttachError::Corrupt("registry region was never formatted"));
        }
        let nslots = pool.peek(PAddr::from_index(base + 1));
        if nslots == 0 || nslots > Self::MAX_SLOTS as u64 {
            return Err(AttachError::Corrupt("implausible registry slot count"));
        }
        Ok(Registry {
            pool,
            base,
            nslots: nslots as usize,
            id: REGISTRY_IDS.fetch_add(1, SeqCst),
            nonces: AtomicU64::new(1),
            last_bump: AtomicU64::new(NEVER),
        })
    }

    fn gen_addr(&self) -> PAddr {
        PAddr::from_index(self.base)
    }

    fn slot_addr(&self, slot: usize) -> PAddr {
        PAddr::from_index(self.base + (1 + slot as u64) * WORDS_PER_LINE)
    }

    fn pack(gen: u64, state: u64) -> u64 {
        (gen << 2) | state
    }

    fn gen_of(word: u64) -> u64 {
        word >> 2
    }

    fn state_of(word: u64) -> u64 {
        word & STATE_MASK
    }

    /// The current registry generation.
    pub fn generation(&self) -> u64 {
        self.pool.load(self.gen_addr())
    }

    /// Number of slots.
    pub fn nslots(&self) -> usize {
        self.nslots
    }

    /// This registry instance's process-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The observable state of `slot`.
    ///
    /// # Errors
    ///
    /// [`SlotError::OutOfRange`] if `slot >= nslots`.
    pub fn slot_state(&self, slot: usize) -> Result<SlotState, SlotError> {
        if slot >= self.nslots {
            return Err(SlotError::OutOfRange { slot, nslots: self.nslots });
        }
        let w = self.pool.load(self.slot_addr(slot).offset(W_STATE));
        Ok(match Self::state_of(w) {
            STATE_FREE => SlotState::Free,
            _ if Self::gen_of(w) < self.generation() => SlotState::Orphaned,
            _ => SlotState::Live,
        })
    }

    /// Mints a fresh handle for this slot's current lease, persisting the
    /// lease bump and nonce. The state-word CAS that claimed the slot is
    /// the linearization point; a crash between it and these writes
    /// leaves the slot LIVE (hence adoptable) with a superseded nonce,
    /// which is exactly a lease that died immediately.
    fn mint(&self, slot: usize) -> ThreadHandle {
        let a = self.slot_addr(slot);
        let nonce = self.next_nonce();
        let lease = self.pool.load(a.offset(W_LEASE)) + 1;
        self.pool.store(a.offset(W_LEASE), lease);
        self.pool.store(a.offset(W_NONCE), nonce);
        self.pool.store(a.offset(W_PID), u64::from(std::process::id()));
        self.pool.flush(a);
        self.pool.drain_line(a);
        ThreadHandle { slot: slot as u32, nonce, registry: self.id }
    }

    /// A lease nonce unique across threads *and* processes: the process
    /// id seeds the high bits before the multiplicative hash, so two
    /// processes minting on the same pool file never produce colliding
    /// leases no matter how their counters align.
    fn next_nonce(&self) -> u64 {
        let raw = self.nonces.fetch_add(1, SeqCst) ^ (u64::from(std::process::id()) << 32);
        raw.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
    }

    /// The process id recorded by the slot's most recent lease (0 if the
    /// slot was never leased). Diagnostic: tells an adopter *which* dead
    /// process owned an orphan.
    ///
    /// # Errors
    ///
    /// [`SlotError::OutOfRange`] if `slot >= nslots`.
    pub fn slot_pid(&self, slot: usize) -> Result<u64, SlotError> {
        if slot >= self.nslots {
            return Err(SlotError::OutOfRange { slot, nslots: self.nslots });
        }
        Ok(self.pool.peek(self.slot_addr(slot).offset(W_PID)))
    }

    /// The nonce minted by the slot's most recent lease (0 if the slot was
    /// never leased). The replicated queue uses this to decide whether its
    /// appender lease is stale: a lease nonce no LIVE slot carries belongs
    /// to a dead or departed holder and may be stolen.
    ///
    /// # Errors
    ///
    /// [`SlotError::OutOfRange`] if `slot >= nslots`.
    pub fn slot_nonce(&self, slot: usize) -> Result<u64, SlotError> {
        if slot >= self.nslots {
            return Err(SlotError::OutOfRange { slot, nslots: self.nslots });
        }
        Ok(self.pool.peek(self.slot_addr(slot).offset(W_NONCE)))
    }

    /// Claims the lowest FREE slot and mints a handle for it.
    ///
    /// On a fresh registry, successive acquires return slots `0, 1, 2, …`
    /// in order, so single-process callers get the dense ids the paper's
    /// figures assume.
    ///
    /// # Errors
    ///
    /// [`SlotError::Exhausted`] when no slot is FREE.
    pub fn acquire(&self) -> Result<ThreadHandle, SlotError> {
        let r_gen = self.generation();
        for slot in 0..self.nslots {
            let a = self.slot_addr(slot).offset(W_STATE);
            let w = self.pool.load(a);
            if Self::state_of(w) != STATE_FREE {
                continue;
            }
            if self.pool.cas(a, w, Self::pack(r_gen, STATE_LIVE)).is_ok() {
                self.pool.flush(a);
                return Ok(self.mint(slot));
            }
            // Lost the race for this slot; keep scanning.
        }
        Err(SlotError::Exhausted)
    }

    /// Releases a handle's slot back to FREE.
    ///
    /// # Errors
    ///
    /// [`SlotError::ForeignHandle`] for a handle from another registry,
    /// [`SlotError::StaleHandle`] if the slot's lease has moved on (the
    /// slot was already released, re-acquired, or adopted), and
    /// [`SlotError::OutOfRange`] for a corrupted slot index.
    pub fn release(&self, h: ThreadHandle) -> Result<(), SlotError> {
        if h.registry != self.id {
            return Err(SlotError::ForeignHandle);
        }
        let slot = h.slot();
        if slot >= self.nslots {
            return Err(SlotError::OutOfRange { slot, nslots: self.nslots });
        }
        let a = self.slot_addr(slot);
        if self.pool.load(a.offset(W_NONCE)) != h.nonce {
            return Err(SlotError::StaleHandle { slot });
        }
        let w = self.pool.load(a.offset(W_STATE));
        if Self::state_of(w) != STATE_LIVE {
            return Err(SlotError::StaleHandle { slot });
        }
        self.pool
            .cas(a.offset(W_STATE), w, STATE_FREE)
            .map_err(|_| SlotError::StaleHandle { slot })?;
        self.pool.flush(a.offset(W_STATE));
        self.pool.drain_line(a);
        Ok(())
    }

    /// Adopts one ORPHANED slot: re-LIVEs it at the current generation
    /// and mints a fresh handle (new lease, new nonce) for the adopter.
    ///
    /// # Errors
    ///
    /// [`SlotError::OutOfRange`] if `slot >= nslots` — the typed
    /// replacement for the old out-of-range panic — and
    /// [`SlotError::NotOrphaned`] if the slot is FREE, LIVE, or was
    /// adopted by a racing thread first.
    pub fn adopt(&self, slot: usize) -> Result<ThreadHandle, SlotError> {
        if slot >= self.nslots {
            return Err(SlotError::OutOfRange { slot, nslots: self.nslots });
        }
        let r_gen = self.generation();
        let a = self.slot_addr(slot).offset(W_STATE);
        let w = self.pool.load(a);
        if Self::state_of(w) != STATE_LIVE || Self::gen_of(w) >= r_gen {
            return Err(SlotError::NotOrphaned { slot });
        }
        self.pool
            .cas(a, w, Self::pack(r_gen, STATE_LIVE))
            .map_err(|_| SlotError::NotOrphaned { slot })?;
        self.pool.flush(a);
        Ok(self.mint(slot))
    }

    /// Adopts every ORPHANED slot (ascending slot order) and returns the
    /// minted handles. Slots a racing adopter wins are skipped.
    pub fn adopt_orphans(&self) -> Vec<ThreadHandle> {
        (0..self.nslots).filter_map(|slot| self.adopt(slot).ok()).collect()
    }

    /// Marks the crash boundary: bumps the registry generation so every
    /// LIVE slot becomes ORPHANED. Idempotent per pool crash — repeated
    /// calls without an intervening [`Memory::crash_generation`] change
    /// (including racing calls from concurrent recoverers) bump at most
    /// once, so a second `recover()` does not re-orphan slots the first
    /// already adopted.
    pub fn begin_recovery(&self) {
        let crash_gen = self.pool.crash_generation();
        let prev = self.last_bump.load(SeqCst);
        if prev == crash_gen
            || self.last_bump.compare_exchange(prev, crash_gen, SeqCst, SeqCst).is_err()
        {
            return;
        }
        // `max` over slot generations keeps orphan detection sound even
        // when a prior recovery's R_GEN write was lost to the crash while
        // some of its adoptions persisted (their slot_gen would otherwise
        // look current).
        let mut g = self.generation();
        for slot in 0..self.nslots {
            g = g.max(Self::gen_of(self.pool.load(self.slot_addr(slot).offset(W_STATE))));
        }
        self.pool.store(self.gen_addr(), g + 1);
        self.pool.flush(self.gen_addr());
        self.pool.drain_line(self.gen_addr());
    }

    /// Number of slots currently in each state: `(free, live, orphaned)`.
    pub fn census(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for slot in 0..self.nslots {
            match self.slot_state(slot).expect("slot in range") {
                SlotState::Free => counts.0 += 1,
                SlotState::Live => counts.1 += 1,
                SlotState::Orphaned => counts.2 += 1,
            }
        }
        counts
    }
}

impl<M: Memory> fmt::Debug for Registry<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("nslots", &self.nslots)
            .field("generation", &self.generation())
            .field("census", &self.census())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlushGranularity, WritebackAdversary};

    fn fresh(nslots: usize) -> Registry {
        let pool = Arc::new(PmemPool::with_granularity(
            Registry::<PmemPool>::region_words(nslots) as usize + 64,
            FlushGranularity::Line,
        ));
        Registry::create(pool, WORDS_PER_LINE, nslots)
    }

    #[test]
    fn acquire_returns_dense_slots_in_order() {
        let r = fresh(3);
        let hs: Vec<_> = (0..3).map(|_| r.acquire().unwrap()).collect();
        assert_eq!(hs.iter().map(|h| h.slot()).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(r.acquire(), Err(SlotError::Exhausted));
        assert_eq!(r.census(), (0, 3, 0));
    }

    #[test]
    fn release_frees_and_rejects_stale_handles() {
        let r = fresh(2);
        let h0 = r.acquire().unwrap();
        r.release(h0).unwrap();
        assert_eq!(r.slot_state(0).unwrap(), SlotState::Free);
        // Double release: the lease is gone.
        assert_eq!(r.release(h0), Err(SlotError::StaleHandle { slot: 0 }));
        // Re-acquire gets slot 0 back with a fresh lease; the old handle
        // still doesn't release it.
        let h0b = r.acquire().unwrap();
        assert_eq!(h0b.slot(), 0);
        assert_ne!(h0b.nonce(), h0.nonce());
        assert_eq!(r.release(h0), Err(SlotError::StaleHandle { slot: 0 }));
        r.release(h0b).unwrap();
    }

    #[test]
    fn foreign_and_out_of_range_are_typed_errors() {
        let r1 = fresh(1);
        let r2 = fresh(1);
        let h = r1.acquire().unwrap();
        assert_eq!(r2.release(h), Err(SlotError::ForeignHandle));
        assert_eq!(r1.adopt(5), Err(SlotError::OutOfRange { slot: 5, nslots: 1 }));
        assert!(r1.slot_state(9).is_err());
    }

    #[test]
    fn crash_orphans_live_slots_and_adopt_reclaims_them() {
        let r = fresh(3);
        let _h0 = r.acquire().unwrap();
        let _h1 = r.acquire().unwrap();
        r.pool.crash(&WritebackAdversary::None);
        // Before recovery marks the boundary, the slots still read LIVE.
        assert_eq!(r.census(), (1, 2, 0));
        r.begin_recovery();
        assert_eq!(r.census(), (1, 0, 2));
        // Adopting a FREE slot is a typed error; orphans adopt fine.
        assert_eq!(r.adopt(2), Err(SlotError::NotOrphaned { slot: 2 }));
        let adopted = r.adopt_orphans();
        assert_eq!(adopted.iter().map(|h| h.slot()).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(r.census(), (1, 2, 0));
    }

    #[test]
    fn begin_recovery_is_idempotent_per_crash() {
        let r = fresh(2);
        let _h = r.acquire().unwrap();
        r.pool.crash(&WritebackAdversary::None);
        r.begin_recovery();
        let g = r.generation();
        let adopted = r.adopt_orphans();
        assert_eq!(adopted.len(), 1);
        // A second recovery pass without a new crash must not re-orphan.
        r.begin_recovery();
        assert_eq!(r.generation(), g);
        assert!(r.adopt_orphans().is_empty());
        // A new crash re-arms the bump.
        r.pool.crash(&WritebackAdversary::None);
        r.begin_recovery();
        assert_eq!(r.generation(), g + 1);
        assert_eq!(r.adopt_orphans().len(), 1);
    }

    #[test]
    fn registry_state_survives_crash_under_all_knob_combos() {
        for (coalesce, per_address) in [(false, false), (true, false), (true, true)] {
            let r = fresh(2);
            r.pool.set_coalescing(coalesce);
            r.pool.set_per_address_drains(per_address);
            let h = r.acquire().unwrap();
            let _ = h;
            let _h1 = r.acquire().unwrap();
            r.release(h).unwrap();
            // Even the all-dropping adversary cannot revert the registry:
            // every transition drained before returning.
            r.pool.crash(&WritebackAdversary::All);
            assert_eq!(
                r.slot_state(0).unwrap(),
                SlotState::Free,
                "coalesce={coalesce} per_address={per_address}"
            );
            r.begin_recovery();
            assert_eq!(
                r.slot_state(1).unwrap(),
                SlotState::Orphaned,
                "coalesce={coalesce} per_address={per_address}"
            );
            let h1 = r.adopt(1).unwrap();
            assert_eq!(h1.slot(), 1);
        }
    }

    #[test]
    fn attach_rebinds_without_reformatting() {
        let r = fresh(3);
        let h0 = r.acquire().unwrap();
        let _h1 = r.acquire().unwrap();
        assert_eq!(r.slot_pid(0).unwrap(), u64::from(std::process::id()));
        // Simulate the owner dying and a fresh process attaching: the pool
        // crashes, then a NEW registry instance binds to the same region.
        r.pool.crash(&WritebackAdversary::None);
        let r2 = Registry::attach(Arc::clone(&r.pool), WORDS_PER_LINE).unwrap();
        assert_eq!(r2.nslots(), 3, "slot count read back from the header");
        assert_ne!(r2.id(), r.id(), "a fresh instance, not a reformat");
        r2.begin_recovery();
        assert_eq!(r2.census(), (1, 0, 2), "dead owner's slots are orphans");
        let adopted = r2.adopt_orphans();
        assert_eq!(adopted.len(), 2);
        // Handles minted pre-crash belong to the old instance.
        assert_eq!(r2.release(h0), Err(SlotError::ForeignHandle));
    }

    #[test]
    fn attach_rejects_unformatted_and_unaligned_regions() {
        let pool = Arc::new(PmemPool::with_capacity(256));
        assert!(Registry::<PmemPool>::attach(Arc::clone(&pool), 3).is_err());
        assert!(
            Registry::<PmemPool>::attach(pool, WORDS_PER_LINE).is_err(),
            "generation 0 means never formatted"
        );
    }

    #[test]
    fn concurrent_acquire_release_is_linearizable() {
        let r = std::sync::Arc::new(fresh(4));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    for _ in 0..50 {
                        if let Ok(h) = r.acquire() {
                            r.release(h).unwrap();
                        }
                    }
                });
            }
        });
        assert_eq!(r.census(), (4, 0, 0), "every lease returned");
    }
}
