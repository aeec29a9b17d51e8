//! The object skeleton under every structure in the workspace.
//!
//! Every recoverable object here (the detectable structures, the
//! baselines, the CASWithEffect queue) is a *layout*, i.e. where its words
//! live in the pool as a function of a few parameters, plus a protocol.
//! What surrounds the protocol is the same for all of them:
//!
//! * a pool: a fresh one of any backend ([`Memory::create`]), or a pool
//!   file that is created or attached;
//! * a persistent thread-slot [`Registry`] at a base the layout picks,
//!   formatted on a fresh pool and re-bound on attach;
//! * a volatile EBR domain and contention-management state, built fresh
//!   either way;
//! * the slot API: register, release, mark the crash boundary, adopt.
//!
//! [`ObjectCore`] is that skeleton, written once. A structure supplies an
//! [`ObjectLayout`]: its kind tag, its superblock parameter words, and the
//! geometry it derives from them. It then assembles its own side tables
//! over the core and formats its regions (fresh pools) or repairs its
//! volatile state from them (attach). Structures expose the slot API by
//! dereferencing to the core.
//!
//! # Attach validation
//!
//! [`ObjectCore::attach`] is the only attach path, so a pool file is
//! checked in one place, in this order:
//!
//! 1. the pool superblock itself ([`PmemPool::attach`]);
//! 2. the kind tag against [`ObjectLayout::KIND`]
//!    ([`AttachError::AppMismatch`]);
//! 3. the parameter words, through [`ObjectLayout::from_params`]: thread
//!    count within the registry's slot bound ([`thread_count`]), sizes
//!    nonzero and within the address space ([`checked_words`]), plus the
//!    structure's own rules;
//! 4. the pool capacity against [`ObjectLayout::pool_words`];
//! 5. the registry header ([`Registry::attach`]);
//! 6. the registry's slot count against [`ObjectLayout::nthreads`].
//!
//! Steps 3–6 return [`AttachError::Corrupt`]. None of them touches the
//! pool's instrumented operations, so the pool-operation sequence of every
//! constructor and attach is exactly its registry's plus the structure's.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

use crate::{
    tag, AppKind, AttachError, Backoff, BackoffTuner, Ebr, EbrGuard, FlushGranularity, Memory,
    PlacementPolicy, PmemPool, Registry, SlotError, ThreadHandle,
};

/// The persistent geometry of one structure kind, derived from the
/// parameter words it records in a pool file's superblock.
///
/// Constructors build a layout from their arguments with
/// [`from_args`](Self::from_args); [`ObjectCore::attach`] rebuilds it
/// from the file with [`from_params`](Self::from_params). Both go through
/// the same validation, so a file can never describe a layout the
/// constructors would refuse.
pub trait ObjectLayout: Sized {
    /// The structure kind this layout stamps into a pool file.
    const KIND: AppKind;

    /// The parameter words this layout is derived from, in superblock
    /// order (at most [`PmemPool::APP_CONFIG_WORDS`]). The first word is
    /// always the thread count.
    fn params(&self) -> Vec<u64>;

    /// Derives the layout from its parameter words. This is the only
    /// place those words are validated, so it must reject every word that
    /// would make the layout arithmetic overflow or the structure
    /// misbehave.
    ///
    /// # Errors
    ///
    /// A description of the first implausible word.
    fn from_params(params: &[u64]) -> Result<Self, &'static str>;

    /// The layout for constructor arguments encoded as parameter words.
    ///
    /// # Panics
    ///
    /// Panics with the [`from_params`](Self::from_params) diagnosis:
    /// invalid constructor arguments are a caller bug.
    fn from_args(params: &[u64]) -> Self {
        Self::from_params(params)
            .unwrap_or_else(|why| panic!("invalid {} layout: {why}", Self::KIND))
    }

    /// Thread slots, the first parameter word: the registry's slot count
    /// and the EBR domain's size.
    fn nthreads(&self) -> usize {
        self.params()[0] as usize
    }

    /// Words the pool is created with: the layout through its registry
    /// (regions past it materialise as they are touched). The default
    /// ends the pool with the registry.
    fn pool_words(&self) -> u64 {
        self.registry_base() + <Registry>::region_words(self.nthreads())
    }

    /// First word of the registry region (line-aligned).
    fn registry_base(&self) -> u64;

    /// How the pool places the regions the structure plans.
    fn placement(&self) -> PlacementPolicy {
        PlacementPolicy::Interleave
    }
}

/// Decodes a thread-count parameter word: at least one slot and at most
/// [`Registry::MAX_SLOTS`], so layout arithmetic over it cannot overflow.
///
/// # Errors
///
/// A description of the bad count.
pub fn thread_count(word: u64) -> Result<usize, &'static str> {
    usize::try_from(word)
        .ok()
        .filter(|n| (1..=<Registry>::MAX_SLOTS).contains(n))
        .ok_or("thread count outside 1..=Registry::MAX_SLOTS")
}

/// The product of `factors` (counts and per-item sizes of one region),
/// in words. Every factor must be nonzero and the product must fit the
/// 48-bit address space, so sums of a few such regions cannot overflow.
///
/// # Errors
///
/// A description of the zero factor or the overflow.
pub fn checked_words(factors: &[u64]) -> Result<u64, &'static str> {
    factors.iter().try_fold(1u64, |acc, &f| {
        if f == 0 {
            return Err("a size parameter is zero");
        }
        acc.checked_mul(f)
            .filter(|&w| w <= tag::ADDR_MASK)
            .ok_or("region exceeds the 48-bit address space")
    })
}

/// The skeleton every structure stands on: its memory backend, its
/// persistent thread-slot [`Registry`], its EBR domain, contention
/// management, and the slot API. See the [module docs](self).
pub struct ObjectCore<M: Memory> {
    pool: Arc<M>,
    registry: Registry<M>,
    ebr: Ebr,
    nthreads: usize,
    /// Back off after failed CAS in retry loops. Default off, which keeps
    /// instruction sequences identical to the algorithms' pseudocode.
    backoff: AtomicBool,
    /// Adapts the backoff cap to the structure's observed CAS-failure rate.
    tuner: BackoffTuner,
}

impl<M: Memory> ObjectCore<M> {
    /// The skeleton on a fresh backend of type `M` ([`Memory::create`]):
    /// `layout.pool_words()` words, a freshly formatted registry. The
    /// structure formats its own regions next.
    pub fn fresh<L: ObjectLayout>(layout: &L, granularity: FlushGranularity) -> Self {
        Self::format(Arc::new(M::create(layout.pool_words() as usize, granularity)), layout)
    }

    /// Places the layout's regions on a fresh pool and formats its
    /// registry, then binds the volatile half.
    fn format<L: ObjectLayout>(pool: Arc<M>, layout: &L) -> Self {
        pool.set_placement(layout.placement());
        let registry =
            Registry::create(Arc::clone(&pool), layout.registry_base(), layout.nthreads());
        Self::bind(pool, registry)
    }

    /// The volatile half over a pool and its registry: fresh EBR domain,
    /// backoff off, fresh tuner.
    fn bind(pool: Arc<M>, registry: Registry<M>) -> Self {
        let nthreads = registry.nslots();
        ObjectCore {
            pool,
            registry,
            ebr: Ebr::new(nthreads),
            nthreads,
            backoff: AtomicBool::new(false),
            tuner: BackoffTuner::new(),
        }
    }

    /// The memory backend (on [`PmemPool`]: crash it, inspect it, count
    /// its operations).
    pub fn pool(&self) -> &Arc<M> {
        &self.pool
    }

    /// The persistent thread-slot registry (inspect slot states, run
    /// registry-level operations directly).
    pub fn registry(&self) -> &Registry<M> {
        &self.registry
    }

    /// Number of thread slots the structure was built for.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// The structure's EBR domain.
    pub fn ebr(&self) -> &Ebr {
        &self.ebr
    }

    /// Pins `tid`'s EBR slot for the duration of an operation.
    pub fn pin(&self, tid: usize) -> EbrGuard<'_> {
        self.ebr.pin(tid)
    }

    /// The contention tuner every backoff of this structure reports to.
    pub fn tuner(&self) -> &BackoffTuner {
        &self.tuner
    }

    /// A fresh per-operation backoff, enabled per
    /// [`set_backoff`](Self::set_backoff) and capped by the structure's
    /// [`tuner`](Self::tuner).
    pub fn new_backoff(&self) -> Backoff<'_> {
        Backoff::attached(self.backoff.load(Relaxed), &self.tuner)
    }

    /// Enables or disables contention management (bounded exponential
    /// backoff after failed CAS). Default off: instruction sequences then
    /// match the algorithms' pseudocode exactly.
    pub fn set_backoff(&self, on: bool) {
        self.backoff.store(on, Relaxed);
    }

    /// Whether contention management is enabled.
    pub fn backoff_enabled(&self) -> bool {
        self.backoff.load(Relaxed)
    }

    /// Claims the lowest free registry slot and returns the
    /// [`ThreadHandle`] every operation takes. Any stale EBR pin a previous
    /// lease of the slot left behind is cleared; its un-reclaimed retirees
    /// are inherited.
    ///
    /// # Errors
    ///
    /// [`SlotError::Exhausted`] when all `nthreads` slots are taken.
    pub fn register_thread(&self) -> Result<ThreadHandle, SlotError> {
        let h = self.registry.acquire()?;
        self.ebr.adopt_slot(h.slot());
        Ok(h)
    }

    /// Returns a handle's slot to the registry.
    ///
    /// # Errors
    ///
    /// [`SlotError::StaleHandle`] if the slot's lease has moved on (e.g.
    /// it was adopted after a crash), [`SlotError::ForeignHandle`] for a
    /// handle from another structure's registry.
    pub fn release_thread(&self, h: ThreadHandle) -> Result<(), SlotError> {
        self.registry.release(h)
    }

    /// Marks the crash boundary in the registry: every slot that was LIVE
    /// at the crash becomes ORPHANED and adoptable. Idempotent per crash.
    /// Structures with a recovery procedure call it themselves; call it
    /// directly when driving partial recovery by hand, or on structures
    /// whose detection needs no recovery phase.
    pub fn begin_recovery(&self) {
        self.registry.begin_recovery();
    }

    /// Adopts one orphaned slot on behalf of a thread that never came
    /// back: re-LIVEs the slot under a fresh lease and clears the dead
    /// thread's stale EBR pin (its retirees are inherited, not leaked).
    ///
    /// # Errors
    ///
    /// [`SlotError::OutOfRange`] / [`SlotError::NotOrphaned`] per
    /// [`Registry::adopt`].
    pub fn adopt(&self, slot: usize) -> Result<ThreadHandle, SlotError> {
        let h = self.registry.adopt(slot)?;
        self.ebr.adopt_slot(h.slot());
        Ok(h)
    }

    /// [`adopt`](Self::adopt) over every orphaned slot, ascending.
    pub fn adopt_orphans(&self) -> Vec<ThreadHandle> {
        (0..self.nthreads).filter_map(|slot| self.adopt(slot).ok()).collect()
    }
}

impl ObjectCore<PmemPool> {
    /// The skeleton on a **file-backed** pool at `path`: the file records
    /// the layout's kind and parameter words, so [`attach`](Self::attach)
    /// rebuilds everything from the path alone. The structure formats its
    /// own regions next.
    ///
    /// # Errors
    ///
    /// [`AttachError::Io`] if the pool file cannot be created.
    pub fn create<L: ObjectLayout, P: AsRef<Path>>(
        path: P,
        layout: &L,
        granularity: FlushGranularity,
    ) -> Result<Self, AttachError> {
        let pool = Arc::new(PmemPool::create(path, layout.pool_words() as usize, granularity)?);
        pool.set_app_config(L::KIND.word(), &layout.params());
        Ok(Self::format(pool, layout))
    }

    /// Rebinds the skeleton to a pool file a previous process left, with
    /// no in-process state, and returns it with the file's layout. Runs
    /// every check in the [module docs](self); the registry is re-bound,
    /// not reformatted, so the dead process's slots are orphans for the
    /// next [`begin_recovery`](Self::begin_recovery). The structure
    /// rebuilds its volatile state next.
    ///
    /// # Errors
    ///
    /// Any [`AttachError`] from the pool file itself,
    /// [`AttachError::AppMismatch`] if it holds another structure kind,
    /// and [`AttachError::Corrupt`] for implausible parameter words, a
    /// pool smaller than the layout, a bad registry header, or a registry
    /// whose slot count is not the layout's thread count.
    pub fn attach<L: ObjectLayout, P: AsRef<Path>>(path: P) -> Result<(Self, L), AttachError> {
        let pool = Arc::new(PmemPool::attach(path)?);
        let (expected, found) = (L::KIND.word(), pool.app_kind());
        if found != expected {
            return Err(AttachError::AppMismatch { expected, found });
        }
        let layout = L::from_params(&pool.app_config()).map_err(AttachError::Corrupt)?;
        if (pool.capacity() as u64) < layout.pool_words() {
            return Err(AttachError::Corrupt("pool smaller than its layout requires"));
        }
        pool.set_placement(layout.placement());
        let registry = Registry::attach(Arc::clone(&pool), layout.registry_base())?;
        if registry.nslots() != layout.nthreads() {
            return Err(AttachError::Corrupt("registry slot count differs from the thread count"));
        }
        Ok((Self::bind(pool, registry), layout))
    }
}

impl<M: Memory> std::fmt::Debug for ObjectCore<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectCore")
            .field("nthreads", &self.nthreads)
            .field("backoff", &self.backoff_enabled())
            .finish_non_exhaustive()
    }
}
