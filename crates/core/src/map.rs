//! A detectable recoverable hash map (`D⟨map⟩`) built on the extracted
//! [`DetectableCore`].
//!
//! The map is the "new object family" test of the core extraction: bucket
//! chains over the [`Memory`] backend, with the register/CAS value-node
//! indirection idiom applied per key. Two node kinds share one
//! [`NodePool`]:
//!
//! * **Entry nodes** `{key, vptr, next}` — one per *key*, prepended to a
//!   bucket chain when the key first appears and never reclaimed
//!   (immortal), so chain walks need no generation checks.
//! * **Value nodes** `{key, value, seq, flags}` — one per *write*
//!   (put or remove), immutable except for the `flags` word. An installer
//!   marks the incumbent's `SUPERSEDED` flag (persisted) before swinging
//!   the entry's `vptr`, so a writer can prove its write took effect —
//!   across crashes and later overwrites — exactly as the detectable
//!   register does. A remove installs a value node with the `TOMBSTONE`
//!   flag; the key's entry stays, the binding reads as absent.
//!
//! A value node is **retired exactly once**, at a cost independent of how
//! many bindings its writer owns:
//!
//! * **The superseder retires.** The thread whose `vptr` CAS replaced a
//!   node retires it at once — unless some `X[t]` still names it
//!   (`resolve` may dereference it), in which case it parks the node in
//!   slot `t`'s `held` list, and slot `t` retires it at the top of a
//!   later write, once `X[t]` has moved on.
//! * **The owner retires what was never installed.** When a prep moves
//!   `X` off its previous node (an abandoned prep, or a remove of an
//!   absent key), the owner retires that node if it is neither its key's
//!   current binding nor flagged `SUPERSEDED`. The flag is set before the
//!   replacing CAS, so such a node was never installed and no other
//!   thread knows of it.
//!
//! Buckets grow **crash-atomically** by whole levels: level `k` holds
//! `buckets0 · 2ᵏ` head words, level bases are derivable from the layout
//! and `k` alone, and [`grow`](DetectableMap::grow) first materializes the
//! new level's segments ([`Memory::reserve`]; fresh words read 0 = empty
//! chains) and then publishes the new level count with a single persisted
//! word store. A crash before the publish leaves the old table; after it,
//! the new level of empty chains — never a torn table.
//!
//! Like the register and CAS object, the map recovers *independently*
//! (§3.3): no recovery phase exists — [`resolve`](DetectableMap::resolve)
//! answers from persisted state alone.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use dss_pmem::{
    tag, AppKind, AttachError, Backoff, CachePadded, FlushGranularity, Memory, NodePool, PAddr,
    PmemPool, Registry, SlotError, ThreadHandle, WORDS_PER_LINE,
};
use dss_spec::types::{KvOp, KvResp};

use crate::detect::DetectableCore;

// Entry-node layout (4 words; nodes never straddle lines because the node
// region is NODE_WORDS-aligned and NODE_WORDS divides WORDS_PER_LINE).
const E_KEY: u64 = 0;
const E_VPTR: u64 = 1;
const E_NEXT: u64 = 2;

// Value-node layout (same pool, same width).
const V_KEY: u64 = 0;
const V_VALUE: u64 = 1;
const V_SEQ: u64 = 2;
const V_FLAGS: u64 = 3;
const NODE_WORDS: u64 = 4;

/// `flags` bit: a later write replaced this node as its key's binding.
const FLAG_SUPERSEDED: u64 = 1;
/// `flags` bit: this node is a remove — the binding reads as absent.
const FLAG_TOMBSTONE: u64 = 2;

// Map-local X tags (bit positions shared with the queue's enqueue tags;
// the objects never share an X word, so reuse is safe).
const M_PREP: u64 = tag::ENQ_PREP;
const M_COMPL: u64 = tag::ENQ_COMPL;

// Fixed layout head: [0:NULL][directory line][n X lines][level-0 buckets]
// [node region][registry][extension levels...].
const A_NLEVELS: u64 = WORDS_PER_LINE;
const A_X_BASE: u64 = 2 * WORDS_PER_LINE;

/// Hard cap on bucket levels: level `MAX_LEVELS - 1` already holds
/// `2^(MAX_LEVELS-1)` times the initial bucket count.
pub const MAX_LEVELS: u64 = 8;

/// Structure-kind word a file-backed map records in its pool superblock.
pub const KIND_DETECTABLE_MAP: u64 = AppKind::DetectableMap.word();

/// The map's pool layout, derived from `(nthreads, nodes_per_thread,
/// buckets0)` alone. Extension levels live past the registry so the
/// initial pool stays compact and growth exercises the segment machinery.
struct MapLayout {
    buckets_base: u64,
    region: u64,
    reg_base: u64,
    /// First word past the registry (line-aligned): base of level 1.
    ext_base: u64,
    /// Initial pool size — the layout through the registry.
    words: u64,
}

impl MapLayout {
    fn new(nthreads: usize, nodes_per_thread: u64, buckets0: u64) -> Self {
        assert!(nthreads > 0 && nodes_per_thread > 0);
        assert!(buckets0.is_power_of_two(), "bucket count must be a power of two");
        let x_end = A_X_BASE + nthreads as u64 * WORDS_PER_LINE;
        let buckets_base = x_end.next_multiple_of(WORDS_PER_LINE);
        let region = (buckets_base + buckets0).next_multiple_of(NODE_WORDS);
        // Two nodes per op slot: a put of a fresh key consumes an entry
        // node and a value node.
        let node_end = region + 2 * nodes_per_thread * nthreads as u64 * NODE_WORDS;
        let reg_base = node_end.next_multiple_of(WORDS_PER_LINE);
        let words = reg_base + Registry::<PmemPool>::region_words(nthreads);
        let ext_base = words.next_multiple_of(WORDS_PER_LINE);
        MapLayout { buckets_base, region, reg_base, ext_base, words }
    }
}

/// The outcome reported by [`DetectableMap::resolve`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ResolvedMap {
    /// The prepared operation as `(key, op, seq)` — `op` is `Put(v)` or
    /// `Remove`, `seq` the application's §2.1 disambiguation tag — if one
    /// was ever prepared.
    pub op: Option<(u64, KvOp, u64)>,
    /// `Some(Ok)` if the operation took effect.
    pub resp: Option<KvResp>,
}

/// A detectable recoverable hash map (`D⟨map⟩`), keyed by `u64` with `u64`
/// values.
///
/// Detectable writes go through [`prep_put`](Self::prep_put) /
/// [`exec_put`](Self::exec_put) and [`prep_remove`](Self::prep_remove) /
/// [`exec_remove`](Self::exec_remove); plain [`put`](Self::put),
/// [`remove`](Self::remove), and [`get`](Self::get) are the
/// non-detectable operations (Axiom 4). After a crash no recovery phase is
/// needed: [`resolve`](Self::resolve) inspects persisted state only.
///
/// # Examples
///
/// ```
/// use dss_core::DetectableMap;
/// use dss_spec::types::{KvOp, KvResp};
///
/// let m = DetectableMap::new(2, 16, 8);
/// let h0 = m.register_thread().unwrap();
/// let h1 = m.register_thread().unwrap();
/// m.prep_put(h0, 7, 42, 0);
/// assert_eq!(m.exec_put(h0), KvResp::Ok);
/// assert_eq!(m.get(h1, 7), KvResp::Value(42));
/// let r = m.resolve(h0);
/// assert_eq!(r.op, Some((7, KvOp::Put(42), 0)));
/// assert_eq!(r.resp, Some(KvResp::Ok));
/// ```
pub struct DetectableMap<M: Memory = PmemPool> {
    /// The shared detectability skeleton: pool, registry, EBR, backoff,
    /// and the per-thread `X` words (see [`DetectableCore`]).
    core: DetectableCore<M>,
    nodes: NodePool,
    buckets_base: u64,
    ext_base: u64,
    buckets0: u64,
    /// Per-slot superseded value nodes that slot's `X` still named when
    /// they were replaced (see the module docs). Slot `t` retires them
    /// once `X[t]` moves on, so `resolve` can always dereference `X`
    /// safely. Never holds a current binding: at most a couple of nodes.
    /// Padded, since every prep locks its own slot's list.
    held: Box<[CachePadded<std::sync::Mutex<Vec<PAddr>>>]>,
}

impl DetectableMap {
    /// Creates a map for `nthreads` threads with `nodes_per_thread`
    /// pre-allocated op slots each and `buckets0` level-0 buckets, on a
    /// fresh line-granular [`PmemPool`].
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero, or `buckets0`
    /// is not a power of two.
    pub fn new(nthreads: usize, nodes_per_thread: u64, buckets0: u64) -> Self {
        Self::new_in(nthreads, nodes_per_thread, buckets0, FlushGranularity::Line)
    }

    /// Creates a map on a **file-backed** pool at `path` (line-granular),
    /// recording [`KIND_DETECTABLE_MAP`] and the construction parameters
    /// in the superblock so [`attach`](Self::attach) needs only the path.
    ///
    /// # Errors
    ///
    /// [`AttachError::Io`] if the pool file cannot be created.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero, or `buckets0`
    /// is not a power of two.
    pub fn create<P: AsRef<std::path::Path>>(
        path: P,
        nthreads: usize,
        nodes_per_thread: u64,
        buckets0: u64,
    ) -> Result<Self, AttachError> {
        Self::create_with(path, nthreads, nodes_per_thread, buckets0, FlushGranularity::Line)
    }

    /// [`create`](Self::create) with an explicit flush granularity (the
    /// E7 ablation knob; attach reads the granularity back from the
    /// superblock).
    ///
    /// # Errors
    ///
    /// [`AttachError::Io`] if the pool file cannot be created.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero, or `buckets0`
    /// is not a power of two.
    pub fn create_with<P: AsRef<std::path::Path>>(
        path: P,
        nthreads: usize,
        nodes_per_thread: u64,
        buckets0: u64,
        granularity: FlushGranularity,
    ) -> Result<Self, AttachError> {
        let layout = MapLayout::new(nthreads, nodes_per_thread, buckets0);
        let pool = Arc::new(PmemPool::create(path, layout.words as usize, granularity)?);
        pool.set_app_config(KIND_DETECTABLE_MAP, &[nthreads as u64, nodes_per_thread, buckets0]);
        let registry = Registry::create(Arc::clone(&pool), layout.reg_base, nthreads);
        let m = Self::assemble(pool, registry, &layout, nthreads, nodes_per_thread, buckets0);
        m.format();
        Ok(m)
    }

    /// Rebuilds a map from a pool file with no in-process state. The map
    /// recovers independently (no recovery phase): after
    /// [`begin_recovery`](Self::begin_recovery) +
    /// [`adopt_orphans`](Self::adopt_orphans), [`resolve`](Self::resolve)
    /// answers from persisted state alone.
    ///
    /// # Errors
    ///
    /// Any [`AttachError`], including [`AttachError::AppMismatch`] if the
    /// file holds a different structure.
    pub fn attach<P: AsRef<std::path::Path>>(path: P) -> Result<Self, AttachError> {
        let pool = Arc::new(PmemPool::attach(path)?);
        let found = pool.app_kind();
        if found != KIND_DETECTABLE_MAP {
            return Err(AttachError::AppMismatch { expected: KIND_DETECTABLE_MAP, found });
        }
        let [nthreads, nodes_per_thread, buckets0, ..] = pool.app_config();
        if nthreads == 0 || nodes_per_thread == 0 {
            return Err(AttachError::Corrupt("map parameter words are zero"));
        }
        if !buckets0.is_power_of_two() {
            return Err(AttachError::Corrupt("map bucket count is not a power of two"));
        }
        let nthreads = nthreads as usize;
        let layout = MapLayout::new(nthreads, nodes_per_thread, buckets0);
        if (pool.capacity() as u64) < layout.words {
            return Err(AttachError::Corrupt("pool smaller than the map layout requires"));
        }
        let nlevels = pool.peek(PAddr::from_index(A_NLEVELS));
        if nlevels == 0 || nlevels > MAX_LEVELS {
            return Err(AttachError::Corrupt("map level count out of range"));
        }
        let registry = Registry::attach(Arc::clone(&pool), layout.reg_base)?;
        let m = Self::assemble(pool, registry, &layout, nthreads, nodes_per_thread, buckets0);
        m.rebuild_allocator();
        Ok(m)
    }
}

impl<M: Memory> DetectableMap<M> {
    /// Creates a map on a freshly created backend of type `M`
    /// ([`Memory::create`]) — the backend-generic constructor behind
    /// [`new`](DetectableMap::new).
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero, or `buckets0`
    /// is not a power of two.
    pub fn new_in(
        nthreads: usize,
        nodes_per_thread: u64,
        buckets0: u64,
        granularity: FlushGranularity,
    ) -> Self {
        let layout = MapLayout::new(nthreads, nodes_per_thread, buckets0);
        let pool = Arc::new(M::create(layout.words as usize, granularity));
        let registry = Registry::create(Arc::clone(&pool), layout.reg_base, nthreads);
        let m = Self::assemble(pool, registry, &layout, nthreads, nodes_per_thread, buckets0);
        m.format();
        m
    }

    /// The shared constructor tail: in-DRAM side tables over an existing
    /// pool + registry — everything `attach` must rebuild rather than map.
    fn assemble(
        pool: Arc<M>,
        registry: Registry<M>,
        layout: &MapLayout,
        nthreads: usize,
        nodes_per_thread: u64,
        buckets0: u64,
    ) -> Self {
        let nodes = NodePool::new(
            PAddr::from_index(layout.region),
            NODE_WORDS,
            2 * nodes_per_thread,
            nthreads,
        );
        DetectableMap {
            core: DetectableCore::new(pool, registry, nthreads, A_X_BASE, WORDS_PER_LINE),
            nodes,
            buckets_base: layout.buckets_base,
            ext_base: layout.ext_base,
            buckets0,
            held: (0..nthreads).map(|_| CachePadded(std::sync::Mutex::new(Vec::new()))).collect(),
        }
    }

    /// Writes and persists the initial map state (fresh pools only —
    /// never run on attach). Bucket heads rely on fresh words reading 0
    /// (= empty chain), the same invariant `grow` relies on.
    fn format(&self) {
        self.core.pool.store(PAddr::from_index(A_NLEVELS), 1);
        self.core.pool.flush(PAddr::from_index(A_NLEVELS));
        self.core.format_x();
        self.core.pool.drain();
    }

    /// Enables or disables bounded exponential backoff after failed
    /// install CAS. Default off.
    pub fn set_backoff(&self, on: bool) {
        self.core.set_backoff(on);
    }

    /// Whether contention management is enabled.
    pub fn backoff_enabled(&self) -> bool {
        self.core.backoff_enabled()
    }

    fn new_backoff(&self) -> Backoff<'_> {
        self.core.new_backoff()
    }

    // Handle validity is the core's concern; see DetectableCore::x_addr.
    fn x_addr(&self, slot: usize) -> PAddr {
        self.core.x_addr(slot)
    }

    /// The map's persistent-memory pool.
    pub fn pool(&self) -> &Arc<M> {
        self.core.pool()
    }

    /// Number of threads the map was built for.
    pub fn nthreads(&self) -> usize {
        self.core.nthreads()
    }

    /// The map's persistent thread-slot registry.
    pub fn registry(&self) -> &Registry<M> {
        self.core.registry()
    }

    /// Claims a free registry slot; see
    /// [`DssQueue::register_thread`](crate::DssQueue::register_thread).
    ///
    /// # Errors
    ///
    /// [`SlotError::Exhausted`] when all slots are taken.
    pub fn register_thread(&self) -> Result<ThreadHandle, SlotError> {
        self.core.register_thread()
    }

    /// Returns a handle's slot to the registry.
    ///
    /// # Errors
    ///
    /// [`SlotError::StaleHandle`] / [`SlotError::ForeignHandle`] per
    /// [`Registry::release`].
    pub fn release_thread(&self, h: ThreadHandle) -> Result<(), SlotError> {
        self.core.release_thread(h)
    }

    /// Marks the crash boundary in the registry (idempotent per crash).
    /// The map needs no recovery phase — [`resolve`](Self::resolve) reads
    /// persisted state only — so this exists purely to make dead threads'
    /// slots adoptable.
    pub fn begin_recovery(&self) {
        self.core.begin_recovery();
    }

    /// Adopts one orphaned slot (fresh lease, EBR state inherited).
    ///
    /// # Errors
    ///
    /// [`SlotError::OutOfRange`] / [`SlotError::NotOrphaned`] per
    /// [`Registry::adopt`].
    pub fn adopt(&self, slot: usize) -> Result<ThreadHandle, SlotError> {
        self.core.adopt(slot)
    }

    /// [`adopt`](Self::adopt) over every orphaned slot, ascending.
    pub fn adopt_orphans(&self) -> Vec<ThreadHandle> {
        self.core.adopt_orphans()
    }

    // --- bucket-level geometry ------------------------------------------

    /// The number of published bucket levels (persisted).
    pub fn nlevels(&self) -> u64 {
        self.core.pool.peek(PAddr::from_index(A_NLEVELS))
    }

    fn level_buckets(&self, k: u64) -> u64 {
        self.buckets0 << k
    }

    /// Level bases are derivable from the layout and `k` alone — the
    /// growth invariant that lets `attach` find every level without a
    /// persisted directory beyond the level count.
    fn level_base(&self, k: u64) -> u64 {
        if k == 0 {
            self.buckets_base
        } else {
            // Levels 1..k-1 occupy buckets0·(2¹+…+2^(k-1)) words.
            self.ext_base + self.buckets0 * ((1 << k) - 2)
        }
    }

    /// First word past level `n - 1`: the reserve target for `n` levels.
    fn levels_end(&self, n: u64) -> u64 {
        self.level_base(n - 1) + self.level_buckets(n - 1)
    }

    fn bucket_addr(&self, k: u64, key: u64) -> PAddr {
        let mut h = key ^ (key >> 33);
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        PAddr::from_index(self.level_base(k) + (h & (self.level_buckets(k) - 1)))
    }

    /// Adds one bucket level, crash-atomically: materializes the new
    /// level's segments first ([`Memory::reserve`]; fresh words read 0 =
    /// empty chains), then publishes the new level count with a single
    /// persisted word store. An administrative, quiescent operation — run
    /// it while no other thread operates on the map. Returns the new
    /// level count.
    ///
    /// # Panics
    ///
    /// Panics at [`MAX_LEVELS`].
    pub fn grow(&self) -> u64 {
        let n = self.nlevels();
        assert!(n < MAX_LEVELS, "map already at MAX_LEVELS ({MAX_LEVELS}) bucket levels");
        let new = n + 1;
        // Segments first: a crash between reserve and publish leaves the
        // old table (the count still reads n).
        self.core.pool.reserve(self.levels_end(new) as usize);
        self.core.pool.store(PAddr::from_index(A_NLEVELS), new);
        self.core.pool.flush(PAddr::from_index(A_NLEVELS));
        self.core.pool.drain_line(PAddr::from_index(A_NLEVELS));
        new
    }

    // --- chain walks ----------------------------------------------------

    /// The entry node bound to `key`, if the key ever appeared; otherwise
    /// the newest level's bucket head word the walk read, which a fresh
    /// entry may only be prepended against (see
    /// [`link_entry`](Self::link_entry)). Entries are unique per key across
    /// levels: an insert checks every level before creating one.
    fn find_entry(&self, key: u64) -> Result<PAddr, u64> {
        let n = self.nlevels();
        let mut head = 0;
        for k in 0..n {
            head = self.core.pool.load(self.bucket_addr(k, key));
            let mut e = tag::addr_of(head);
            while !e.is_null() {
                if self.core.pool.load(e.offset(E_KEY)) == key {
                    return Ok(e);
                }
                e = tag::addr_of(self.core.pool.load(e.offset(E_NEXT)));
            }
        }
        Err(head)
    }

    /// Prepends a fresh entry for `key`, seeded with `vn`, to the newest
    /// level's bucket chain — but only over `walked_head`, the head word
    /// the caller's [`find_entry`](Self::find_entry) walk proved free of
    /// `key`. A head that moved since may hold a racing prepend of the
    /// same key, so the entry is freed and `false` returned for the caller
    /// to re-walk. Entries are immortal, so a head word never repeats and
    /// an unchanged head proves the chain unchanged (no ABA).
    ///
    /// The entry must be fully persistent before its link can take effect
    /// — a chain must never pass through an unwritten node. A detectable
    /// install passes its announce word as `announce`, which must be
    /// persistent by then too. On `true` the link is flushed; the caller
    /// orders it.
    fn link_entry(
        &self,
        tid: usize,
        key: u64,
        vn: PAddr,
        walked_head: u64,
        announce: Option<PAddr>,
    ) -> bool {
        let level = self.nlevels() - 1;
        let ba = self.bucket_addr(level, key);
        let en = self.alloc(tid);
        self.core.pool.store(en.offset(E_KEY), key);
        self.core.pool.store(en.offset(E_VPTR), vn.to_word());
        let head_w = self.core.pool.load(ba);
        if head_w == walked_head {
            self.core.pool.store(en.offset(E_NEXT), head_w);
            let fields = [en.offset(E_KEY), en.offset(E_VPTR), en.offset(E_NEXT)];
            match announce {
                // Every field word (they are separate units under
                // word-granular flushing), ordered together with the
                // announce.
                Some(xa) => {
                    for f in fields {
                        self.core.pool.flush(f);
                    }
                    self.core.pool.drain_lines(&[fields[0], fields[1], fields[2], xa]);
                }
                None => self.core.pool.persist_batch(&fields),
            }
            if self.core.pool.cas(ba, head_w, en.to_word()).is_ok() {
                self.core.pool.flush(ba);
                return true;
            }
        }
        // Lost the race (possibly to this very key's first writer): the
        // entry was never exposed, so free it directly.
        self.nodes.free(tid, en);
        false
    }

    /// Uninstrumented twin of [`find_entry`](Self::find_entry) for
    /// retirement checks, so they don't perturb counted experiments.
    fn find_entry_peek(&self, key: u64) -> Option<PAddr> {
        let n = self.nlevels();
        for k in 0..n {
            let mut e = tag::addr_of(self.core.pool.peek(self.bucket_addr(k, key)));
            while !e.is_null() {
                if self.core.pool.peek(e.offset(E_KEY)) == key {
                    return Some(e);
                }
                e = tag::addr_of(self.core.pool.peek(e.offset(E_NEXT)));
            }
        }
        None
    }

    // --- allocation and reclamation -------------------------------------

    fn alloc(&self, tid: usize) -> PAddr {
        self.nodes
            .alloc_with_reclaim(tid, &self.core.ebr)
            .unwrap_or_else(|| panic!("map node pool exhausted (size it for the workload)"))
    }

    fn held(&self, slot: usize) -> std::sync::MutexGuard<'_, Vec<PAddr>> {
        self.held[slot].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The superseder's half of retirement: `old` was just replaced by the
    /// caller's install CAS. Retire it, or park it with the slot whose `X`
    /// still names it. Only that slot's next prep moves `X` off `old`, and
    /// `old` cannot reappear in any `X` before it is retired.
    fn release_superseded(&self, tid: usize, old: PAddr) {
        let named_by = (0..self.core.nthreads)
            .find(|&t| tag::addr_of(self.core.pool.peek(self.x_addr(t))) == old);
        match named_by {
            Some(t) => self.held(t).push(old),
            None => self.core.ebr.retire(tid, old),
        }
    }

    /// Retires the nodes parked with slot `tid` that `X[tid]` no longer
    /// names; called at the top of every prep and plain write.
    fn release_held(&self, tid: usize) {
        let x = tag::addr_of(self.core.pool.peek(self.x_addr(tid)));
        self.held(tid).retain(|&p| {
            if p != x {
                self.core.ebr.retire(tid, p);
            }
            p == x
        });
    }

    /// The owner's half of retirement: `X[tid]` has just moved off `old`.
    /// If `old` is neither its key's current binding nor flagged
    /// `SUPERSEDED`, it was never installed — the flag is set before the
    /// replacing CAS, and is read here after the binding — so no
    /// superseder will retire it.
    fn release_uninstalled(&self, tid: usize, old: PAddr) {
        let key = self.core.pool.peek(old.offset(V_KEY));
        let current = self
            .find_entry_peek(key)
            .is_some_and(|en| self.core.pool.peek(en.offset(E_VPTR)) == old.to_word());
        if !current && self.core.pool.peek(old.offset(V_FLAGS)) & FLAG_SUPERSEDED == 0 {
            self.core.ebr.retire(tid, old);
        }
    }

    /// Allocates and persists a value node; the announce (or plain
    /// install) must not persist ahead of it.
    fn init_value_node(&self, tid: usize, key: u64, value: u64, seq: u64, flags: u64) -> PAddr {
        let node = self.alloc(tid);
        self.core.pool.store(node.offset(V_KEY), key);
        self.core.pool.store(node.offset(V_VALUE), value);
        self.core.pool.store(node.offset(V_SEQ), seq);
        self.core.pool.store(node.offset(V_FLAGS), flags);
        // Every field word, not just the node base: under word-granular
        // flushing the fields are separate flush units.
        self.core.pool.persist_batch(&[
            node.offset(V_KEY),
            node.offset(V_VALUE),
            node.offset(V_SEQ),
            node.offset(V_FLAGS),
        ]);
        node
    }

    // --- detectable operations ------------------------------------------

    /// **prep-put(key, val, seq)**: allocates and persists a value node,
    /// then announces it in `X[tid]`. `seq` is the application's §2.1
    /// disambiguation tag.
    ///
    /// # Panics
    ///
    /// Panics if the node pool is exhausted.
    pub fn prep_put(&self, h: ThreadHandle, key: u64, val: u64, seq: u64) {
        self.prep_write(h, key, val, seq, 0);
    }

    /// **prep-remove(key, seq)**: like a put, announcing a `TOMBSTONE`
    /// value node — the binding that reads as absent.
    ///
    /// # Panics
    ///
    /// Panics if the node pool is exhausted.
    pub fn prep_remove(&self, h: ThreadHandle, key: u64, seq: u64) {
        self.prep_write(h, key, 0, seq, FLAG_TOMBSTONE);
    }

    fn prep_write(&self, h: ThreadHandle, key: u64, val: u64, seq: u64, flags: u64) {
        let tid = h.slot();
        self.release_held(tid);
        let old = tag::addr_of(self.core.pool.load(self.x_addr(tid)));
        let node = self.init_value_node(tid, key, val, pack(tid, seq), flags);
        // Pinned after the allocation, which a pin would hold back, and
        // before the announce: once X[tid] stops naming `old`, a superseder
        // may retire it, and it must not be recycled before the check
        // below has read it.
        let _g = self.core.pin(tid);
        // Announce + the durable-before-return drain (DetectableCore).
        self.core.announce(tid, tag::set(node.to_word(), M_PREP));
        if !old.is_null() {
            self.release_uninstalled(tid, old);
        }
    }

    /// **exec-put()**: installs the prepared value node as its key's
    /// binding — into the key's existing entry (marking the incumbent
    /// superseded, persisted, first) or via a fresh entry prepended to a
    /// bucket chain.
    ///
    /// # Panics
    ///
    /// Panics if no put is prepared for `tid` (or it already executed —
    /// Axiom 2's precondition `R[pᵢ] = ⊥`).
    pub fn exec_put(&self, h: ThreadHandle) -> KvResp {
        let tid = h.slot();
        let _g = self.core.pin(tid);
        let xa = self.x_addr(tid);
        let x = self.core.pool.load(xa);
        assert!(
            tag::has(x, M_PREP) && !tag::has(x, M_COMPL),
            "exec-put without a pending prepared operation (X[{tid}] = {x:#x})"
        );
        let vn = tag::addr_of(x);
        assert!(
            self.core.pool.load(vn.offset(V_FLAGS)) & FLAG_TOMBSTONE == 0,
            "exec-put after prep-remove (use exec_remove)"
        );
        self.install(tid, x, vn, true);
        KvResp::Ok
    }

    /// **exec-remove()**: installs the prepared tombstone into the key's
    /// entry; a remove of an absent key takes effect trivially (the map is
    /// total) and is marked complete without touching any chain.
    ///
    /// # Panics
    ///
    /// Panics if no remove is prepared for `tid` (or it already executed).
    pub fn exec_remove(&self, h: ThreadHandle) -> KvResp {
        let tid = h.slot();
        let _g = self.core.pin(tid);
        let xa = self.x_addr(tid);
        let x = self.core.pool.load(xa);
        assert!(
            tag::has(x, M_PREP) && !tag::has(x, M_COMPL),
            "exec-remove without a pending prepared operation (X[{tid}] = {x:#x})"
        );
        let vn = tag::addr_of(x);
        assert!(
            self.core.pool.load(vn.offset(V_FLAGS)) & FLAG_TOMBSTONE != 0,
            "exec-remove after prep-put (use exec_put)"
        );
        self.install(tid, x, vn, false);
        KvResp::Ok
    }

    /// The shared install machine: binds the announced value node `vn` to
    /// its key. `create_entry` distinguishes put (a fresh key gains an
    /// entry) from remove (an absent key needs no chain surgery — the
    /// remove takes effect trivially).
    fn install(&self, tid: usize, x: u64, vn: PAddr, create_entry: bool) {
        let xa = self.x_addr(tid);
        let key = self.core.pool.load(vn.offset(V_KEY));
        let mut bo = self.new_backoff();
        loop {
            match self.find_entry(key) {
                Ok(en) => {
                    let eva = en.offset(E_VPTR);
                    let old_w = self.core.pool.load(eva);
                    let old = tag::addr_of(old_w);
                    // Mark the incumbent superseded *before* replacing it:
                    // its owner must be able to prove installation even
                    // after we win. (Preserve its TOMBSTONE bit.)
                    let fl = self.core.pool.load(old.offset(V_FLAGS));
                    self.core.pool.store(old.offset(V_FLAGS), fl | FLAG_SUPERSEDED);
                    self.core.pool.flush(old.offset(V_FLAGS));
                    // The announce and the incumbent's superseded mark
                    // must be persistent before the install can take
                    // effect — resolve proves installation through either.
                    self.core.pool.drain_lines(&[old.offset(V_FLAGS), xa]);
                    if self.core.pool.cas(eva, old_w, vn.to_word()).is_ok() {
                        self.core.pool.flush(eva);
                        // Ordering point: the completion mark must not
                        // persist ahead of the install it certifies.
                        self.core.pool.drain_line(eva);
                        self.core.complete(tid, tag::set(x, M_COMPL));
                        self.core.pool.drain();
                        self.release_superseded(tid, old);
                        return;
                    }
                }
                Err(_) if !create_entry => {
                    // Removing an absent key: effect is trivial, nothing
                    // to persist but the completion mark.
                    self.core.complete(tid, tag::set(x, M_COMPL));
                    self.core.pool.drain();
                    return;
                }
                Err(head) => {
                    // First write to this key: prepend an entry seeded
                    // with vn.
                    if self.link_entry(tid, key, vn, head, Some(xa)) {
                        // Ordering point: completion behind the prepend.
                        let ba = self.bucket_addr(self.nlevels() - 1, key);
                        self.core.pool.drain_line(ba);
                        self.core.complete(tid, tag::set(x, M_COMPL));
                        self.core.pool.drain();
                        return;
                    }
                }
            }
            bo.spin();
        }
    }

    // --- plain operations (Axiom 4) -------------------------------------

    /// Non-detectable **put(key, val)**: the same install machine with
    /// every access to `X` omitted.
    ///
    /// # Panics
    ///
    /// Panics if the node pool is exhausted.
    pub fn put(&self, h: ThreadHandle, key: u64, val: u64) -> KvResp {
        self.plain_write(h, key, val, 0)
    }

    /// Non-detectable **remove(key)** (Axiom 4).
    ///
    /// # Panics
    ///
    /// Panics if the node pool is exhausted.
    pub fn remove(&self, h: ThreadHandle, key: u64) -> KvResp {
        self.plain_write(h, key, 0, FLAG_TOMBSTONE)
    }

    fn plain_write(&self, h: ThreadHandle, key: u64, val: u64, flags: u64) -> KvResp {
        let tid = h.slot();
        self.release_held(tid);
        let vn = self.init_value_node(tid, key, val, u64::MAX, flags);
        // Pinned after the allocation, which a pin would hold back.
        let _g = self.core.pin(tid);
        let mut bo = self.new_backoff();
        loop {
            match self.find_entry(key) {
                Ok(en) => {
                    let eva = en.offset(E_VPTR);
                    let old_w = self.core.pool.load(eva);
                    let old = tag::addr_of(old_w);
                    let fl = self.core.pool.load(old.offset(V_FLAGS));
                    self.core.pool.store(old.offset(V_FLAGS), fl | FLAG_SUPERSEDED);
                    self.core.pool.flush(old.offset(V_FLAGS));
                    self.core.pool.drain_line(old.offset(V_FLAGS));
                    if self.core.pool.cas(eva, old_w, vn.to_word()).is_ok() {
                        self.core.pool.flush(eva);
                        self.core.pool.drain();
                        self.release_superseded(tid, old);
                        return KvResp::Ok;
                    }
                }
                Err(_) if flags & FLAG_TOMBSTONE != 0 => {
                    // Removing an absent key: trivial effect; the node was
                    // never exposed.
                    self.nodes.free(tid, vn);
                    return KvResp::Ok;
                }
                Err(head) => {
                    if self.link_entry(tid, key, vn, head, None) {
                        self.core.pool.drain();
                        return KvResp::Ok;
                    }
                }
            }
            bo.spin();
        }
    }

    /// **get(key)** (plain): the key's current value, or `Absent`.
    pub fn get(&self, h: ThreadHandle, key: u64) -> KvResp {
        let _g = self.core.pin(h.slot());
        match self.find_entry(key) {
            Err(_) => KvResp::Absent,
            Ok(en) => {
                let vn = tag::addr_of(self.core.pool.load(en.offset(E_VPTR)));
                if self.core.pool.load(vn.offset(V_FLAGS)) & FLAG_TOMBSTONE != 0 {
                    KvResp::Absent
                } else {
                    KvResp::Value(self.core.pool.load(vn.offset(V_VALUE)))
                }
            }
        }
    }

    /// **resolve()**: reports the most recently prepared operation and
    /// whether it took effect. Needs no prior recovery phase; callable
    /// any time, idempotent.
    ///
    /// The effect proof mirrors the register's: the completion mark, the
    /// node's persisted `SUPERSEDED` flag, or the node being its key's
    /// current binding each individually prove installation. A remove of
    /// an absent key leaves only the completion mark — a crash before it
    /// reports the remove unresolved, and re-executing is idempotent.
    pub fn resolve(&self, h: ThreadHandle) -> ResolvedMap {
        let x = self.core.pool.load(self.x_addr(h.slot()));
        if !tag::has(x, M_PREP) {
            return ResolvedMap { op: None, resp: None };
        }
        let vn = tag::addr_of(x);
        let key = self.core.pool.load(vn.offset(V_KEY));
        let seq = self.core.pool.load(vn.offset(V_SEQ)) & tag::ADDR_MASK;
        let flags = self.core.pool.load(vn.offset(V_FLAGS));
        let op = if flags & FLAG_TOMBSTONE != 0 {
            KvOp::Remove
        } else {
            KvOp::Put(self.core.pool.load(vn.offset(V_VALUE)))
        };
        let effective = tag::has(x, M_COMPL)
            || flags & FLAG_SUPERSEDED != 0
            || self
                .find_entry(key)
                .is_ok_and(|en| self.core.pool.load(en.offset(E_VPTR)) == vn.to_word());
        ResolvedMap {
            op: Some((key, op, seq)),
            resp: if effective { Some(KvResp::Ok) } else { None },
        }
    }

    // --- post-crash repair ----------------------------------------------

    /// Rebuilds the volatile allocator after a crash: every reachable
    /// entry node, every entry's current value node, and every
    /// `X`-referenced node stay allocated. An `X` node that was installed
    /// and superseded is parked with its slot again — its superseder's
    /// obligation to retire it did not survive the crash.
    pub fn rebuild_allocator(&self) {
        let mut live = self.nodes.node_set();
        let n = self.nlevels();
        for k in 0..n {
            for b in 0..self.level_buckets(k) {
                let head = PAddr::from_index(self.level_base(k) + b);
                let mut e = tag::addr_of(self.core.pool.peek(head));
                while !e.is_null() {
                    live.insert(e);
                    let v = tag::addr_of(self.core.pool.peek(e.offset(E_VPTR)));
                    if !v.is_null() {
                        live.insert(v);
                    }
                    e = tag::addr_of(self.core.pool.peek(e.offset(E_NEXT)));
                }
            }
        }
        for i in 0..self.core.nthreads {
            let d = tag::addr_of(self.core.pool.peek(self.x_addr(i)));
            let mut held = self.held(i);
            held.clear();
            if !d.is_null()
                && live.insert(d)
                && self.core.pool.peek(d.offset(V_FLAGS)) & FLAG_SUPERSEDED != 0
            {
                held.push(d);
            }
        }
        self.nodes.rebuild(&live);
        self.core.ebr.reset();
    }

    /// The map's current contents (uninstrumented), for conservation
    /// checks and debugging.
    pub fn snapshot(&self) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        let n = self.nlevels();
        for k in 0..n {
            for b in 0..self.level_buckets(k) {
                let head = PAddr::from_index(self.level_base(k) + b);
                let mut e = tag::addr_of(self.core.pool.peek(head));
                while !e.is_null() {
                    let vn = tag::addr_of(self.core.pool.peek(e.offset(E_VPTR)));
                    if !vn.is_null()
                        && self.core.pool.peek(vn.offset(V_FLAGS)) & FLAG_TOMBSTONE == 0
                    {
                        out.insert(
                            self.core.pool.peek(e.offset(E_KEY)),
                            self.core.pool.peek(vn.offset(V_VALUE)),
                        );
                    }
                    e = tag::addr_of(self.core.pool.peek(e.offset(E_NEXT)));
                }
            }
        }
        out
    }
}

fn pack(pid: usize, seq: u64) -> u64 {
    ((pid as u64) << 48) | (seq & tag::ADDR_MASK)
}

impl<M: Memory> fmt::Debug for DetectableMap<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetectableMap")
            .field("nthreads", &self.core.nthreads)
            .field("buckets0", &self.buckets0)
            .field("nlevels", &self.nlevels())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_pmem::WritebackAdversary;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    fn run_crash_at<F: FnOnce()>(m: &DetectableMap, k: u64, f: F) -> bool {
        m.pool().arm_crash_after(k);
        let res = catch_unwind(AssertUnwindSafe(f));
        m.pool().disarm_crash();
        match res {
            Ok(()) => false,
            Err(p) if p.downcast_ref::<dss_pmem::CrashSignal>().is_some() => true,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    #[test]
    fn put_get_remove_basic() {
        let m = DetectableMap::new(2, 16, 8);
        let h0 = m.register_thread().unwrap();
        let h1 = m.register_thread().unwrap();
        assert_eq!(m.get(h0, 1), KvResp::Absent);
        assert_eq!(m.put(h0, 1, 10), KvResp::Ok);
        assert_eq!(m.get(h1, 1), KvResp::Value(10));
        assert_eq!(m.put(h1, 1, 11), KvResp::Ok);
        assert_eq!(m.get(h0, 1), KvResp::Value(11));
        assert_eq!(m.remove(h0, 1), KvResp::Ok);
        assert_eq!(m.get(h1, 1), KvResp::Absent);
        assert_eq!(m.remove(h1, 2), KvResp::Ok, "removing an absent key is legal");
    }

    #[test]
    fn a_prepend_over_a_stale_head_rewalks_instead_of_duplicating() {
        // The interleaving that used to duplicate an entry: h0 walks and
        // finds key 7 absent, h1 then inserts 7, and only then does h0's
        // prepend run — still holding the head word its walk read.
        let m = DetectableMap::new(2, 8, 4);
        let h0 = m.register_thread().unwrap();
        let h1 = m.register_thread().unwrap();
        let walked = m.find_entry(7).expect_err("key 7 is absent");
        assert_eq!(m.put(h1, 7, 70), KvResp::Ok);
        let vn = m.init_value_node(h0.slot(), 7, 71, u64::MAX, 0);
        assert!(!m.link_entry(h0.slot(), 7, vn, walked, None), "the stale head must be refused");
        let entries = (0..m.nlevels())
            .flat_map(|k| {
                let mut chain = Vec::new();
                let mut e = tag::addr_of(m.core.pool.peek(m.bucket_addr(k, 7)));
                while !e.is_null() {
                    chain.push(m.core.pool.peek(e.offset(E_KEY)));
                    e = tag::addr_of(m.core.pool.peek(e.offset(E_NEXT)));
                }
                chain
            })
            .filter(|&key| key == 7)
            .count();
        assert_eq!(entries, 1, "exactly one entry for key 7");
        assert_eq!(m.get(h0, 7), KvResp::Value(70));
    }

    #[test]
    fn many_keys_collide_and_chain() {
        // 4 buckets, 64 keys: every chain holds many keys.
        let m = DetectableMap::new(1, 128, 4);
        let h = m.register_thread().unwrap();
        for k in 0..64 {
            assert_eq!(m.put(h, k, k * 100), KvResp::Ok);
        }
        for k in 0..64 {
            assert_eq!(m.get(h, k), KvResp::Value(k * 100), "key {k}");
        }
        assert_eq!(m.snapshot().len(), 64);
    }

    #[test]
    fn detectable_put_resolves_ok() {
        let m = DetectableMap::new(1, 8, 8);
        let h = m.register_thread().unwrap();
        m.prep_put(h, 3, 30, 0);
        assert_eq!(m.resolve(h), ResolvedMap { op: Some((3, KvOp::Put(30), 0)), resp: None });
        assert_eq!(m.exec_put(h), KvResp::Ok);
        assert_eq!(
            m.resolve(h),
            ResolvedMap { op: Some((3, KvOp::Put(30), 0)), resp: Some(KvResp::Ok) }
        );
        assert_eq!(m.get(h, 3), KvResp::Value(30));
    }

    #[test]
    fn detectable_remove_resolves_ok() {
        let m = DetectableMap::new(1, 8, 8);
        let h = m.register_thread().unwrap();
        m.put(h, 5, 50);
        m.prep_remove(h, 5, 1);
        assert_eq!(m.resolve(h), ResolvedMap { op: Some((5, KvOp::Remove, 1)), resp: None });
        assert_eq!(m.exec_remove(h), KvResp::Ok);
        assert_eq!(
            m.resolve(h),
            ResolvedMap { op: Some((5, KvOp::Remove, 1)), resp: Some(KvResp::Ok) }
        );
        assert_eq!(m.get(h, 5), KvResp::Absent);
    }

    #[test]
    fn remove_absent_resolves_ok() {
        let m = DetectableMap::new(1, 8, 8);
        let h = m.register_thread().unwrap();
        m.prep_remove(h, 99, 7);
        assert_eq!(m.exec_remove(h), KvResp::Ok);
        assert_eq!(
            m.resolve(h),
            ResolvedMap { op: Some((99, KvOp::Remove, 7)), resp: Some(KvResp::Ok) }
        );
    }

    #[test]
    fn overwritten_put_still_resolves_ok() {
        // The superseded flag preserves provenance after an overwrite.
        let m = DetectableMap::new(2, 8, 8);
        let h0 = m.register_thread().unwrap();
        let h1 = m.register_thread().unwrap();
        m.prep_put(h0, 4, 40, 0);
        m.exec_put(h0);
        m.put(h1, 4, 41); // overwrites
        assert_eq!(m.get(h0, 4), KvResp::Value(41));
        assert_eq!(
            m.resolve(h0),
            ResolvedMap { op: Some((4, KvOp::Put(40), 0)), resp: Some(KvResp::Ok) }
        );
    }

    #[test]
    fn seq_tag_disambiguates_identical_puts() {
        let m = DetectableMap::new(1, 8, 8);
        let h = m.register_thread().unwrap();
        m.prep_put(h, 1, 5, 0);
        m.exec_put(h);
        m.prep_put(h, 1, 5, 1); // same key and value, new op
        assert_eq!(m.resolve(h), ResolvedMap { op: Some((1, KvOp::Put(5), 1)), resp: None });
    }

    #[test]
    #[should_panic(expected = "without a pending prepared")]
    fn double_exec_panics() {
        let m = DetectableMap::new(1, 8, 8);
        let h = m.register_thread().unwrap();
        m.prep_put(h, 1, 1, 0);
        m.exec_put(h);
        m.exec_put(h); // Axiom 2: R[pᵢ] ≠ ⊥
    }

    #[test]
    fn crash_sweep_put_fresh_key() {
        // prep-put(1, 10); exec-put() on an empty map, crashing at every
        // pmem-op index under three writeback adversaries: resolve must
        // agree with what a get observes.
        for adv in [
            WritebackAdversary::None,
            WritebackAdversary::All,
            WritebackAdversary::Random { seed: 5, prob: 0.5 },
        ] {
            for k in 1..80 {
                let m = DetectableMap::new(1, 8, 8);
                let h = m.register_thread().unwrap();
                let crashed = run_crash_at(&m, k, || {
                    m.prep_put(h, 1, 10, 9);
                    m.exec_put(h);
                });
                if !crashed {
                    break;
                }
                m.pool().crash(&adv);
                m.rebuild_allocator();
                let now = m.get(h, 1);
                match m.resolve(h) {
                    ResolvedMap { op: None, resp: None } => {
                        assert_eq!(now, KvResp::Absent, "k={k} {adv:?}")
                    }
                    ResolvedMap { op: Some((1, KvOp::Put(10), 9)), resp: Some(KvResp::Ok) } => {
                        assert_eq!(now, KvResp::Value(10), "k={k} {adv:?}: effect persisted")
                    }
                    ResolvedMap { op: Some((1, KvOp::Put(10), 9)), resp: None } => {
                        assert_eq!(now, KvResp::Absent, "k={k} {adv:?}: no effect")
                    }
                    other => panic!("k={k} {adv:?}: impossible resolution {other:?}"),
                }
            }
        }
    }

    #[test]
    fn crash_sweep_update_existing_key() {
        for adv in [WritebackAdversary::None, WritebackAdversary::All] {
            for k in 1..80 {
                let m = DetectableMap::new(1, 8, 8);
                let h = m.register_thread().unwrap();
                m.put(h, 2, 20);
                let crashed = run_crash_at(&m, k, || {
                    m.prep_put(h, 2, 21, 3);
                    m.exec_put(h);
                });
                if !crashed {
                    break;
                }
                m.pool().crash(&adv);
                m.rebuild_allocator();
                let now = m.get(h, 2);
                match m.resolve(h) {
                    ResolvedMap { op: None, resp: None } => {
                        assert_eq!(now, KvResp::Value(20), "k={k} {adv:?}")
                    }
                    ResolvedMap { op: Some((2, KvOp::Put(21), 3)), resp: Some(KvResp::Ok) } => {
                        assert_eq!(now, KvResp::Value(21), "k={k} {adv:?}")
                    }
                    ResolvedMap { op: Some((2, KvOp::Put(21), 3)), resp: None } => {
                        assert_eq!(now, KvResp::Value(20), "k={k} {adv:?}")
                    }
                    other => panic!("k={k} {adv:?}: impossible resolution {other:?}"),
                }
            }
        }
    }

    #[test]
    fn crash_sweep_remove() {
        for adv in [WritebackAdversary::None, WritebackAdversary::All] {
            for k in 1..80 {
                let m = DetectableMap::new(1, 8, 8);
                let h = m.register_thread().unwrap();
                m.put(h, 6, 60);
                let crashed = run_crash_at(&m, k, || {
                    m.prep_remove(h, 6, 4);
                    m.exec_remove(h);
                });
                if !crashed {
                    break;
                }
                m.pool().crash(&adv);
                m.rebuild_allocator();
                let now = m.get(h, 6);
                match m.resolve(h) {
                    ResolvedMap { op: None, resp: None } => {
                        assert_eq!(now, KvResp::Value(60), "k={k} {adv:?}")
                    }
                    ResolvedMap { op: Some((6, KvOp::Remove, 4)), resp: Some(KvResp::Ok) } => {
                        assert_eq!(now, KvResp::Absent, "k={k} {adv:?}")
                    }
                    ResolvedMap { op: Some((6, KvOp::Remove, 4)), resp: None } => {
                        assert_eq!(now, KvResp::Value(60), "k={k} {adv:?}")
                    }
                    other => panic!("k={k} {adv:?}: impossible resolution {other:?}"),
                }
            }
        }
    }

    #[test]
    fn grow_preserves_contents_and_spreads_new_keys() {
        let m = DetectableMap::new(1, 256, 4);
        let h = m.register_thread().unwrap();
        for k in 0..32 {
            m.put(h, k, k + 1000);
        }
        assert_eq!(m.nlevels(), 1);
        assert_eq!(m.grow(), 2);
        assert_eq!(m.grow(), 3);
        // Old keys still found (their entries live in level 0)...
        for k in 0..32 {
            assert_eq!(m.get(h, k), KvResp::Value(k + 1000), "old key {k}");
        }
        // ...new keys land in the newest level and updates find them.
        for k in 100..140 {
            m.put(h, k, k);
            assert_eq!(m.get(h, k), KvResp::Value(k));
        }
        m.put(h, 5, 7777); // update an old-level key after growth
        assert_eq!(m.get(h, 5), KvResp::Value(7777));
        assert_eq!(m.snapshot().len(), 32 + 40);
    }

    #[test]
    fn grow_is_crash_atomic() {
        // Crash at every pmem-op index inside grow(): afterwards the map
        // reads either the old or the new level count, never a torn
        // table, and the contents are intact either way.
        for k in 1..12 {
            let m = DetectableMap::new(1, 64, 4);
            let h = m.register_thread().unwrap();
            for key in 0..16 {
                m.put(h, key, key * 2);
            }
            let crashed = run_crash_at(&m, k, || {
                m.grow();
            });
            m.pool().crash(&WritebackAdversary::All);
            m.rebuild_allocator();
            let n = m.nlevels();
            assert!(n == 1 || n == 2, "k={k}: torn level count {n}");
            for key in 0..16 {
                assert_eq!(m.get(h, key), KvResp::Value(key * 2), "k={k} key={key}");
            }
            if !crashed {
                break;
            }
        }
    }

    #[test]
    fn concurrent_disjoint_writers_conserve_all_bindings() {
        let m = Arc::new(DetectableMap::new(4, 256, 8));
        let hs: Vec<_> = (0..4).map(|_| m.register_thread().unwrap()).collect();
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let m = Arc::clone(&m);
                let h = hs[tid];
                std::thread::spawn(move || {
                    let base = (tid as u64) << 32;
                    for i in 0..100 {
                        m.prep_put(h, base | (i % 10), i, i);
                        m.exec_put(h);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = m.snapshot();
        for tid in 0..4u64 {
            for key in 0..10u64 {
                let expect = 90 + key; // last write of i ≡ key (mod 10)
                assert_eq!(snap.get(&((tid << 32) | key)), Some(&expect), "t{tid} k{key}");
            }
        }
        for &h in &hs {
            assert_eq!(m.resolve(h).resp, Some(KvResp::Ok));
        }
    }

    #[test]
    fn concurrent_same_key_last_value_is_someones() {
        let m = Arc::new(DetectableMap::new(4, 512, 8));
        let hs: Vec<_> = (0..4).map(|_| m.register_thread().unwrap()).collect();
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let m = Arc::clone(&m);
                let h = hs[tid];
                std::thread::spawn(move || {
                    for i in 0..200 {
                        m.prep_put(h, 42, ((tid as u64) << 16) | i, i);
                        m.exec_put(h);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let v = match m.get(hs[0], 42) {
            KvResp::Value(v) => v,
            other => panic!("key must be bound, got {other:?}"),
        };
        assert!(v >> 16 < 4 && (v & 0xffff) == 199, "final value {v:#x} is someone's last write");
        for &h in &hs {
            assert_eq!(m.resolve(h).resp, Some(KvResp::Ok));
        }
    }

    #[test]
    fn file_backed_create_attach_round_trip() {
        let path = std::env::temp_dir()
            .join(format!("dss-map-test-{}-roundtrip.pool", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let m = DetectableMap::create(&path, 2, 32, 8).unwrap();
            let h = m.register_thread().unwrap();
            for k in 0..10 {
                m.put(h, k, k + 1);
            }
            m.grow();
            m.put(h, 100, 101);
            m.prep_put(h, 7, 7777, 3);
            // prep announced but never executed; the new process resolves it.
        }
        {
            let m = DetectableMap::attach(&path).unwrap();
            m.begin_recovery();
            let adopted = m.adopt_orphans();
            assert_eq!(adopted.len(), 1);
            let h = adopted[0];
            assert_eq!(m.nlevels(), 2);
            for k in 0..10 {
                assert_eq!(m.get(h, k), KvResp::Value(k + 1));
            }
            assert_eq!(m.get(h, 100), KvResp::Value(101));
            let r = m.resolve(h);
            assert_eq!(r.op, Some((7, KvOp::Put(7777), 3)));
            assert_eq!(r.resp, None, "prep never executed");
            // Finish it under the adopted identity.
            assert_eq!(m.exec_put(h), KvResp::Ok);
            assert_eq!(m.get(h, 7), KvResp::Value(7777));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn attach_rejects_wrong_kind() {
        let path =
            std::env::temp_dir().join(format!("dss-map-test-{}-kind.pool", std::process::id()));
        let _ = std::fs::remove_file(&path);
        crate::DssQueue::create(&path, 1, 8).unwrap();
        match DetectableMap::attach(&path) {
            Err(AttachError::AppMismatch { expected, found }) => {
                assert_eq!(expected, KIND_DETECTABLE_MAP);
                assert_eq!(found, crate::KIND_DSS_QUEUE);
            }
            other => panic!("expected AppMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn node_reclamation_sustains_many_updates() {
        // 8 op slots per thread, 10_000 updates: without reclamation the
        // pool would exhaust after a handful.
        let m = DetectableMap::new(1, 8, 4);
        let h = m.register_thread().unwrap();
        for i in 0..10_000 {
            m.prep_put(h, i % 3, i, i);
            m.exec_put(h);
        }
        for k in 0..3 {
            let expect = (9999 / 3) * 3 + k - if k > 0 { 3 } else { 0 };
            // last i with i % 3 == k among 0..10_000
            let last = (0..10_000u64).rev().find(|i| i % 3 == k).unwrap();
            let _ = expect;
            assert_eq!(m.get(h, k), KvResp::Value(last), "key {k}");
        }
    }

    fn held_len(m: &DetectableMap) -> usize {
        (0..m.nthreads()).map(|t| m.held(t).len()).sum()
    }

    #[test]
    fn retirement_bookkeeping_never_tracks_current_bindings() {
        // Every binding stays current, so nothing is ever retirable: the
        // bookkeeping must not grow with the bindings a writer owns.
        let m = DetectableMap::new(1, 4096, 1024);
        let h = m.register_thread().unwrap();
        for k in 0..4096 {
            assert_eq!(m.put(h, k, k), KvResp::Ok);
        }
        assert_eq!(held_len(&m), 0);
        assert_eq!(m.snapshot().len(), 4096);
    }

    #[test]
    fn value_nodes_are_conserved_under_mixed_writers() {
        // Two writers race detectable and plain puts and removes over a
        // few hot keys, with abandoned preps and removes of absent keys.
        // Once they quiesce, every node is in exactly one place: a double
        // retire shows up twice, a leak not at all.
        let m = DetectableMap::new(2, 64, 4);
        let hs = [0, 1].map(|_| m.register_thread().unwrap());
        std::thread::scope(|s| {
            for (tid, h) in hs.into_iter().enumerate() {
                let m = &m;
                s.spawn(move || {
                    for i in 0..20_000u64 {
                        let key = (i * 7 + tid as u64) % 4;
                        match (i + tid as u64) % 7 {
                            0 => {
                                m.prep_put(h, key, i, i);
                                m.exec_put(h);
                            }
                            1 => {
                                m.prep_remove(h, key, i);
                                m.exec_remove(h);
                            }
                            2 => {
                                m.put(h, key, i);
                            }
                            3 => {
                                m.remove(h, key);
                            }
                            4 => m.prep_put(h, key, i, i), // abandoned
                            5 => {
                                m.prep_remove(h, 100 + key, i); // never present
                                m.exec_remove(h);
                            }
                            _ => {
                                m.remove(h, 100 + key);
                            }
                        }
                    }
                });
            }
        });
        assert!(held_len(&m) <= 2, "held lists stay tiny: {}", held_len(&m));

        let mut place: std::collections::HashMap<PAddr, &str> = Default::default();
        let count = |place: &mut std::collections::HashMap<_, _>, node, what: &'static str| {
            assert!(m.nodes.contains(node), "{what} node {node:?} is not a pool node");
            if let Some(prev) = place.insert(node, what) {
                panic!("node {node:?} counted as {prev} and as {what}");
            }
        };
        for k in 0..m.nlevels() {
            for b in 0..m.level_buckets(k) {
                let mut e = tag::addr_of(m.core.pool.peek(PAddr::from_index(m.level_base(k) + b)));
                while !e.is_null() {
                    count(&mut place, e, "entry");
                    count(&mut place, tag::addr_of(m.core.pool.peek(e.offset(E_VPTR))), "binding");
                    e = tag::addr_of(m.core.pool.peek(e.offset(E_NEXT)));
                }
            }
        }
        for t in 0..m.nthreads() {
            for &p in m.held(t).iter() {
                count(&mut place, p, "held");
            }
        }
        // Nobody is pinned, so a few epoch advances drain every limbo list.
        for _ in 0..4 {
            for p in m.core.ebr.collect_all(0) {
                count(&mut place, p, "limbo");
            }
        }
        assert_eq!(m.core.ebr.limbo_len(), 0);
        while let Some(p) = m.nodes.alloc(0) {
            count(&mut place, p, "free");
        }
        // An X node is a binding, held, or (never installed) its own.
        for h in hs {
            let x = tag::addr_of(m.core.pool.peek(m.x_addr(h.slot())));
            match place.get(&x) {
                None => count(&mut place, x, "X"),
                Some(&at) => assert!(matches!(at, "binding" | "held"), "X node {x:?} is {at}"),
            }
        }
        assert_eq!(place.len() as u64, m.nodes.total_nodes(), "every node accounted for");
    }

    #[test]
    fn rebuild_parks_a_superseded_x_node_with_its_slot() {
        // h0's installed put is overwritten while X[h0] still names it; a
        // crash loses the superseder's parking, so the rebuild redoes it
        // and h0 retires the node once X[h0] has moved on.
        let m = DetectableMap::new(2, 8, 8);
        let (h0, h1) = (m.register_thread().unwrap(), m.register_thread().unwrap());
        m.prep_put(h0, 1, 10, 0);
        m.exec_put(h0);
        let first = tag::addr_of(m.core.pool.peek(m.x_addr(h0.slot())));
        m.put(h1, 1, 11);
        m.pool().crash(&WritebackAdversary::None);
        m.rebuild_allocator();
        assert_eq!(*m.held(h0.slot()), vec![first]);
        m.prep_put(h0, 2, 20, 1);
        m.exec_put(h0);
        assert_eq!(*m.held(h0.slot()), vec![first], "X[h0] moved on only just now");
        m.put(h0, 3, 30);
        assert_eq!(held_len(&m), 0);
        assert_eq!(m.core.ebr.limbo_len(), 1, "retired once, by its slot");
    }
}
