//! A detectable recoverable hash map (`D⟨map⟩`) built on the extracted
//! [`DetectableCore`].
//!
//! The map is the "new object family" test of the core extraction: bucket
//! chains over the [`Memory`] backend, with one [binding](crate::binding)
//! per key — the same versioned-node protocol the register and the CAS
//! object run on their single cell. Two node kinds share one node pool:
//!
//! * **Entry nodes** `{key, vptr, next}` — one per *key*, prepended to a
//!   bucket chain when the key first appears and never reclaimed
//!   (immortal), so chain walks need no generation checks. The `vptr`
//!   word is the key's binding.
//! * **Value nodes** `[key, value, seq, flags]` — one per *write* (put or
//!   remove), installed, proved and retired by the binding protocol. A
//!   remove installs a value node with the `TOMBSTONE` flag; the key's
//!   entry stays, the binding reads as absent.
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
use std::ops::Deref;

use dss_pmem::object::{checked_words, thread_count};
use dss_pmem::{
    tag, AppKind, AttachError, FlushGranularity, Memory, ObjectCore, ObjectLayout, PAddr, PmemPool,
    Registry, ThreadHandle, WORDS_PER_LINE,
};
use dss_spec::types::{KvOp, KvResp};

use crate::binding::{x_end, Bindings, Install, FLAGS, NODE_WORDS, PAYLOAD0, PAYLOAD1};
use crate::detect::DetectableCore;

// Entry-node layout (the value nodes' width; the node region is
// NODE_WORDS-aligned). A value node's payload is `[key, value]`.
const E_KEY: u64 = 0;
const E_VPTR: u64 = 1;
const E_NEXT: u64 = 2;

/// Value-node `flags` bit: this node is a remove — the binding reads as
/// absent.
const FLAG_TOMBSTONE: u64 = 2;

// Fixed layout head: [0:NULL][directory line][n X lines][level-0 buckets]
// [node region][registry][extension levels...].
const A_NLEVELS: u64 = WORDS_PER_LINE;

/// Hard cap on bucket levels: level `MAX_LEVELS - 1` already holds
/// `2^(MAX_LEVELS-1)` times the initial bucket count.
pub const MAX_LEVELS: u64 = 8;

/// Structure-kind word a file-backed map records in its pool superblock.
pub const KIND_DETECTABLE_MAP: u64 = AppKind::DetectableMap.word();

/// The map's pool layout, derived from `(nthreads, nodes_per_thread,
/// buckets0)` alone. Extension levels live past the registry so the
/// initial pool stays compact and growth exercises the segment machinery.
struct MapLayout {
    nthreads: usize,
    nodes_per_thread: u64,
    buckets0: u64,
    buckets_base: u64,
    region: u64,
    reg_base: u64,
    /// First word past the registry (line-aligned): base of level 1.
    ext_base: u64,
}

impl ObjectLayout for MapLayout {
    const KIND: AppKind = AppKind::DetectableMap;

    fn params(&self) -> Vec<u64> {
        vec![self.nthreads as u64, self.nodes_per_thread, self.buckets0]
    }

    fn from_params(p: &[u64]) -> Result<Self, &'static str> {
        let (nthreads, nodes_per_thread, buckets0) = (thread_count(p[0])?, p[1], p[2]);
        // Two nodes per op slot: a put of a fresh key consumes an entry
        // node and a value node.
        let nodes = checked_words(&[2, nthreads as u64, nodes_per_thread, NODE_WORDS])?;
        if !checked_words(&[buckets0])?.is_power_of_two() {
            return Err("bucket count is not a power of two");
        }
        let buckets_base = x_end(nthreads);
        let region = (buckets_base + buckets0).next_multiple_of(NODE_WORDS);
        let reg_base = (region + nodes).next_multiple_of(WORDS_PER_LINE);
        let ext_base =
            (reg_base + <Registry>::region_words(nthreads)).next_multiple_of(WORDS_PER_LINE);
        Ok(MapLayout {
            nthreads,
            nodes_per_thread,
            buckets0,
            buckets_base,
            region,
            reg_base,
            ext_base,
        })
    }

    fn registry_base(&self) -> u64 {
        self.reg_base
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
    /// The keys' bindings; entry nodes come from the same pool.
    values: Bindings<M>,
    buckets_base: u64,
    ext_base: u64,
    buckets0: u64,
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
        let layout = MapLayout::from_args(&[nthreads as u64, nodes_per_thread, buckets0]);
        let m = Self::assemble(ObjectCore::create(path, &layout, granularity)?, &layout);
        m.format();
        Ok(m)
    }

    /// Rebuilds a map from a pool file with no in-process state. The map
    /// recovers independently (no recovery phase): after
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
        let nlevels = object.pool().peek(PAddr::from_index(A_NLEVELS));
        if nlevels == 0 || nlevels > MAX_LEVELS {
            return Err(AttachError::Corrupt("map level count out of range"));
        }
        let m = Self::assemble(object, &layout);
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
        let layout = MapLayout::from_args(&[nthreads as u64, nodes_per_thread, buckets0]);
        let m = Self::assemble(ObjectCore::fresh(&layout, granularity), &layout);
        m.format();
        m
    }

    /// The shared constructor tail: in-DRAM side tables over an object
    /// skeleton — everything `attach` must rebuild rather than map.
    fn assemble(object: ObjectCore<M>, layout: &MapLayout) -> Self {
        let nodes_per_thread = 2 * layout.nodes_per_thread;
        DetectableMap {
            values: Bindings::new(object, AppKind::DetectableMap, layout.region, nodes_per_thread),
            buckets_base: layout.buckets_base,
            ext_base: layout.ext_base,
            buckets0: layout.buckets0,
        }
    }

    /// Writes and persists the initial map state (fresh pools only —
    /// never run on attach). Bucket heads rely on fresh words reading 0
    /// (= empty chain), the same invariant `grow` relies on.
    fn format(&self) {
        self.pool().store(PAddr::from_index(A_NLEVELS), 1);
        self.pool().flush(PAddr::from_index(A_NLEVELS));
        self.format_x();
        self.pool().drain();
    }

    // --- bucket-level geometry ------------------------------------------

    /// The number of published bucket levels (persisted).
    pub fn nlevels(&self) -> u64 {
        self.pool().peek(PAddr::from_index(A_NLEVELS))
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
    /// persisted word store. An administrative, quiescent operation: it
    /// takes `&mut self`, so no other thread can operate on the map
    /// meanwhile — not even through an `Arc`:
    ///
    /// ```compile_fail,E0596
    /// let m = std::sync::Arc::new(dss_core::DetectableMap::new(1, 8, 4));
    /// m.grow(); // cannot borrow data in an `Arc` as mutable
    /// ```
    ///
    /// Returns the new level count.
    ///
    /// # Panics
    ///
    /// Panics at [`MAX_LEVELS`].
    pub fn grow(&mut self) -> u64 {
        let n = self.nlevels();
        assert!(n < MAX_LEVELS, "map already at MAX_LEVELS ({MAX_LEVELS}) bucket levels");
        let new = n + 1;
        // Segments first: a crash between reserve and publish leaves the
        // old table (the count still reads n).
        self.pool().reserve(self.levels_end(new) as usize);
        self.pool().store(PAddr::from_index(A_NLEVELS), new);
        self.pool().flush(PAddr::from_index(A_NLEVELS));
        self.pool().drain_line(PAddr::from_index(A_NLEVELS));
        new
    }

    // --- chain walks ----------------------------------------------------

    /// The entry node bound to `key`, if the key ever appeared; otherwise
    /// the newest level's bucket head word the walk read, which a fresh
    /// entry may only be prepended against (see
    /// [`link_entry`](Self::link_entry)). Entries are unique per key across
    /// levels: an insert checks every level before creating one.
    fn find_entry(&self, key: u64) -> Result<PAddr, u64> {
        self.find_entry_with(key, |a| self.pool().load(a))
    }

    /// [`find_entry`](Self::find_entry) reading words with `read`: the
    /// retirement checks pass uninstrumented peeks, so they don't perturb
    /// counted experiments.
    fn find_entry_with(&self, key: u64, read: impl Fn(PAddr) -> u64) -> Result<PAddr, u64> {
        let mut head = 0;
        for k in 0..self.nlevels() {
            head = read(self.bucket_addr(k, key));
            let mut e = tag::addr_of(head);
            while !e.is_null() {
                if read(e.offset(E_KEY)) == key {
                    return Ok(e);
                }
                e = tag::addr_of(read(e.offset(E_NEXT)));
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
        let en = self.values.alloc(tid);
        self.pool().store(en.offset(E_KEY), key);
        self.values.seed(en.offset(E_VPTR), vn);
        let head_w = self.pool().load(ba);
        if head_w == walked_head {
            self.pool().store(en.offset(E_NEXT), head_w);
            let fields = [en.offset(E_KEY), en.offset(E_VPTR), en.offset(E_NEXT)];
            match announce {
                // Every field word (they are separate units under
                // word-granular flushing), ordered together with the
                // announce.
                Some(xa) => {
                    for f in fields {
                        self.pool().flush(f);
                    }
                    self.pool().drain_lines(&[fields[0], fields[1], fields[2], xa]);
                }
                None => self.pool().persist_batch(&fields),
            }
            if self.pool().cas(ba, head_w, en.to_word()).is_ok() {
                self.pool().flush(ba);
                return true;
            }
        }
        // Lost the race (possibly to this very key's first writer): the
        // entry was never exposed, so free it directly.
        self.values.discard(tid, en);
        false
    }

    /// Visits every entry node with the value node it binds, over every
    /// level (uninstrumented): the allocator rebuild, snapshots and
    /// conservation checks.
    fn walk(&self, mut visit: impl FnMut(PAddr, PAddr)) {
        for k in 0..self.nlevels() {
            for b in 0..self.level_buckets(k) {
                let mut e =
                    tag::addr_of(self.pool().peek(PAddr::from_index(self.level_base(k) + b)));
                while !e.is_null() {
                    visit(e, self.values.peek_node(e.offset(E_VPTR)));
                    e = tag::addr_of(self.pool().peek(e.offset(E_NEXT)));
                }
            }
        }
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
        let peek = |a| self.pool().peek(a);
        let ptr_of = |old: PAddr| {
            let en = self.find_entry_with(peek(old.offset(PAYLOAD0)), peek);
            en.ok().map(|en| en.offset(E_VPTR))
        };
        self.values.prep(h.slot(), [key, val], seq, flags, ptr_of);
    }

    /// **exec-put()**: installs the prepared value node as its key's
    /// binding — into the key's existing entry (marking the incumbent
    /// superseded, persisted, first) or via a fresh entry prepended to a
    /// bucket chain.
    ///
    /// # Panics
    ///
    /// Panics if no put is prepared for `tid`, or it already took effect —
    /// completed, or installed before a crash that `resolve` reports
    /// (Axiom 2's precondition `R[pᵢ] = ⊥`).
    pub fn exec_put(&self, h: ThreadHandle) -> KvResp {
        self.exec(h, false)
    }

    /// **exec-remove()**: installs the prepared tombstone into the key's
    /// entry; a remove of an absent key takes effect trivially (the map is
    /// total) and is marked complete without touching any chain.
    ///
    /// # Panics
    ///
    /// Panics if no remove is prepared for `tid`, or it already took
    /// effect.
    pub fn exec_remove(&self, h: ThreadHandle) -> KvResp {
        self.exec(h, true)
    }

    fn exec(&self, h: ThreadHandle, remove: bool) -> KvResp {
        let tid = h.slot();
        let _g = self.pin(tid);
        let (op, prep) =
            if remove { ("exec-remove", "prep-put") } else { ("exec-put", "prep-remove") };
        let x = self.values.prepared(tid, op);
        let vn = tag::addr_of(x);
        let tombstone = self.pool().load(vn.offset(FLAGS)) & FLAG_TOMBSTONE != 0;
        assert!(tombstone == remove, "{op} after {prep}");
        let key = self.pool().load(vn.offset(PAYLOAD0));
        self.install(tid, vn, key, Some(x), remove);
        KvResp::Ok
    }

    /// The install machine of every write: binds the value node `vn` to
    /// `key` — detectably if `x` is the caller's `X` word. A put of a fresh
    /// key prepends an entry; a `remove` of an absent key takes effect
    /// trivially, with no chain surgery.
    fn install(&self, tid: usize, vn: PAddr, key: u64, x: Option<u64>, remove: bool) {
        let mut bo = self.new_backoff();
        loop {
            match self.find_entry(key) {
                Ok(en) => {
                    if let Install::Done =
                        self.values.install(tid, en.offset(E_VPTR), vn, x, |_| true)
                    {
                        return;
                    }
                }
                Err(_) if remove => {
                    // Nothing to persist but a detectable remove's
                    // completion mark; a plain one's node was never exposed.
                    match x {
                        Some(_) => self.values.finish(tid, x, 0),
                        None => self.values.discard(tid, vn),
                    }
                    return;
                }
                Err(head) => {
                    // First write to this key: prepend an entry seeded
                    // with vn.
                    if self.link_entry(tid, key, vn, head, x.map(|_| self.x_addr(tid))) {
                        if x.is_some() {
                            // Ordering point: completion behind the prepend.
                            self.pool().drain_line(self.bucket_addr(self.nlevels() - 1, key));
                        }
                        self.values.finish(tid, x, 0);
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
        let vn = self.values.plain_node(tid, [key, val], flags);
        // Pinned after the allocation, which a pin would hold back.
        let _g = self.pin(tid);
        self.install(tid, vn, key, None, flags & FLAG_TOMBSTONE != 0);
        KvResp::Ok
    }

    /// **get(key)** (plain): the key's current value, or `Absent`.
    pub fn get(&self, h: ThreadHandle, key: u64) -> KvResp {
        let _g = self.pin(h.slot());
        match self.find_entry(key) {
            Err(_) => KvResp::Absent,
            Ok(en) => {
                let vn = self.values.current(en.offset(E_VPTR));
                if self.pool().load(vn.offset(FLAGS)) & FLAG_TOMBSTONE != 0 {
                    KvResp::Absent
                } else {
                    KvResp::Value(self.pool().load(vn.offset(PAYLOAD1)))
                }
            }
        }
    }

    /// **resolve()**: reports the most recently prepared operation and
    /// whether it took effect. Needs no prior recovery phase; callable
    /// any time, idempotent.
    ///
    /// The effect proof is the binding's: the completion mark, the node's
    /// persisted `SUPERSEDED` flag, or the node being its key's current
    /// binding each individually prove installation. A remove of an
    /// absent key leaves only the completion mark — a crash before it
    /// reports the remove unresolved, and re-executing is idempotent.
    pub fn resolve(&self, h: ThreadHandle) -> ResolvedMap {
        let Some(a) = self.values.announced(h.slot()) else {
            return ResolvedMap { op: None, resp: None };
        };
        let op = if a.flags & FLAG_TOMBSTONE != 0 {
            KvOp::Remove
        } else {
            KvOp::Put(self.pool().load(a.node.offset(PAYLOAD1)))
        };
        let ptr = || self.find_entry(a.payload0).ok().map(|en| en.offset(E_VPTR));
        let effective = self.values.took_effect(&a, ptr);
        ResolvedMap {
            op: Some((a.payload0, op, a.seq)),
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
        self.values.rebuild(|live| {
            self.walk(|en, vn| {
                live.insert(en);
                live.insert(vn);
            })
        });
    }

    /// The map's current contents (uninstrumented), for conservation
    /// checks and debugging.
    pub fn snapshot(&self) -> BTreeMap<u64, u64> {
        let (mut out, peek) = (BTreeMap::new(), |a| self.pool().peek(a));
        self.walk(|en, vn| {
            if !vn.is_null() && peek(vn.offset(FLAGS)) & FLAG_TOMBSTONE == 0 {
                out.insert(peek(en.offset(E_KEY)), peek(vn.offset(PAYLOAD1)));
            }
        });
        out
    }
}

impl<M: Memory> Deref for DetectableMap<M> {
    type Target = DetectableCore<M>;

    fn deref(&self) -> &DetectableCore<M> {
        &self.values
    }
}

impl<M: Memory> fmt::Debug for DetectableMap<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetectableMap")
            .field("nthreads", &self.nthreads())
            .field("buckets0", &self.buckets0)
            .field("nlevels", &self.nlevels())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::tests::{crash_sweep, one_thread};
    use dss_pmem::WritebackAdversary;
    use std::sync::Arc;

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
        let vn = m.values.plain_node(h0.slot(), [7, 71], 0);
        assert!(!m.link_entry(h0.slot(), 7, vn, walked, None), "the stale head must be refused");
        let mut entries = 0;
        m.walk(|en, _| entries += usize::from(m.pool().peek(en.offset(E_KEY)) == 7));
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

    /// Crashes the detectable `op` on `key`, tagged `seq`, at every
    /// pmem-op index — on a map of one thread whose `key` holds
    /// `prefill` — and checks each resolution against what a get of `key`
    /// observes.
    fn crash_sweep_write(
        advs: &[WritebackAdversary],
        prefill: Option<u64>,
        (key, op, seq): (u64, KvOp, u64),
    ) {
        let before = prefill.map_or(KvResp::Absent, KvResp::Value);
        let after = if let KvOp::Put(v) = op { KvResp::Value(v) } else { KvResp::Absent };
        crash_sweep(
            advs,
            |g| {
                let (m, h) = one_thread(<DetectableMap>::new_in(1, 8, 8, g));
                if let Some(v) = prefill {
                    m.put(h, key, v);
                }
                (m, h)
            },
            |m, h| match op {
                KvOp::Put(v) => {
                    m.prep_put(h, key, v, seq);
                    m.exec_put(h);
                }
                _ => {
                    m.prep_remove(h, key, seq);
                    m.exec_remove(h);
                }
            },
            |m, h, at| {
                m.rebuild_allocator();
                let now = m.get(h, key);
                match m.resolve(h) {
                    ResolvedMap { op: None, resp: None } => assert_eq!(now, before, "{at}"),
                    ResolvedMap { op: Some(o), resp: Some(KvResp::Ok) } if o == (key, op, seq) => {
                        assert_eq!(now, after, "{at}: effect persisted")
                    }
                    ResolvedMap { op: Some(o), resp: None } if o == (key, op, seq) => {
                        assert_eq!(now, before, "{at}: no effect")
                    }
                    other => panic!("{at}: impossible resolution {other:?}"),
                }
            },
        );
    }

    const NONE_ALL: [WritebackAdversary; 2] = [WritebackAdversary::None, WritebackAdversary::All];

    #[test]
    fn crash_sweep_put_fresh_key() {
        let random = WritebackAdversary::Random { seed: 5, prob: 0.5 };
        let advs = [WritebackAdversary::None, WritebackAdversary::All, random];
        crash_sweep_write(&advs, None, (1, KvOp::Put(10), 9));
    }

    #[test]
    fn crash_sweep_update_existing_key() {
        crash_sweep_write(&NONE_ALL, Some(20), (2, KvOp::Put(21), 3));
    }

    #[test]
    fn crash_sweep_remove() {
        crash_sweep_write(&NONE_ALL, Some(60), (6, KvOp::Remove, 4));
    }

    #[test]
    fn grow_preserves_contents_and_spreads_new_keys() {
        let mut m = DetectableMap::new(1, 256, 4);
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
            let mut m = DetectableMap::new(1, 64, 4);
            let h = m.register_thread().unwrap();
            for key in 0..16 {
                m.put(h, key, key * 2);
            }
            let pool = Arc::clone(m.pool());
            let crashed = pool.crashes_within(k, || {
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
            let mut m = DetectableMap::create(&path, 2, 32, 8).unwrap();
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
            // last i with i % 3 == k among 0..10_000
            let last = (0..10_000u64).rev().find(|i| i % 3 == k).unwrap();
            assert_eq!(m.get(h, k), KvResp::Value(last), "key {k}");
        }
    }

    /// [`Bindings::assert_conserved`] over the map's entries and bindings.
    fn assert_conserved(m: &DetectableMap) {
        let mut owned = Vec::new();
        m.walk(|en, vn| owned.extend([(en, "entry"), (vn, "binding")]));
        m.values.assert_conserved(owned);
    }

    fn held_len(m: &DetectableMap) -> usize {
        (0..m.nthreads()).map(|t| m.values.held[t].lock().len()).sum()
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

        assert_conserved(&m);
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
        let first = m.values.peek_node(m.x_addr(h0.slot()));
        m.put(h1, 1, 11);
        m.pool().crash(&WritebackAdversary::None);
        m.rebuild_allocator();
        assert_eq!(*m.values.held[h0.slot()].lock(), vec![first]);
        assert_conserved(&m);
        m.prep_put(h0, 2, 20, 1);
        m.exec_put(h0);
        assert_eq!(*m.values.held[h0.slot()].lock(), vec![first], "X[h0] moved on only just now");
        m.put(h0, 3, 30);
        assert_eq!(held_len(&m), 0);
        assert_eq!(m.ebr().limbo_len(), 1, "retired once, by its slot");
    }
}
