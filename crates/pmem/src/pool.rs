//! The persistent-memory pool.
//!
//! # Memory-ordering policy
//!
//! Every field states its ordering explicitly rather than mixing silently:
//!
//! * **Word state** (`volatile`, `persisted`, `dirty`) — `SeqCst`. The
//!   paper's evaluation uses "standard C++ atomic operations configured
//!   with sequentially consistent ordering", and crash correctness depends
//!   on the store→dirty and writeback orderings being globally agreed.
//! * **`generation`** — `SeqCst`. Rare (once per crash) and read by
//!   recovery code as a synchronisation point; not worth a weaker contract.
//! * **`flush_penalty`** — `Relaxed`, deliberately. It is a tuning knob
//!   read at the top of every flush: no other memory depends on its value,
//!   so the monotone-visible `Relaxed` read is sufficient and keeps the
//!   knob free on the hot path.
//! * **Statistics counters** — `Relaxed` (see [`crate::stats`]): monotone
//!   event counts, only ever read in aggregate.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fs::OpenOptions;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed, Ordering::SeqCst};

use crate::seg::{self, FileBacking, Layout, SegmentBacking, SegmentDirectory};
use crate::stats::Counter;
use crate::{hook, AttachError, Memory, PAddr, Stats, StatsSnapshot};

/// Number of 64-bit words per 64-byte cache line.
pub const WORDS_PER_LINE: u64 = 8;

/// Granularity at which [`PmemPool::flush`] persists data.
///
/// Real `CLWB` writes back a whole 64-byte cache line, so adjacent words are
/// persisted together ([`FlushGranularity::Line`], the default). Word
/// granularity is *stricter*: an algorithm that accidentally relies on a
/// neighbouring field sharing a cache line with a flushed field will pass
/// line-granular crash tests but fail word-granular ones. Experiment E7 runs
/// the crash matrix under both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushGranularity {
    /// Flush persists the whole 64-byte line containing the address
    /// (faithful to CLWB).
    #[default]
    Line,
    /// Flush persists only the addressed word (adversarial).
    Word,
}

impl FlushGranularity {
    /// The granularity's name in flags and argument lists: `line` or
    /// `word`.
    pub fn name(self) -> &'static str {
        match self {
            FlushGranularity::Line => "line",
            FlushGranularity::Word => "word",
        }
    }

    /// Inverse of [`name`](Self::name).
    ///
    /// # Panics
    ///
    /// Panics with a usage hint on any other name.
    pub fn parse(s: &str) -> FlushGranularity {
        match s {
            "line" => FlushGranularity::Line,
            "word" => FlushGranularity::Word,
            g => panic!("unknown granularity {g} (line|word)"),
        }
    }
}

/// Whether a pool pays for crash hooks and statistics on every primitive.
///
/// Instrumentation is what makes the simulator *testable* — crash-point
/// injection steps a per-thread countdown and the flush-count ablation (E3)
/// needs per-primitive counters — but both cost cycles on every single
/// load/store/CAS/flush. Peak-throughput measurements construct the pool in
/// [`PoolMode::Raw`], where the primitives compile down to the bare atomic
/// operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolMode {
    /// Crash-point hooks and operation statistics on every primitive
    /// (the default; required by crash tests and flush-count experiments).
    #[default]
    Instrumented,
    /// No hooks, no stats: primitives are bare atomics plus persistence
    /// bookkeeping. [`PmemPool::stats`] reports zeros and
    /// [`PmemPool::arm_crash_after`] plans never fire from this pool's
    /// operations.
    Raw,
}

/// Decides which *dirty* (written but unflushed) words spontaneously reach
/// the persistence domain at a crash.
///
/// Hardware may evict a dirty cache line at any time, persisting it without
/// any flush instruction. A correct recoverable algorithm must tolerate
/// every such schedule, so crash tests sweep over adversaries:
///
/// * [`WritebackAdversary::None`] — nothing unflushed survives (the
///   "fresh cache" extreme).
/// * [`WritebackAdversary::All`] — everything written survives (as if the
///   cache were write-through).
/// * [`WritebackAdversary::Random`] — each dirty word independently survives
///   with probability `prob` under a seeded RNG (reproducible middle
///   ground).
#[derive(Debug, Clone, PartialEq)]
pub enum WritebackAdversary {
    /// No spontaneous writeback: only explicitly flushed data survives.
    None,
    /// Full writeback: every dirty word is persisted before the crash.
    All,
    /// Each dirty word survives independently with probability `prob`.
    Random {
        /// RNG seed, so a failing schedule can be replayed.
        seed: u64,
        /// Survival probability in `[0.0, 1.0]`.
        prob: f64,
    },
}

/// Minimal splitmix64 generator for the [`WritebackAdversary::Random`]
/// schedule: deterministic per seed, which is all reproducibility needs.
struct CrashRng(u64);

impl CrashRng {
    fn new(seed: u64) -> Self {
        CrashRng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn survives(&mut self, prob: f64) -> bool {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 11) as f64 / (1u64 << 53) as f64) < prob
    }
}

/// Globally unique pool identities, keying the per-thread pending-flush
/// sets below (a thread may touch many pools over its lifetime, e.g. one
/// per test).
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(0);

/// One pool's write-behind state on one thread: the flush units (line
/// bases or word indices) whose writeback is deferred, tagged with the
/// pool generation they were pended under so entries that straddle a
/// crash are discarded instead of replayed.
///
/// The units live in an insertion-ordered ring — the *line-indexed map*
/// behind per-address ordering drains ([`PmemPool::drain_line`]): a
/// targeted drain removes and writes back exactly the named unit while
/// everything else stays pended, and whole-set drains iterate in a
/// deterministic (insertion) order. A flat ring beats a tree here: the set
/// is capped at [`MAX_PENDING`] entries of plain `u64`, so a linear scan
/// is cheaper than pointer-chasing, overflow eviction is an O(1)
/// `pop_front` of the oldest unit, and the hottest (most recently flushed)
/// lines stay pended longest — exactly the ones the next operation is
/// likely to re-flush. Per-address mode keeps the set near capacity across
/// operations, putting all three on the flush hot path.
struct PendingSet {
    generation: u64,
    units: VecDeque<u64>,
}

impl PendingSet {
    /// Marks `unit` most-recently-flushed if pending, reporting whether it
    /// was: a duplicate flush refreshes its line's recency so overflow
    /// eviction works LRU-wise and hot lines survive to absorb again.
    ///
    /// Scans from the back: flushes and ordering drains overwhelmingly hit
    /// recently-pended units, which recency ordering keeps at the tail.
    fn touch(&mut self, unit: u64) -> bool {
        match self.units.iter().rposition(|&u| u == unit) {
            Some(i) => {
                self.units.remove(i);
                self.units.push_back(unit);
                true
            }
            None => false,
        }
    }

    /// Removes `unit` if present, reporting whether it was.
    fn remove(&mut self, unit: u64) -> bool {
        match self.units.iter().rposition(|&u| u == unit) {
            Some(i) => {
                self.units.remove(i);
                true
            }
            None => false,
        }
    }
}

/// Pending sets never grow past this; a flush that would exceed it evicts
/// the least-recently-flushed unit (writing it back early, which is always
/// legal) to make room. Whole-set drains keep the set near empty, so the
/// bound only binds under per-address drains, where pending flushes ride
/// across operations. Sized to cover the hot cross-operation reuse windows
/// (log-entry lines, descriptor lines, announce slots) while keeping the
/// linear membership scans short — the set IS the flush hot path there.
const MAX_PENDING: usize = 16;

thread_local! {
    /// This thread's pending flush units, per pool id. Entries are removed
    /// whenever a pool's set drains empty, so the map stays tiny even
    /// across thousands of short-lived test pools.
    static PENDING: RefCell<HashMap<u64, PendingSet>> = RefCell::new(HashMap::new());
}

/// One simulated word: the volatile value caches see, the persisted shadow
/// a crash reverts to, and whether the two may differ.
struct Word {
    volatile: AtomicU64,
    persisted: AtomicU64,
    dirty: AtomicBool,
}

impl Word {
    fn new() -> Self {
        Word {
            volatile: AtomicU64::new(0),
            persisted: AtomicU64::new(0),
            dirty: AtomicBool::new(false),
        }
    }

    /// `len` zeroed words: a fresh segment.
    fn zeros(len: u64) -> Box<[Word]> {
        (0..len).map(|_| Word::new()).collect()
    }

    /// A word rebuilt from an attached pool file: volatile = persisted =
    /// the file's value, nothing dirty (the dead owner's cache is gone).
    fn persisted_at(value: u64) -> Self {
        Word {
            volatile: AtomicU64::new(value),
            persisted: AtomicU64::new(value),
            dirty: AtomicBool::new(false),
        }
    }
}

/// A pool of 64-bit persistent-memory words with a volatile-cache model.
///
/// All accessors take `&self` and are safe to call from many threads; the
/// volatile values behave as sequentially consistent atomics, matching the
/// paper's evaluation setup ("standard C++ atomic operations configured with
/// sequentially consistent ordering").
///
/// The pool **grows on demand**: words live in a fixed directory of
/// doubling segments, so addressing past the initial
/// capacity materialises a new zero-initialised segment lock-free instead
/// of panicking. Crash semantics are unaffected — a crash visits every
/// materialised segment.
///
/// The exception is [`PmemPool::crash`], which logically stops the machine:
/// it must not race with ordinary operations. Harnesses stop or join worker
/// threads first (a thread interrupted by an armed crash plan has already
/// unwound and performs no further operations).
///
/// # Examples
///
/// ```
/// use dss_pmem::{PmemPool, PAddr, WritebackAdversary};
///
/// let pool = PmemPool::with_capacity(16);
/// let a = PAddr::from_index(3);
/// assert_eq!(pool.cas(a, 0, 10), Ok(0));
/// pool.flush(a);
/// pool.store(a, 11); // dirty again
/// pool.crash(&WritebackAdversary::None);
/// assert_eq!(pool.load(a), 10); // the unflushed 11 was lost
/// ```
pub struct PmemPool {
    id: u64,
    /// The address→segment structure; see [`crate::seg`].
    dir: SegmentDirectory<Word>,
    granularity: FlushGranularity,
    instrumented: bool,
    stats: Stats,
    generation: AtomicU64,
    flush_penalty: AtomicU64,
    coalesce: AtomicBool,
    per_address: AtomicBool,
    /// Where the persistence domain lives: process DRAM (anonymous) or a
    /// write-through pool file. See [`crate::seg`].
    backing: SegmentBacking,
    /// DRAM mirror of the superblock's application-config words
    /// (`[kind, params…]`); all zeros on anonymous pools until
    /// [`set_app_config`](Self::set_app_config).
    app: Box<[AtomicU64]>,
}

impl PmemPool {
    /// Creates a zero-initialized pool of `words` 64-bit words with
    /// line-granular flushes, instrumented (see [`PoolMode`]).
    ///
    /// Word 0 is the NULL address and is never meaningfully used; `words`
    /// must therefore be at least 1. The pool grows on demand past `words`.
    ///
    /// # Panics
    ///
    /// Panics if `words` is 0 or exceeds the 48-bit address space.
    pub fn with_capacity(words: usize) -> Self {
        Self::with_granularity(words, FlushGranularity::default())
    }

    /// Creates an instrumented pool with an explicit [`FlushGranularity`].
    ///
    /// # Panics
    ///
    /// Panics if `words` is 0 or exceeds the 48-bit address space.
    pub fn with_granularity(words: usize, granularity: FlushGranularity) -> Self {
        Self::with_mode(words, granularity, PoolMode::Instrumented)
    }

    /// Creates a pool with explicit [`FlushGranularity`] and [`PoolMode`].
    ///
    /// # Panics
    ///
    /// Panics if `words` is 0 or exceeds the 48-bit address space.
    pub fn with_mode(words: usize, granularity: FlushGranularity, mode: PoolMode) -> Self {
        let layout = Layout::new(words);
        let seg0 = Word::zeros(layout.base());
        Self::assemble(layout, seg0, granularity, mode, SegmentBacking::Anonymous, 0)
    }

    /// The shared tail of every constructor: the in-DRAM side tables
    /// (segment directory, stats shards, knobs) over a chosen backing.
    /// Segment 0 (`seg0`, the initial capacity) is always materialised
    /// up front: constructors are cold, and the common case never grows.
    fn assemble(
        layout: Layout,
        seg0: Box<[Word]>,
        granularity: FlushGranularity,
        mode: PoolMode,
        backing: SegmentBacking,
        generation: u64,
    ) -> Self {
        PmemPool {
            id: NEXT_POOL_ID.fetch_add(1, Relaxed),
            dir: SegmentDirectory::new(layout, seg0),
            granularity,
            instrumented: mode == PoolMode::Instrumented,
            stats: Stats::new(),
            generation: AtomicU64::new(generation),
            flush_penalty: AtomicU64::new(0),
            coalesce: AtomicBool::new(false),
            per_address: AtomicBool::new(false),
            backing,
            app: (0..1 + seg::APP_WORDS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Creates (or truncates) a **file-backed** pool at `path`: the file
    /// holds the pool's entire persistence domain, so a process killed at
    /// any instruction leaves behind exactly what was flushed-and-fenced,
    /// and a fresh process rebuilds the pool with [`attach`](Self::attach).
    ///
    /// Volatile values, dirty bits, and pended coalesced flushes stay in
    /// process DRAM — dying *is* the crash, no reversion step needed.
    /// Writebacks write through to the file. One live process per pool
    /// file at a time (like PMDK pools); attaching while another process
    /// is writing is undefined.
    ///
    /// # Errors
    ///
    /// [`AttachError::Io`] if the file cannot be created or written.
    ///
    /// # Panics
    ///
    /// Panics if `words` is 0 or exceeds the 48-bit address space.
    pub fn create<P: AsRef<Path>>(
        path: P,
        words: usize,
        granularity: FlushGranularity,
    ) -> Result<Self, AttachError> {
        Self::create_with(path, words, granularity, PoolMode::Instrumented)
    }

    /// [`create`](Self::create) with an explicit [`PoolMode`].
    ///
    /// # Errors
    ///
    /// [`AttachError::Io`] if the file cannot be created or written.
    pub fn create_with<P: AsRef<Path>>(
        path: P,
        words: usize,
        granularity: FlushGranularity,
        mode: PoolMode,
    ) -> Result<Self, AttachError> {
        let layout = Layout::new(words);
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        file.set_len(seg::HEADER_BYTES)?;
        let fb = FileBacking::new(file, 0);
        fb.write_sb(seg::SB_MAGIC, seg::MAGIC);
        fb.write_sb(seg::SB_VERSION, seg::LAYOUT_VERSION);
        fb.write_sb(seg::SB_BASE, layout.base());
        fb.write_sb(seg::SB_GRANULARITY, granularity as u64);
        fb.write_sb(seg::SB_GENERATION, 0);
        fb.write_sb(seg::SB_COMMITTED, 0);
        fb.commit_segment(&layout, 0);
        let seg0 = Word::zeros(layout.base());
        Ok(Self::assemble(layout, seg0, granularity, mode, SegmentBacking::File(fb), 0))
    }

    /// Attaches to an existing pool file with **no in-process state**: the
    /// superblock is validated, every committed segment's persisted values
    /// are read back (volatile = persisted, nothing dirty), and the
    /// in-DRAM side tables (stats shards, pending-flush rings, knobs) are
    /// rebuilt fresh.
    ///
    /// Attaching is a crash boundary: the previous owner is gone, so the
    /// crash generation is bumped (durably, in the superblock) — which is
    /// what lets [`Registry::begin_recovery`](crate::Registry::begin_recovery)
    /// orphan the dead process's slots exactly once.
    ///
    /// # Errors
    ///
    /// Any [`AttachError`] variant: I/O failure, bad magic/version, or an
    /// internally inconsistent superblock.
    pub fn attach<P: AsRef<Path>>(path: P) -> Result<Self, AttachError> {
        Self::attach_with(path, PoolMode::Instrumented)
    }

    /// [`attach`](Self::attach) with an explicit [`PoolMode`].
    ///
    /// # Errors
    ///
    /// Any [`AttachError`] variant: I/O failure, bad magic/version, or an
    /// internally inconsistent superblock.
    pub fn attach_with<P: AsRef<Path>>(path: P, mode: PoolMode) -> Result<Self, AttachError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let fb = FileBacking::new(file, 0);
        let magic = fb.read_sb(seg::SB_MAGIC)?;
        if magic != seg::MAGIC {
            return Err(AttachError::BadMagic { found: magic });
        }
        let version = fb.read_sb(seg::SB_VERSION)?;
        if version != seg::LAYOUT_VERSION {
            return Err(AttachError::BadVersion { found: version });
        }
        let layout = Layout::from_base(fb.read_sb(seg::SB_BASE)?)?;
        let granularity = match fb.read_sb(seg::SB_GRANULARITY)? {
            0 => FlushGranularity::Line,
            1 => FlushGranularity::Word,
            _ => return Err(AttachError::Corrupt("unknown flush-granularity code")),
        };
        let committed = fb.read_sb(seg::SB_COMMITTED)?;
        if committed & 1 == 0 || committed >> seg::SLOTS != 0 {
            return Err(AttachError::Corrupt("committed-segment bitmap out of range"));
        }
        // The previous owner is dead: attaching is the crash boundary, so
        // the new generation is published durably before any operation.
        let generation = fb.read_sb(seg::SB_GENERATION)?.wrapping_add(1);
        fb.write_sb(seg::SB_GENERATION, generation);
        let file_len = fb.read_len()?;
        let mut app = [0u64; 1 + seg::APP_WORDS];
        for (w, slot) in app.iter_mut().enumerate() {
            *slot = fb.read_sb(seg::SB_APP_KIND + w as u64)?;
        }
        let mut segments: Vec<(usize, Box<[Word]>)> = Vec::new();
        for slot in 0..seg::SLOTS {
            if committed & (1 << slot) == 0 {
                continue;
            }
            if file_len < seg::HEADER_BYTES + 8 * layout.end(slot) {
                return Err(AttachError::Corrupt("file shorter than its committed watermark"));
            }
            let values = fb.read_segment(&layout, slot)?;
            segments.push((slot, values.into_iter().map(Word::persisted_at).collect()));
        }
        fb.set_committed(committed);
        let mut segments = segments.into_iter();
        let (_, seg0) = segments.next().expect("segment 0 is committed");
        let backing = SegmentBacking::File(fb);
        let pool = Self::assemble(layout, seg0, granularity, mode, backing, generation);
        for (slot, words) in segments {
            if pool.dir.install(slot, words).is_err() {
                unreachable!("attach owns the pool; no racing materialisation");
            }
        }
        for (w, &v) in app.iter().enumerate() {
            pool.app[w].store(v, SeqCst);
        }
        Ok(pool)
    }

    /// The pool's instrumentation mode.
    pub fn mode(&self) -> PoolMode {
        if self.instrumented {
            PoolMode::Instrumented
        } else {
            PoolMode::Raw
        }
    }

    /// Sets the artificial latency of a flush, in spin-loop iterations
    /// (default 0).
    ///
    /// On real hardware `CLWB` + `SFENCE` to an Optane DIMM costs hundreds
    /// of nanoseconds while a cached store costs a few; that asymmetry —
    /// not the raw instruction count — is what separates the queue variants
    /// in the paper's Figure 5. Benchmarks set a penalty so the simulator
    /// reproduces the cost *shape*; correctness tests leave it at 0.
    ///
    /// `Relaxed` ordering: the knob synchronises nothing (see the module
    /// docs' ordering policy).
    pub fn set_flush_penalty(&self, spins: u64) {
        self.flush_penalty.store(spins, std::sync::atomic::Ordering::Relaxed);
    }

    /// The current flush penalty in spin-loop iterations.
    pub fn flush_penalty(&self) -> u64 {
        self.flush_penalty.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Currently materialised number of words. At least the initial
    /// capacity rounded up to whole cache lines; grows as higher addresses
    /// are touched.
    pub fn capacity(&self) -> usize {
        self.dir.materialised_words() as usize
    }

    /// Materialises backing storage for all words in `[0, words)`.
    pub fn reserve(&self, words: usize) {
        self.dir.reserve(words as u64, |slot| self.grow(slot));
    }

    /// The pool's flush granularity.
    pub fn granularity(&self) -> FlushGranularity {
        self.granularity
    }

    /// Number of crashes this pool has survived.
    pub fn generation(&self) -> u64 {
        self.generation.load(SeqCst)
    }

    /// A fresh segment for directory `slot`, which the directory installs
    /// race-free (see [`crate::seg`]).
    fn grow(&self, slot: usize) -> Box<[Word]> {
        // File-backed growth is crash-atomic: the file covers the new
        // segment (zeros) and its committed bit is published before any
        // word of it can be written back.
        if let SegmentBacking::File(fb) = &self.backing {
            fb.commit_segment(self.dir.layout(), slot);
        }
        Word::zeros(self.dir.layout().len(slot))
    }

    #[inline]
    fn word(&self, addr: PAddr) -> &Word {
        self.dir.word(addr.index(), |slot| self.grow(slot))
    }

    /// The words of the cache line whose base is `unit`.
    #[inline]
    fn line(&self, unit: u64) -> &[Word] {
        self.dir.words(unit, WORDS_PER_LINE as usize, |slot| self.grow(slot))
    }

    /// Crash hook + statistics, skipped entirely in [`PoolMode::Raw`].
    #[inline]
    fn instrument(&self, counter: Counter) {
        if self.instrumented {
            self.stats.count(hook::step(), counter);
        }
    }

    /// Atomically loads the volatile value at `addr`.
    #[inline]
    pub fn load(&self, addr: PAddr) -> u64 {
        self.instrument(Counter::Loads);
        self.word(addr).volatile.load(SeqCst)
    }

    /// Atomically stores `value` at `addr` (volatile only; call
    /// [`flush`](Self::flush) to persist).
    ///
    /// A plain store is **not** a fence point for write-behind coalescing:
    /// just as a real store does not order earlier `CLWB`s, pending
    /// coalesced flushes stay pending across it. Only [`cas`](Self::cas)
    /// (a locked instruction), [`fence`](Self::fence), and
    /// [`drain`](Self::drain) write them back.
    #[inline]
    pub fn store(&self, addr: PAddr, value: u64) {
        self.instrument(Counter::Stores);
        let w = self.word(addr);
        w.volatile.store(value, SeqCst);
        w.dirty.store(true, SeqCst);
    }

    /// Atomically compares-and-swaps the volatile value at `addr`.
    ///
    /// Returns `Ok(expected)` on success and `Err(actual)` on failure,
    /// mirroring [`std::sync::atomic::AtomicU64::compare_exchange`].
    ///
    /// A CAS is a locked instruction and therefore a fence point for
    /// write-behind coalescing: it drains this thread's pending flushes
    /// first, success or failure. Algorithms that flush a link before a
    /// tail-advancing CAS therefore keep their persistence ordering under
    /// coalescing.
    ///
    /// With per-address drains enabled
    /// ([`set_per_address_drains`](Self::set_per_address_drains)) the CAS
    /// only writes back the pending unit covering its *own* address — a
    /// CAS on a clean control word no longer forces a full writeback, and
    /// any ordering against other lines is the algorithm's job via
    /// explicit [`drain_line`](Self::drain_line) calls.
    #[inline]
    pub fn cas(&self, addr: PAddr, expected: u64, new: u64) -> Result<u64, u64> {
        if self.coalesce.load(Relaxed) {
            if self.per_address.load(Relaxed) {
                self.drain_units(&[self.flush_unit(addr)]);
            } else {
                self.drain();
            }
        }
        let shard = if self.instrumented { hook::step() } else { 0 };
        let w = self.word(addr);
        let r = w.volatile.compare_exchange(expected, new, SeqCst, SeqCst);
        if r.is_ok() {
            w.dirty.store(true, SeqCst);
        }
        if self.instrumented {
            self.stats.count(shard, if r.is_ok() { Counter::CasOk } else { Counter::CasFail });
        }
        r
    }

    /// Persists the data at `addr`, modelling PMDK's `pmem_persist`
    /// (CLWB + SFENCE): after `flush` returns, the value most recently
    /// written to `addr` (and, under line granularity, its cache-line
    /// neighbours) survives any subsequent crash.
    ///
    /// Under write-behind coalescing ([`set_coalescing`](Self::set_coalescing))
    /// a flush behaves like a bare `CLWB` instead: the unit (line or word)
    /// is added to a per-thread pending set and written back — paying the
    /// flush penalty — only at the next fence point (a [`cas`](Self::cas),
    /// [`fence`](Self::fence), or explicit
    /// [`drain`](Self::drain)). Duplicate flushes of an already-pending
    /// unit and flushes of entirely clean units cost nothing and are
    /// counted in [`StatsSnapshot::flushes_coalesced`]. A crash before the
    /// next fence point drops the pending units exactly as real hardware
    /// drops an un-fenced `CLWB`.
    #[inline]
    pub fn flush(&self, addr: PAddr) {
        self.instrument(Counter::Flushes);
        if self.coalesce.load(Relaxed) {
            self.flush_coalesced(addr);
            return;
        }
        self.pay_penalty();
        self.writeback_unit(self.flush_unit(addr));
    }

    /// The flush unit containing `addr`: the line base under line
    /// granularity, the word index under word granularity.
    #[inline]
    fn flush_unit(&self, addr: PAddr) -> u64 {
        match self.granularity {
            FlushGranularity::Word => addr.index(),
            FlushGranularity::Line => addr.index() / WORDS_PER_LINE * WORDS_PER_LINE,
        }
    }

    #[inline]
    fn pay_penalty(&self) {
        let penalty = self.flush_penalty.load(Relaxed);
        for _ in 0..penalty {
            std::hint::spin_loop();
        }
    }

    /// Writes back every word of `unit` (line base or word index).
    fn writeback_unit(&self, unit: u64) {
        match self.granularity {
            FlushGranularity::Word => self.writeback(self.word(PAddr::from_index(unit)), unit),
            FlushGranularity::Line => {
                // Segment boundaries are line-aligned (see `crate::seg`),
                // so the whole line lives in the unit's segment.
                for (k, w) in self.line(unit).iter().enumerate() {
                    self.writeback(w, unit + k as u64);
                }
            }
        }
    }

    /// Whether every word of `unit` is clean (volatile == persisted), in
    /// which case a flush of it is a no-op. A store racing with this check
    /// may be missed — the same latitude real hardware has for a value
    /// written after the flush began.
    fn unit_clean(&self, unit: u64) -> bool {
        match self.granularity {
            FlushGranularity::Word => !self.word(PAddr::from_index(unit)).dirty.load(SeqCst),
            FlushGranularity::Line => self.line(unit).iter().all(|w| !w.dirty.load(SeqCst)),
        }
    }

    /// The write-behind path of [`flush`](Self::flush): absorb duplicate
    /// and clean-unit flushes, defer the rest.
    fn flush_coalesced(&self, addr: PAddr) {
        let unit = self.flush_unit(addr);
        let generation = self.generation.load(SeqCst);
        PENDING.with(|p| {
            let mut map = p.borrow_mut();
            let set = map
                .entry(self.id)
                .and_modify(|s| {
                    // Entries pended before a crash are stale: the crash
                    // already reverted their volatile state, so replaying
                    // the writeback would be wrong (and pointless).
                    if s.generation != generation {
                        s.generation = generation;
                        s.units.clear();
                    }
                })
                .or_insert_with(|| PendingSet { generation, units: VecDeque::new() });
            if set.touch(unit) {
                // Already pending: this flush is absorbed outright (and
                // the unit is now the most recently flushed, so LRU
                // eviction keeps it pended longest).
                if self.instrumented {
                    self.stats.count(hook::shard(), Counter::FlushesCoalesced);
                }
                return;
            }
            if self.unit_clean(unit) {
                // Nothing to persist: the unit's last writeback already
                // holds its current value (e.g. a helping thread
                // re-flushing a link the owner persisted).
                if self.instrumented {
                    self.stats.count(hook::shard(), Counter::FlushesCoalesced);
                }
                return;
            }
            if set.units.len() >= MAX_PENDING {
                // Evict the OLDEST pending unit to make room rather than
                // draining everything: a 64-unit writeback burst stalls
                // this thread for 64 flush penalties mid-operation, and
                // under contention every other thread spins on its CASes
                // for the duration. Early writeback of a dirty line is
                // always legal — real hardware may evict any cache line at
                // any moment — so pay one penalty and keep going.
                let evicted = set.units.pop_front().expect("set is at capacity");
                self.pay_penalty();
                self.writeback_unit(evicted);
            }
            // Absent (the `touch` above missed), so append unconditionally.
            set.units.push_back(unit);
        });
    }

    /// An explicit store fence.
    ///
    /// In this simulator [`flush`](Self::flush) is synchronous, so the fence
    /// is a counted no-op; it exists so algorithms that issue a standalone
    /// `SFENCE` (e.g. PMwCAS) keep their instruction sequence — and their
    /// crash-point indices — faithful to the original. Under coalescing the
    /// fence is where deferred flushes actually write back.
    #[inline]
    pub fn fence(&self) {
        self.instrument(Counter::Fences);
        if self.coalesce.load(Relaxed) {
            self.drain();
        }
    }

    /// Enables or disables write-behind flush coalescing (default off).
    ///
    /// With coalescing off, every flush pays its penalty and writes back
    /// synchronously — the exact seed behaviour. Toggling it off drains the
    /// calling thread's pending units; other threads drain at their next
    /// fence point.
    ///
    /// `Relaxed` ordering: like the flush penalty, the knob synchronises
    /// nothing (see the module docs' ordering policy).
    pub fn set_coalescing(&self, on: bool) {
        self.coalesce.store(on, Relaxed);
        if !on {
            self.drain();
        }
    }

    /// Whether write-behind flush coalescing is enabled.
    pub fn coalescing(&self) -> bool {
        self.coalesce.load(Relaxed)
    }

    /// Enables or disables per-address ordering drains (default off).
    ///
    /// Only meaningful while coalescing is on. With the knob off,
    /// [`drain_line`](Self::drain_line) falls back to a whole-set
    /// [`drain`](Self::drain) and [`cas`](Self::cas) keeps draining the
    /// full pending set — the conservative PR 2 baseline. With it on, a
    /// fence point writes back only the lines it orders against and
    /// everything else stays pended across it.
    ///
    /// `Relaxed` ordering: like the other knobs, it synchronises nothing.
    pub fn set_per_address_drains(&self, on: bool) {
        self.per_address.store(on, Relaxed);
    }

    /// Whether per-address ordering drains are enabled.
    pub fn per_address_drains(&self) -> bool {
        self.per_address.load(Relaxed)
    }

    /// Writes back every flush this thread has pending on this pool,
    /// paying the deferred flush penalty per unit.
    ///
    /// Not an instrumented operation: draining neither steps crash
    /// countdowns nor counts in the statistics, so operation-indexed crash
    /// sweeps see identical indices with coalescing on and off.
    pub fn drain(&self) {
        PENDING.with(|p| {
            let mut map = p.borrow_mut();
            let Some(set) = map.get_mut(&self.id) else { return };
            if set.generation == self.generation.load(SeqCst) {
                for &u in &set.units {
                    self.pay_penalty();
                    self.writeback_unit(u);
                }
            }
            // Stale (pre-crash) entries are simply discarded: the crash
            // already reverted volatile state, so there is nothing to
            // write back. Removing the drained entry keeps the per-thread
            // map from accumulating dead pools.
            map.remove(&self.id);
        });
    }

    /// Writes back only the pending flush unit covering `addr`, leaving
    /// every other pending unit deferred. See [`Memory::drain_line`] for
    /// the full semantics; with per-address drains off this is the
    /// whole-set [`drain`](Self::drain), and with coalescing off it is a
    /// no-op (flushes were synchronous).
    ///
    /// Like [`drain`](Self::drain), not an instrumented operation: crash
    /// countdowns and statistics are untouched, so operation-indexed crash
    /// sweeps see identical indices across drain modes.
    pub fn drain_line(&self, addr: PAddr) {
        self.drain_lines(&[addr]);
    }

    /// [`drain_line`](Self::drain_line) over several addresses at once;
    /// addresses sharing a flush unit are written back once.
    pub fn drain_lines(&self, addrs: &[PAddr]) {
        if !self.coalesce.load(Relaxed) {
            return; // flushes were synchronous: nothing is pending
        }
        if !self.per_address.load(Relaxed) {
            // Conservative fallback: order against everything, exactly as
            // the whole-set baseline does at its fence points.
            self.drain();
            return;
        }
        match addrs {
            [] => {}
            [a] => self.drain_units(&[self.flush_unit(*a)]),
            _ => {
                let units: Vec<u64> = addrs.iter().map(|&a| self.flush_unit(a)).collect();
                self.drain_units(&units);
            }
        }
    }

    /// Persists a batch of addresses with one ordering point: every flush
    /// unit covering an address is flushed exactly once, then a single
    /// [`drain_lines`](Self::drain_lines) over the batch orders the set.
    ///
    /// This is the batch analogue of `flush` + `drain_line` and composes
    /// with every flush mode:
    /// * coalescing off — each deduplicated unit pays one synchronous
    ///   writeback (duplicate addresses in the batch are free, unlike a
    ///   per-op flush sequence which pays per call);
    /// * coalescing on, per-address off — units pend, then one whole-set
    ///   [`drain`](Self::drain);
    /// * coalescing on, per-address on — units pend, then only the
    ///   batch's own units are written back, leaving unrelated pending
    ///   flushes coalescible across the fence.
    ///
    /// On return every address in the batch is in the persistence domain;
    /// the replicated queue's appender persists each batch of log records,
    /// and each checkpoint snapshot, with this one call.
    pub fn persist_batch(&self, addrs: &[PAddr]) {
        if addrs.is_empty() {
            return;
        }
        let mut units: Vec<u64> = addrs.iter().map(|&a| self.flush_unit(a)).collect();
        units.sort_unstable();
        units.dedup();
        let reps: Vec<PAddr> = units.into_iter().map(PAddr::from_index).collect();
        for &r in &reps {
            self.flush(r);
        }
        self.drain_lines(&reps);
    }

    /// Writes back the named units if this thread has them pending,
    /// paying the deferred flush penalty per unit actually written back.
    fn drain_units(&self, units: &[u64]) {
        PENDING.with(|p| {
            let mut map = p.borrow_mut();
            let Some(set) = map.get_mut(&self.id) else { return };
            if set.generation != self.generation.load(SeqCst) {
                // Stale (pre-crash) entries: the crash already reverted the
                // volatile state, so discard rather than replay.
                map.remove(&self.id);
                return;
            }
            for &u in units {
                if set.remove(u) {
                    self.pay_penalty();
                    self.writeback_unit(u);
                }
            }
            if set.units.is_empty() {
                map.remove(&self.id);
            }
        });
    }

    fn writeback(&self, w: &Word, index: u64) {
        // Snapshot-then-store: a racing store may or may not be included,
        // which is exactly the latitude real hardware has for a value
        // written after the flush began. Equal values and clean flags
        // skip their stores — storing an identical value is a no-op, and
        // this keeps whole-line flushes cheap (most words of a line are
        // clean). On a file-backed pool the persisted shadow writes
        // through to the pool file: reaching the persistence domain IS
        // reaching the file.
        let v = w.volatile.load(SeqCst);
        if w.persisted.load(SeqCst) != v {
            w.persisted.store(v, SeqCst);
            if let SegmentBacking::File(fb) = &self.backing {
                fb.write_word(index, v);
            }
        }
        if w.dirty.load(SeqCst) {
            w.dirty.store(false, SeqCst);
        }
    }

    /// Simulates a system-wide crash: volatile state reverts to the
    /// persistence domain.
    ///
    /// First the `adversary` decides, for every dirty word, whether a
    /// spontaneous cache eviction persisted it; then every volatile value is
    /// replaced by its persisted shadow and the pool's
    /// [`generation`](Self::generation) increments. Every materialised
    /// segment is visited, so growth never exempts words from the crash.
    ///
    /// The caller must ensure no thread is concurrently operating on the
    /// pool (the machine has, after all, crashed).
    pub fn crash(&self, adversary: &WritebackAdversary) {
        let mut rng = match adversary {
            WritebackAdversary::Random { seed, prob } => {
                assert!((0.0..=1.0).contains(prob), "probability out of range");
                Some((CrashRng::new(*seed), *prob))
            }
            _ => None,
        };
        for slot in 0..seg::SLOTS {
            let Some(seg) = self.dir.get(slot) else { continue };
            let start = self.dir.layout().start(slot);
            for (i, w) in seg.iter().enumerate() {
                if w.dirty.load(SeqCst) {
                    let persist = match adversary {
                        WritebackAdversary::None => false,
                        WritebackAdversary::All => true,
                        WritebackAdversary::Random { .. } => {
                            let (rng, prob) = rng.as_mut().expect("rng initialized");
                            rng.survives(*prob)
                        }
                    };
                    if persist {
                        let v = w.volatile.load(SeqCst);
                        w.persisted.store(v, SeqCst);
                        if let SegmentBacking::File(fb) = &self.backing {
                            fb.write_word(start + i as u64, v);
                        }
                    }
                    w.dirty.store(false, SeqCst);
                }
                // Only a word whose volatile value differs from its
                // persisted one changes: store just those.
                let p = w.persisted.load(SeqCst);
                if w.volatile.load(SeqCst) != p {
                    w.volatile.store(p, SeqCst);
                }
            }
        }
        let generation = self.generation.fetch_add(1, SeqCst) + 1;
        if let SegmentBacking::File(fb) = &self.backing {
            fb.write_sb(seg::SB_GENERATION, generation);
        }
    }

    /// Arms the **current thread** to crash (unwind with
    /// [`CrashSignal`](crate::CrashSignal)) after `ops` more pmem
    /// operations. See the crate docs for the harness protocol.
    ///
    /// Only [`PoolMode::Instrumented`] pools step the countdown.
    pub fn arm_crash_after(&self, ops: u64) {
        hook::arm(ops);
    }

    /// Cancels any crash plan armed on the current thread.
    pub fn disarm_crash(&self) {
        hook::disarm();
    }

    /// Runs `f` with a crash armed after `k` more pmem operations on this
    /// thread ([`arm_crash_after`](Self::arm_crash_after)), disarms, and
    /// returns whether the armed crash fired. Any other panic propagates.
    /// The pool's state is left as the crash found it: simulate the power
    /// failure with [`crash`](Self::crash) next.
    pub fn crashes_within(&self, k: u64, f: impl FnOnce()) -> bool {
        self.arm_crash_after(k);
        let r = catch_unwind(AssertUnwindSafe(f));
        self.disarm_crash();
        match r {
            Ok(()) => false,
            Err(p) if p.downcast_ref::<crate::CrashSignal>().is_some() => true,
            Err(p) => resume_unwind(p),
        }
    }

    /// Operations remaining before the current thread's armed crash fires
    /// (0 when disarmed). Lets a sweep detect that an operation completed
    /// without reaching the requested crash point.
    pub fn crash_countdown(&self) -> u64 {
        hook::remaining()
    }

    /// The pool's operation counters (all zero in [`PoolMode::Raw`]).
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Resets the pool's operation counters.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Test/inspection helper: the persisted shadow of `addr` (what a crash
    /// right now would preserve), bypassing hooks and stats.
    pub fn persisted_value(&self, addr: PAddr) -> u64 {
        self.word(addr).persisted.load(SeqCst)
    }

    /// Test/inspection helper: the volatile value of `addr`, bypassing hooks
    /// and stats.
    #[inline]
    pub fn peek(&self, addr: PAddr) -> u64 {
        self.word(addr).volatile.load(SeqCst)
    }

    /// Test/inspection helper: whether `addr` has been written since its
    /// last flush.
    pub fn is_dirty(&self, addr: PAddr) -> bool {
        self.word(addr).dirty.load(SeqCst)
    }

    /// Whether this pool's persistence domain is a file (created with
    /// [`create`](Self::create) or [`attach`](Self::attach)) rather than
    /// anonymous process memory.
    pub fn is_file_backed(&self) -> bool {
        matches!(self.backing, SegmentBacking::File(_))
    }

    /// Number of application-config words available to
    /// [`set_app_config`](Self::set_app_config).
    pub const APP_CONFIG_WORDS: usize = seg::APP_WORDS;

    /// Records the owning structure's identity in the pool: a `kind` tag
    /// plus up to [`APP_CONFIG_WORDS`](Self::APP_CONFIG_WORDS) parameter
    /// words (thread counts, nodes per thread, …). On a file-backed pool
    /// the words are written through to the superblock, which is what
    /// makes a pool file *self-describing*: `attach` needs nothing but the
    /// path. Anonymous pools keep them in DRAM (useful for symmetry in
    /// tests).
    ///
    /// # Panics
    ///
    /// Panics if `kind` is 0 (the "unset" sentinel) or `params` exceeds
    /// [`APP_CONFIG_WORDS`](Self::APP_CONFIG_WORDS).
    pub fn set_app_config(&self, kind: u64, params: &[u64]) {
        assert!(kind != 0, "app kind 0 is the unset sentinel");
        assert!(params.len() <= seg::APP_WORDS, "too many app-config words");
        self.app[0].store(kind, SeqCst);
        for (i, &p) in params.iter().enumerate() {
            self.app[1 + i].store(p, SeqCst);
        }
        if let SegmentBacking::File(fb) = &self.backing {
            fb.write_sb(seg::SB_APP_KIND, kind);
            for (i, &p) in params.iter().enumerate() {
                fb.write_sb(seg::SB_APP + i as u64, p);
            }
        }
    }

    /// The structure-kind tag recorded by
    /// [`set_app_config`](Self::set_app_config), or 0 if none was.
    pub fn app_kind(&self) -> u64 {
        self.app[0].load(SeqCst)
    }

    /// The application-config parameter words (zeros where unset).
    pub fn app_config(&self) -> [u64; seg::APP_WORDS] {
        let mut out = [0u64; seg::APP_WORDS];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.app[1 + i].load(SeqCst);
        }
        out
    }
}

impl Memory for PmemPool {
    fn create(words: usize, granularity: FlushGranularity) -> Self {
        PmemPool::with_granularity(words, granularity)
    }

    fn load(&self, addr: PAddr) -> u64 {
        PmemPool::load(self, addr)
    }

    fn store(&self, addr: PAddr, value: u64) {
        PmemPool::store(self, addr, value)
    }

    fn cas(&self, addr: PAddr, expected: u64, new: u64) -> Result<u64, u64> {
        PmemPool::cas(self, addr, expected, new)
    }

    fn flush(&self, addr: PAddr) {
        PmemPool::flush(self, addr)
    }

    fn fence(&self) {
        PmemPool::fence(self)
    }

    fn granularity(&self) -> FlushGranularity {
        PmemPool::granularity(self)
    }

    fn capacity(&self) -> usize {
        PmemPool::capacity(self)
    }

    fn reserve(&self, words: usize) {
        PmemPool::reserve(self, words)
    }

    fn peek(&self, addr: PAddr) -> u64 {
        PmemPool::peek(self, addr)
    }

    fn set_flush_penalty(&self, spins: u64) {
        PmemPool::set_flush_penalty(self, spins)
    }

    fn flush_penalty(&self) -> u64 {
        PmemPool::flush_penalty(self)
    }

    fn stats(&self) -> StatsSnapshot {
        PmemPool::stats(self)
    }

    fn reset_stats(&self) {
        PmemPool::reset_stats(self)
    }

    fn set_coalescing(&self, on: bool) {
        PmemPool::set_coalescing(self, on)
    }

    fn coalescing(&self) -> bool {
        PmemPool::coalescing(self)
    }

    fn drain(&self) {
        PmemPool::drain(self)
    }

    fn drain_line(&self, addr: PAddr) {
        PmemPool::drain_line(self, addr)
    }

    fn drain_lines(&self, addrs: &[PAddr]) {
        PmemPool::drain_lines(self, addrs)
    }

    fn persist_batch(&self, addrs: &[PAddr]) {
        PmemPool::persist_batch(self, addrs)
    }

    fn set_per_address_drains(&self, on: bool) {
        PmemPool::set_per_address_drains(self, on)
    }

    fn per_address_drains(&self) -> bool {
        PmemPool::per_address_drains(self)
    }

    fn crash_generation(&self) -> u64 {
        PmemPool::generation(self)
    }
}

impl fmt::Debug for PmemPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PmemPool")
            .field("capacity", &self.capacity())
            .field("granularity", &self.granularity)
            .field("mode", &self.mode())
            .field("generation", &self.generation.load(SeqCst))
            .field(
                "backing",
                &match self.backing {
                    SegmentBacking::Anonymous => "anonymous",
                    SegmentBacking::File(_) => "file",
                },
            )
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(i: u64) -> PAddr {
        PAddr::from_index(i)
    }

    #[test]
    fn granularity_names_round_trip() {
        for g in [FlushGranularity::Line, FlushGranularity::Word] {
            assert_eq!(FlushGranularity::parse(g.name()), g);
        }
    }

    #[test]
    fn store_is_volatile_until_flushed() {
        let p = PmemPool::with_capacity(32);
        p.store(addr(1), 42);
        assert_eq!(p.load(addr(1)), 42);
        assert_eq!(p.persisted_value(addr(1)), 0);
        assert!(p.is_dirty(addr(1)));
        p.flush(addr(1));
        assert_eq!(p.persisted_value(addr(1)), 42);
        assert!(!p.is_dirty(addr(1)));
    }

    #[test]
    fn crash_discards_unflushed_state() {
        let p = PmemPool::with_capacity(32);
        p.store(addr(1), 1);
        p.flush(addr(1));
        p.store(addr(1), 2); // unflushed overwrite
        p.store(addr(9), 3); // different line, unflushed
        p.crash(&WritebackAdversary::None);
        assert_eq!(p.load(addr(1)), 1);
        assert_eq!(p.load(addr(9)), 0);
        assert_eq!(p.generation(), 1);
    }

    #[test]
    fn adversary_all_persists_everything() {
        let p = PmemPool::with_capacity(32);
        p.store(addr(1), 7);
        p.store(addr(20), 8);
        p.crash(&WritebackAdversary::All);
        assert_eq!(p.load(addr(1)), 7);
        assert_eq!(p.load(addr(20)), 8);
    }

    #[test]
    fn adversary_random_is_reproducible() {
        let outcome = |seed| {
            let p = PmemPool::with_capacity(256);
            for i in 1..256 {
                p.store(addr(i), i);
            }
            p.crash(&WritebackAdversary::Random { seed, prob: 0.5 });
            (1..256).map(|i| p.load(addr(i))).collect::<Vec<_>>()
        };
        assert_eq!(outcome(12), outcome(12));
        assert_ne!(outcome(12), outcome(13), "distinct seeds should differ");
    }

    #[test]
    fn cas_success_and_failure() {
        let p = PmemPool::with_capacity(8);
        assert_eq!(p.cas(addr(1), 0, 5), Ok(0));
        assert_eq!(p.cas(addr(1), 0, 6), Err(5));
        assert_eq!(p.load(addr(1)), 5);
        let s = p.stats();
        assert_eq!(s.cas_ok, 1);
        assert_eq!(s.cas_fail, 1);
    }

    #[test]
    fn line_granularity_persists_neighbours() {
        let p = PmemPool::with_granularity(32, FlushGranularity::Line);
        p.store(addr(8), 1); // line 1 spans words 8..16
        p.store(addr(15), 2);
        p.flush(addr(8));
        p.crash(&WritebackAdversary::None);
        assert_eq!(p.load(addr(8)), 1);
        assert_eq!(p.load(addr(15)), 2, "same line flushed together");
    }

    #[test]
    fn word_granularity_persists_only_the_word() {
        let p = PmemPool::with_granularity(32, FlushGranularity::Word);
        p.store(addr(8), 1);
        p.store(addr(9), 2);
        p.flush(addr(8));
        p.crash(&WritebackAdversary::None);
        assert_eq!(p.load(addr(8)), 1);
        assert_eq!(p.load(addr(9)), 0, "neighbour not flushed");
    }

    #[test]
    fn armed_crash_unwinds_with_signal() {
        let p = PmemPool::with_capacity(8);
        p.arm_crash_after(2);
        p.store(addr(1), 1);
        assert_eq!(p.crash_countdown(), 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.store(addr(2), 2);
        }));
        assert!(r.unwrap_err().downcast_ref::<crate::CrashSignal>().is_some());
        // The interrupted store never executed.
        assert_eq!(p.peek(addr(2)), 0);
        p.disarm_crash();
    }

    #[test]
    fn stats_count_all_primitives() {
        let p = PmemPool::with_capacity(8);
        p.reset_stats();
        p.load(addr(1));
        p.store(addr(1), 1);
        let _ = p.cas(addr(1), 1, 2);
        p.flush(addr(1));
        p.fence();
        let s = p.stats();
        assert_eq!((s.loads, s.stores, s.cas_ok, s.flushes, s.fences), (1, 1, 1, 1, 1));
    }

    #[test]
    fn raw_mode_counts_nothing_and_never_crashes() {
        let p = PmemPool::with_mode(32, FlushGranularity::Line, PoolMode::Raw);
        assert_eq!(p.mode(), PoolMode::Raw);
        p.arm_crash_after(1); // must never fire: raw pools don't step hooks
        p.store(addr(1), 7);
        p.load(addr(1));
        let _ = p.cas(addr(1), 7, 8);
        p.flush(addr(1));
        p.fence();
        p.disarm_crash();
        assert_eq!(p.stats(), StatsSnapshot::default());
        // Persistence semantics are unchanged by the mode.
        p.crash(&WritebackAdversary::None);
        assert_eq!(p.load(addr(1)), 8, "flushed value survives in raw mode");
    }

    #[test]
    fn flush_last_partial_line_in_bounds() {
        // Capacity not a multiple of the line size: flushing the last line
        // must not index out of bounds (the layout rounds up to a line).
        let p = PmemPool::with_granularity(10, FlushGranularity::Line);
        p.store(addr(9), 3);
        p.flush(addr(9));
        p.crash(&WritebackAdversary::None);
        assert_eq!(p.load(addr(9)), 3);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn zero_capacity_rejected() {
        let _ = PmemPool::with_capacity(0);
    }

    #[test]
    fn grows_past_initial_capacity_without_panicking() {
        let p = PmemPool::with_capacity(16);
        let initial = p.capacity();
        assert!(initial >= 16);
        // Address far past the initial capacity: materialises on demand.
        let far = addr(10 * initial as u64);
        p.store(far, 77);
        assert_eq!(p.load(far), 77);
        assert!(p.capacity() > 10 * initial, "capacity grew to cover the access");
        // Untouched words in between read as zero without materialising
        // their own values.
        assert_eq!(p.load(addr(initial as u64 + 1)), 0);
    }

    #[test]
    fn crash_semantics_unchanged_under_growth() {
        let p = PmemPool::with_capacity(16);
        let far = addr(1000); // well past the initial 16 words
        p.store(far, 5);
        p.flush(far);
        p.store(far, 6); // unflushed overwrite in a grown segment
        p.store(addr(1), 9); // unflushed in the initial segment
        p.crash(&WritebackAdversary::None);
        assert_eq!(p.load(far), 5, "grown segment participates in the crash");
        assert_eq!(p.load(addr(1)), 0);
    }

    #[test]
    fn reserve_materialises_capacity_up_front() {
        let p = PmemPool::with_capacity(8);
        let before = p.capacity();
        p.reserve(before * 6);
        assert!(p.capacity() >= before * 6);
        p.reserve(1); // idempotent, never shrinks
        assert!(p.capacity() >= before * 6);
    }

    #[test]
    fn flush_penalty_round_trip() {
        let p = PmemPool::with_capacity(8);
        assert_eq!(p.flush_penalty(), 0);
        p.set_flush_penalty(10);
        assert_eq!(p.flush_penalty(), 10);
        p.store(addr(1), 1);
        p.flush(addr(1)); // still correct, just slower
        assert_eq!(p.persisted_value(addr(1)), 1);
    }

    #[test]
    fn debug_is_nonempty() {
        let p = PmemPool::with_capacity(8);
        assert!(format!("{p:?}").contains("PmemPool"));
    }

    #[test]
    fn coalescing_defers_writeback_until_fence() {
        let p = PmemPool::with_granularity(32, FlushGranularity::Word);
        p.set_coalescing(true);
        assert!(p.coalescing());
        p.store(addr(1), 7);
        p.flush(addr(1)); // pended, not written back yet
        assert_eq!(p.persisted_value(addr(1)), 0, "flush is write-behind");
        p.fence();
        assert_eq!(p.persisted_value(addr(1)), 7, "fence drains pending flushes");
    }

    #[test]
    fn coalescing_dedups_repeat_flushes_and_counts_them() {
        let p = PmemPool::with_granularity(32, FlushGranularity::Word);
        p.set_coalescing(true);
        p.reset_stats();
        p.store(addr(1), 7);
        p.flush(addr(1));
        p.flush(addr(1)); // duplicate: absorbed by the pending set
        let s = p.stats();
        assert_eq!(s.flushes, 2, "every flush call is counted, coalesced or not");
        assert_eq!(s.flushes_coalesced, 1, "the duplicate was absorbed");
        assert_eq!(s.stores, 1);
        p.fence();
        assert_eq!(p.persisted_value(addr(1)), 7);
    }

    #[test]
    fn coalescing_line_granularity_dedups_neighbours() {
        let p = PmemPool::with_granularity(32, FlushGranularity::Line);
        p.set_coalescing(true);
        p.reset_stats();
        p.store(addr(8), 1);
        p.store(addr(9), 2);
        p.flush(addr(8));
        p.flush(addr(9)); // same line: coalesced
        let s = p.stats();
        assert_eq!(s.flushes, 2, "every flush call is counted");
        assert_eq!(s.flushes_coalesced, 1, "the same-line repeat was absorbed");
        p.fence();
        assert_eq!(p.persisted_value(addr(8)), 1);
        assert_eq!(p.persisted_value(addr(9)), 2);
    }

    #[test]
    fn coalescing_suppresses_clean_unit_flushes() {
        let p = PmemPool::with_granularity(32, FlushGranularity::Word);
        p.set_coalescing(true);
        p.store(addr(1), 7);
        p.flush(addr(1));
        p.fence(); // word now clean
        p.reset_stats();
        p.flush(addr(1)); // nothing dirty: absorbed without pending
        let s = p.stats();
        assert_eq!((s.flushes, s.flushes_coalesced), (1, 1));
        p.fence();
        assert_eq!(p.persisted_value(addr(1)), 7);
    }

    #[test]
    fn cas_drains_pending_flushes_but_store_does_not() {
        let p = PmemPool::with_granularity(32, FlushGranularity::Word);
        p.set_coalescing(true);
        p.store(addr(1), 7);
        p.flush(addr(1));
        p.store(addr(2), 1); // a plain store is not a fence point
        assert_eq!(p.persisted_value(addr(1)), 0);
        let _ = p.cas(addr(2), 1, 2); // a locked instruction is, win or lose
        assert_eq!(p.persisted_value(addr(1)), 7);
        p.store(addr(3), 3);
        p.flush(addr(3));
        let _ = p.cas(addr(2), 9, 9); // failing CAS
        assert_eq!(p.persisted_value(addr(3)), 3);
    }

    #[test]
    fn crash_drops_pending_flushes() {
        let p = PmemPool::with_granularity(32, FlushGranularity::Word);
        p.set_coalescing(true);
        p.store(addr(1), 7);
        p.flush(addr(1)); // pended, never drained
        p.crash(&WritebackAdversary::None);
        assert_eq!(p.load(addr(1)), 0, "a pending flush is lost at a crash");
        // The stale pending entry must not leak into the new generation.
        p.store(addr(2), 9);
        p.drain();
        assert_eq!(p.persisted_value(addr(1)), 0, "stale pending entry discarded");
        assert_eq!(p.persisted_value(addr(2)), 0, "addr 2 was never flushed");
    }

    #[test]
    fn disabling_coalescing_drains_the_calling_thread() {
        let p = PmemPool::with_granularity(32, FlushGranularity::Word);
        p.set_coalescing(true);
        p.store(addr(1), 7);
        p.flush(addr(1));
        p.set_coalescing(false);
        assert!(!p.coalescing());
        assert_eq!(p.persisted_value(addr(1)), 7, "turn-off drains pending flushes");
        // Back in eager mode, flushes write back immediately again.
        p.store(addr(2), 8);
        p.flush(addr(2));
        assert_eq!(p.persisted_value(addr(2)), 8);
    }

    #[test]
    fn pending_set_overflow_evicts_incrementally() {
        let n = MAX_PENDING as u64;
        let p = PmemPool::with_granularity(1024, FlushGranularity::Word);
        p.set_coalescing(true);
        for i in 1..=n + 1 {
            p.store(addr(i), i);
            p.flush(addr(i));
        }
        // The (MAX_PENDING+1)th distinct unit overflowed the bounded
        // pending set, evicting exactly one unit (the least recently
        // flushed) instead of bursting the whole set back; everything else
        // stays pending.
        assert_eq!(p.persisted_value(addr(1)), 1, "one unit evicted on overflow");
        assert_eq!(p.persisted_value(addr(2)), 0, "the rest stay pending");
        assert_eq!(p.persisted_value(addr(n)), 0);
        assert_eq!(p.persisted_value(addr(n + 1)), 0);
        p.drain();
        assert_eq!(p.persisted_value(addr(2)), 2);
        assert_eq!(p.persisted_value(addr(n + 1)), n + 1);
    }

    #[test]
    fn duplicate_flush_refreshes_eviction_recency() {
        let n = MAX_PENDING as u64;
        let p = PmemPool::with_granularity(1024, FlushGranularity::Word);
        p.set_coalescing(true);
        for i in 1..=n {
            p.store(addr(i), i);
            p.flush(addr(i));
        }
        // Re-flushing the oldest unit is absorbed AND marks it most
        // recently used, so the next overflow evicts unit 2, not unit 1.
        p.flush(addr(1));
        p.store(addr(n + 1), n + 1);
        p.flush(addr(n + 1));
        assert_eq!(p.persisted_value(addr(1)), 0, "touched unit stays pending");
        assert_eq!(p.persisted_value(addr(2)), 2, "LRU unit evicted instead");
    }

    #[test]
    fn pools_do_not_share_pending_sets() {
        let a = PmemPool::with_granularity(32, FlushGranularity::Word);
        let b = PmemPool::with_granularity(32, FlushGranularity::Word);
        a.set_coalescing(true);
        b.set_coalescing(true);
        a.store(addr(1), 1);
        a.flush(addr(1));
        b.store(addr(1), 2);
        b.flush(addr(1));
        a.drain();
        assert_eq!(a.persisted_value(addr(1)), 1);
        assert_eq!(b.persisted_value(addr(1)), 0, "draining pool a leaves pool b pending");
        b.drain();
        assert_eq!(b.persisted_value(addr(1)), 2);
    }

    #[test]
    fn per_address_cas_drains_only_its_own_line() {
        let p = PmemPool::with_granularity(64, FlushGranularity::Word);
        p.set_coalescing(true);
        p.set_per_address_drains(true);
        assert!(p.per_address_drains());
        p.store(addr(1), 7);
        p.flush(addr(1)); // pended on an unrelated line
        p.store(addr(2), 1);
        p.flush(addr(2));
        let _ = p.cas(addr(2), 1, 3); // fence point only for its own unit
        assert_eq!(p.persisted_value(addr(2)), 1, "the CAS wrote back its own unit");
        assert_eq!(p.persisted_value(addr(1)), 0, "the unrelated unit stayed pended");
        p.drain();
        assert_eq!(p.persisted_value(addr(1)), 7);
    }

    #[test]
    fn per_address_cas_on_clean_word_writes_back_nothing() {
        let p = PmemPool::with_granularity(64, FlushGranularity::Word);
        p.set_coalescing(true);
        p.set_per_address_drains(true);
        p.store(addr(1), 7);
        p.flush(addr(1));
        // CAS on a word that was never flushed: no pending unit to drain.
        let _ = p.cas(addr(9), 0, 1);
        assert_eq!(p.persisted_value(addr(1)), 0, "clean control word forced no writeback");
        p.fence(); // SFENCE still orders everything
        assert_eq!(p.persisted_value(addr(1)), 7);
    }

    #[test]
    fn drain_line_writes_back_only_the_named_line() {
        let p = PmemPool::with_granularity(64, FlushGranularity::Line);
        p.set_coalescing(true);
        p.set_per_address_drains(true);
        p.store(addr(8), 1); // line 1
        p.flush(addr(8));
        p.store(addr(16), 2); // line 2
        p.flush(addr(16));
        p.drain_line(addr(9)); // any address within line 1
        assert_eq!(p.persisted_value(addr(8)), 1);
        assert_eq!(p.persisted_value(addr(16)), 0, "other line stayed pended");
        p.drain_lines(&[addr(16), addr(17)]); // same unit named twice
        assert_eq!(p.persisted_value(addr(16)), 2);
    }

    #[test]
    fn drain_line_without_per_address_falls_back_to_whole_set() {
        let p = PmemPool::with_granularity(64, FlushGranularity::Word);
        p.set_coalescing(true);
        p.store(addr(1), 1);
        p.flush(addr(1));
        p.store(addr(2), 2);
        p.flush(addr(2));
        p.drain_line(addr(1)); // knob off: conservative whole-set drain
        assert_eq!(p.persisted_value(addr(1)), 1);
        assert_eq!(p.persisted_value(addr(2)), 2);
    }

    #[test]
    fn drain_line_is_a_noop_without_coalescing() {
        let p = PmemPool::with_granularity(64, FlushGranularity::Word);
        p.set_per_address_drains(true);
        p.store(addr(1), 1);
        p.drain_line(addr(1)); // nothing pending, nothing flushed
        assert_eq!(p.persisted_value(addr(1)), 0);
    }

    #[test]
    fn crash_drops_pending_flushes_under_per_address_drains() {
        let p = PmemPool::with_granularity(64, FlushGranularity::Word);
        p.set_coalescing(true);
        p.set_per_address_drains(true);
        p.store(addr(1), 7);
        p.flush(addr(1)); // pended, never drained
        p.store(addr(2), 9);
        p.flush(addr(2));
        p.drain_line(addr(2)); // only this line was ordered
        p.crash(&WritebackAdversary::None);
        assert_eq!(p.load(addr(1)), 0, "an un-drained line is lost at a crash");
        assert_eq!(p.load(addr(2)), 9, "a drained line survives");
        // Stale entries must not replay into the new generation.
        p.store(addr(3), 3);
        p.flush(addr(3));
        p.drain_line(addr(1));
        assert_eq!(p.persisted_value(addr(1)), 0, "stale pending entry discarded");
    }

    /// A unique temp path for file-backing tests (no external tempdir
    /// crate in the offline workspace).
    fn temp_pool_path(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Relaxed);
        std::env::temp_dir().join(format!("dss-pool-test-{}-{tag}-{n}", std::process::id()))
    }

    struct TempFile(std::path::PathBuf);
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn create_attach_round_trip_preserves_flushed_state() {
        let t = TempFile(temp_pool_path("roundtrip"));
        {
            let p = PmemPool::create(&t.0, 64, FlushGranularity::Line).unwrap();
            assert!(p.is_file_backed());
            p.store(addr(1), 41);
            p.flush(addr(1));
            p.store(addr(2), 99); // never flushed: must NOT survive
            p.set_app_config(7, &[3, 4]);
        } // pool dropped — simulates the process dying
        let p = PmemPool::attach(&t.0).unwrap();
        assert!(p.is_file_backed());
        assert_eq!(p.granularity(), FlushGranularity::Line);
        assert_eq!(p.load(addr(1)), 41, "flushed state survives the process");
        assert_eq!(p.load(addr(2)), 0, "unflushed state dies with the process");
        assert!(!p.is_dirty(addr(1)));
        assert_eq!(p.generation(), 1, "attach is a crash boundary");
        assert_eq!(p.app_kind(), 7);
        assert_eq!(p.app_config()[..2], [3, 4]);
    }

    #[test]
    fn attach_loses_pended_coalesced_flushes() {
        let t = TempFile(temp_pool_path("pended"));
        {
            let p = PmemPool::create(&t.0, 64, FlushGranularity::Word).unwrap();
            p.set_coalescing(true);
            p.store(addr(1), 7);
            p.flush(addr(1)); // pended, never fenced
            p.store(addr(2), 8);
            p.flush(addr(2));
            p.fence(); // both written back at the fence
            p.store(addr(3), 9);
            p.flush(addr(3)); // pended again, no fence before "death"
        }
        let p = PmemPool::attach(&t.0).unwrap();
        assert_eq!(p.load(addr(1)), 7);
        assert_eq!(p.load(addr(2)), 8);
        assert_eq!(p.load(addr(3)), 0, "un-fenced CLWB dies with the process");
    }

    #[test]
    fn attach_rejects_garbage_and_missing_files() {
        let t = TempFile(temp_pool_path("garbage"));
        std::fs::write(&t.0, b"definitely not a pool file, far too short").unwrap();
        match PmemPool::attach(&t.0) {
            Err(AttachError::Io(_)) | Err(AttachError::BadMagic { .. }) => {}
            other => panic!("expected Io/BadMagic, got {other:?}"),
        }
        let missing = temp_pool_path("missing");
        assert!(matches!(PmemPool::attach(&missing), Err(AttachError::Io(_))));
    }

    #[test]
    fn attach_rejects_bad_version_and_corrupt_superblock() {
        use std::os::unix::fs::FileExt;
        let t = TempFile(temp_pool_path("version"));
        drop(PmemPool::create(&t.0, 64, FlushGranularity::Line).unwrap());
        let f = std::fs::OpenOptions::new().write(true).open(&t.0).unwrap();
        f.write_all_at(&99u64.to_le_bytes(), 8 * seg::SB_VERSION).unwrap();
        assert!(matches!(PmemPool::attach(&t.0), Err(AttachError::BadVersion { found: 99 })));
        f.write_all_at(&seg::LAYOUT_VERSION.to_le_bytes(), 8 * seg::SB_VERSION).unwrap();
        f.write_all_at(&3u64.to_le_bytes(), 8 * seg::SB_GRANULARITY).unwrap();
        let e = PmemPool::attach(&t.0).unwrap_err();
        assert!(matches!(e, AttachError::Corrupt(_)), "bad granularity code: {e}");
    }

    #[test]
    fn file_backed_growth_is_crash_atomic_across_attach() {
        let t = TempFile(temp_pool_path("growth"));
        let far = addr(4096);
        {
            let p = PmemPool::create(&t.0, 16, FlushGranularity::Line).unwrap();
            p.store(far, 55); // materialises (and commits) a far segment
            p.flush(far);
        }
        let p = PmemPool::attach(&t.0).unwrap();
        assert_eq!(p.load(far), 55, "grown segment survives via the watermark");
        assert!(p.capacity() > 4096);
    }

    #[test]
    fn in_process_crash_works_on_file_backed_pools() {
        let t = TempFile(temp_pool_path("crash"));
        let p = PmemPool::create(&t.0, 64, FlushGranularity::Line).unwrap();
        p.store(addr(1), 1);
        p.flush(addr(1));
        p.store(addr(1), 2); // unflushed overwrite
        p.crash(&WritebackAdversary::None);
        assert_eq!(p.load(addr(1)), 1);
        assert_eq!(p.generation(), 1);
        drop(p);
        // The crash's generation bump is durable in the superblock.
        let p = PmemPool::attach(&t.0).unwrap();
        assert_eq!(p.generation(), 2, "in-process crash + attach boundary");
        assert_eq!(p.load(addr(1)), 1);
    }

    #[test]
    fn anonymous_pools_report_no_file_backing() {
        let p = PmemPool::with_capacity(8);
        assert!(!p.is_file_backed());
        // App config still round-trips in DRAM for API symmetry.
        p.set_app_config(3, &[1]);
        assert_eq!(p.app_kind(), 3);
        assert_eq!(p.app_config()[0], 1);
    }

    #[test]
    fn concurrent_cas_is_atomic() {
        use std::sync::Arc;
        let p = Arc::new(PmemPool::with_capacity(8));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    let mut wins = 0u64;
                    for _ in 0..1000 {
                        loop {
                            let cur = p.load(addr(1));
                            if p.cas(addr(1), cur, cur + 1).is_ok() {
                                wins += 1;
                                break;
                            }
                        }
                    }
                    wins
                })
            })
            .collect();
        let total: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(total, 4000);
        assert_eq!(p.load(addr(1)), 4000);
    }

    #[test]
    fn concurrent_growth_is_consistent() {
        use std::sync::Arc;
        let p = Arc::new(PmemPool::with_capacity(8));
        // All threads race to touch the same far segment: exactly one
        // materialisation wins and every increment lands.
        let far = 4096u64;
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let a = addr(far + (i % 64));
                        loop {
                            let cur = p.load(a);
                            if p.cas(a, cur, cur + 1).is_ok() {
                                break;
                            }
                        }
                        let _ = t;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total: u64 = (0..64).map(|i| p.load(addr(far + i))).sum();
        assert_eq!(total, 2000);
    }
}
