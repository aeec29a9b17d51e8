//! Address layout and backing store of a growable segmented pool.
//!
//! A pool's words live in up to [`SLOTS`] independently-allocated segments
//! listed in a fixed directory, so the pool can grow lock-free: segment 0
//! has the initial capacity (rounded up to whole cache lines) and each
//! subsequent segment doubles the total, the classic segmented-vector
//! layout. A word address maps to (slot, offset) with two shifts and no
//! locks, existing segments are never moved (so `&Word` references stay
//! valid forever), and the directory is small enough to scan when a crash
//! or capacity query needs to visit every materialised word.
//!
//! Because segment 0's length is a multiple of
//! [`WORDS_PER_LINE`](crate::WORDS_PER_LINE) and every later segment's
//! length is `base << k`, segment boundaries always fall on cache-line
//! boundaries: a line flush never straddles two segments.
//!
//! # Segment backing
//!
//! A pool's *persistence domain* lives behind a [`SegmentBacking`]:
//!
//! * [`SegmentBacking::Anonymous`] — persisted shadows live in process
//!   DRAM, exactly the pre-file behaviour. Nothing outlives the process.
//! * [`SegmentBacking::File`] — persisted shadows are written through to a
//!   pool *file*, so a process that dies (even by `SIGKILL`) leaves behind
//!   precisely its persistence domain: everything flushed-and-fenced
//!   survives, everything volatile (unflushed stores, pended coalesced
//!   flushes) dies with the process, with no crash-reversion step needed.
//!   A fresh process [`attach`](crate::PmemPool::attach)es by reading the
//!   file back.
//!
//! # On-disk format
//!
//! The file starts with a 4096-byte superblock of little-endian u64 words
//! (`SB_*` offsets below): magic, layout version, segment-0 length, flush
//! granularity, crash generation, the committed-segment bitmap, and eight
//! application-config words a data structure uses to make its pool file
//! self-describing. Word `i`'s persisted value lives at byte
//! `HEADER_BYTES + 8 * i`.
//!
//! **Crash-atomic growth**: materialising segment `s` first extends the
//! file to cover `[0, end(s))` (new bytes read as zero), *then* publishes
//! bit `s` of the committed bitmap. A crash between the two leaves a
//! longer file whose extra bytes no attach will ever read — the bitmap is
//! the watermark of record. Reads and writebacks stay lock-free; only the
//! cold grow path serialises on a mutex.

use std::fmt;
use std::fs::File;
use std::io;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Mutex, OnceLock};

use crate::WORDS_PER_LINE;

/// Superblock word offsets (u64 indices into the header).
pub(crate) const SB_MAGIC: u64 = 0;
pub(crate) const SB_VERSION: u64 = 1;
pub(crate) const SB_BASE: u64 = 2;
pub(crate) const SB_GRANULARITY: u64 = 3;
pub(crate) const SB_GENERATION: u64 = 4;
pub(crate) const SB_COMMITTED: u64 = 5;
pub(crate) const SB_APP_KIND: u64 = 6;
pub(crate) const SB_APP: u64 = 7;

/// Number of application-config words after [`SB_APP_KIND`].
pub(crate) const APP_WORDS: usize = 8;

/// `b"DSSPOOL1"` as a little-endian u64.
pub(crate) const MAGIC: u64 = u64::from_le_bytes(*b"DSSPOOL1");

/// Bumped whenever the on-disk layout changes incompatibly. Version 2:
/// the register and the CAS object share one value-node layout, and their
/// initial value is a pool node.
pub(crate) const LAYOUT_VERSION: u64 = 2;

/// Byte length of the superblock; word data starts here.
pub(crate) const HEADER_BYTES: u64 = 4096;

/// Why a pool file could not be created or attached.
///
/// Implements [`std::error::Error`], so harness binaries propagate it
/// with `?` instead of `map_err`/`unwrap` chains.
#[derive(Debug)]
pub enum AttachError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// The file does not start with the pool magic — not a pool file.
    BadMagic {
        /// The value found where the magic `b"DSSPOOL1"` was expected.
        found: u64,
    },
    /// The file is a pool, but of an incompatible layout version.
    BadVersion {
        /// The version the file declares.
        found: u64,
    },
    /// A superblock field is internally inconsistent (bad granularity
    /// code, unaligned segment-0 length, committed bitmap out of range,
    /// file shorter than its committed watermark promises, …).
    Corrupt(&'static str),
    /// The file holds a different data structure than the attacher
    /// expected (application-kind word mismatch).
    AppMismatch {
        /// The kind the attaching structure expected.
        expected: u64,
        /// The kind recorded in the file.
        found: u64,
    },
}

impl fmt::Display for AttachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttachError::Io(e) => write!(f, "pool file I/O error: {e}"),
            AttachError::BadMagic { found } => {
                write!(f, "not a pool file (magic {found:#018x})")
            }
            AttachError::BadVersion { found } => {
                write!(f, "unsupported pool layout version {found}")
            }
            AttachError::Corrupt(what) => write!(f, "corrupt pool file: {what}"),
            AttachError::AppMismatch { expected, found } => {
                write!(f, "pool file holds structure kind {found}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for AttachError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AttachError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for AttachError {
    fn from(e: io::Error) -> Self {
        AttachError::Io(e)
    }
}

/// Every data-structure kind that can own a pool file, with its
/// application-kind word (the superblock slot
/// [`PmemPool::app_kind`](crate::PmemPool::app_kind) reads back).
///
/// The tag values are the on-disk format: they were assigned in the order
/// the structures landed and must never be renumbered. Structures expose
/// `KIND_*` constants defined through [`AppKind::word`], and attach paths
/// compare the file's kind word against their own, so a queue pool can
/// never be misread as a stack pool (see
/// [`AttachError::AppMismatch`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum AppKind {
    /// The detectable DSS queue (`DssQueue`).
    DssQueue = 1,
    /// The detectable DSS stack (`DssStack`).
    DssStack = 2,
    /// The detectable single-word register.
    DetectableRegister = 3,
    /// The detectable compare-and-swap object.
    DetectableCas = 4,
    /// The universal detectable construction over an `OpWords` spec.
    Universal = 5,
    /// The durable (non-detectable) queue baseline.
    DurableQueue = 6,
    /// The log-structured queue baseline.
    LogQueue = 7,
    /// The plain Michael–Scott queue baseline.
    MsQueue = 8,
    /// The PMwCAS-style CWE queue.
    CweQueue = 9,
    /// The DSS queue under the flat-combining execution layer.
    DssQueueCombining = 10,
    /// The DSS queue under the log-fed replica execution layer.
    DssQueueReplicated = 11,
    /// The detectable bucket-chained hash map (`DetectableMap`).
    DetectableMap = 12,
}

impl AppKind {
    /// Every kind, in tag order. Kept exhaustive by the round-trip test.
    pub const ALL: [AppKind; 12] = [
        AppKind::DssQueue,
        AppKind::DssStack,
        AppKind::DetectableRegister,
        AppKind::DetectableCas,
        AppKind::Universal,
        AppKind::DurableQueue,
        AppKind::LogQueue,
        AppKind::MsQueue,
        AppKind::CweQueue,
        AppKind::DssQueueCombining,
        AppKind::DssQueueReplicated,
        AppKind::DetectableMap,
    ];

    /// The application-kind word this kind stamps into a pool file.
    pub const fn word(self) -> u64 {
        self as u64
    }

    /// The kind a pool file's application-kind word names, if any.
    pub fn from_word(word: u64) -> Option<AppKind> {
        AppKind::ALL.iter().copied().find(|k| k.word() == word)
    }
}

impl fmt::Display for AppKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AppKind::DssQueue => "dss-queue",
            AppKind::DssStack => "dss-stack",
            AppKind::DetectableRegister => "detectable-register",
            AppKind::DetectableCas => "detectable-cas",
            AppKind::Universal => "universal",
            AppKind::DurableQueue => "durable-queue",
            AppKind::LogQueue => "log-queue",
            AppKind::MsQueue => "ms-queue",
            AppKind::CweQueue => "cwe-queue",
            AppKind::DssQueueCombining => "dss-queue-combining",
            AppKind::DssQueueReplicated => "dss-queue-replicated",
            AppKind::DetectableMap => "detectable-map",
        };
        f.write_str(name)
    }
}

/// Where a pool's persistence domain lives. See the [module docs](self).
pub(crate) enum SegmentBacking {
    /// Persisted shadows in process DRAM (the historical behaviour).
    Anonymous,
    /// Persisted shadows written through to a pool file.
    File(FileBacking),
}

/// The file half of [`SegmentBacking::File`]: the handle, the committed
/// bitmap mirror, and the growth lock.
pub(crate) struct FileBacking {
    file: File,
    /// DRAM mirror of the [`SB_COMMITTED`] bitmap (bit `s` = segment `s`
    /// exists in the file).
    committed: AtomicU64,
    /// Serialises the cold grow path (extend file, then publish the bit).
    grow: Mutex<()>,
}

impl FileBacking {
    pub(crate) fn new(file: File, committed: u64) -> Self {
        FileBacking { file, committed: AtomicU64::new(committed), grow: Mutex::new(()) }
    }

    /// Byte offset of word `index`'s persisted value.
    fn data_offset(index: u64) -> u64 {
        HEADER_BYTES + 8 * index
    }

    /// Writes one superblock word. Panics on I/O failure: the simulator
    /// treats a failing pool file like failing DIMM hardware.
    pub(crate) fn write_sb(&self, word: u64, value: u64) {
        self.file
            .write_all_at(&value.to_le_bytes(), 8 * word)
            .expect("pool file superblock write failed");
    }

    pub(crate) fn read_sb(&self, word: u64) -> io::Result<u64> {
        let mut buf = [0u8; 8];
        self.file.read_exact_at(&mut buf, 8 * word)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes through one word's persisted value.
    pub(crate) fn write_word(&self, index: u64, value: u64) {
        self.file
            .write_all_at(&value.to_le_bytes(), Self::data_offset(index))
            .expect("pool file write failed");
    }

    /// Reads segment `slot`'s persisted values (the caller checked the
    /// committed bit).
    pub(crate) fn read_segment(&self, layout: &Layout, slot: usize) -> io::Result<Vec<u64>> {
        let len = layout.len(slot) as usize;
        let mut bytes = vec![0u8; len * 8];
        self.file.read_exact_at(&mut bytes, Self::data_offset(layout.start(slot)))?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Installs the bitmap read from an attached file's superblock.
    pub(crate) fn set_committed(&self, bits: u64) {
        self.committed.store(bits, SeqCst);
    }

    /// Current file length in bytes.
    pub(crate) fn read_len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// Crash-atomically commits segment `slot`: extends the file to cover
    /// `[0, end(slot))` first (fresh bytes read as zero), then publishes
    /// the committed bit — the watermark ordering that makes growth safe
    /// against a kill between the two steps.
    pub(crate) fn commit_segment(&self, layout: &Layout, slot: usize) {
        let bit = 1u64 << slot;
        if self.committed.load(SeqCst) & bit != 0 {
            return;
        }
        let _g = self.grow.lock().expect("grow lock poisoned");
        if self.committed.load(SeqCst) & bit != 0 {
            return;
        }
        let want = Self::data_offset(layout.end(slot));
        let have = self.file.metadata().expect("pool file metadata failed").len();
        if have < want {
            self.file.set_len(want).expect("pool file extend failed");
        }
        let committed = self.committed.load(SeqCst) | bit;
        self.write_sb(SB_COMMITTED, committed);
        self.committed.store(committed, SeqCst);
    }
}

/// Number of directory slots. Segment 0 holds at least one cache line
/// (8 words) and capacity doubles per slot, so 48 slots cover the entire
/// 48-bit address space with room to spare.
pub(crate) const SLOTS: usize = 48;

/// The address→segment mapping for a pool with a given initial capacity.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    /// Words in segment 0: the requested initial capacity rounded up to a
    /// whole number of cache lines (minimum one line).
    base: u64,
}

impl Layout {
    /// Creates the layout for an initial capacity of `words`.
    ///
    /// # Panics
    ///
    /// Panics if `words` is 0 or exceeds the 48-bit address space.
    pub(crate) fn new(words: usize) -> Self {
        assert!(words >= 1, "pool must contain at least the NULL word");
        assert!((words as u64) <= crate::tag::ADDR_MASK, "pool exceeds the 48-bit address space");
        let base = (words as u64).div_ceil(WORDS_PER_LINE) * WORDS_PER_LINE;
        Layout { base }
    }

    /// Initial capacity (segment 0 length) in words.
    pub(crate) fn base(&self) -> u64 {
        self.base
    }

    /// Rebuilds a layout from a superblock's [`SB_BASE`] word, validating
    /// the invariants [`Layout::new`] establishes by construction.
    pub(crate) fn from_base(base: u64) -> Result<Self, AttachError> {
        if base == 0 || !base.is_multiple_of(WORDS_PER_LINE) {
            return Err(AttachError::Corrupt("segment-0 length not a positive line multiple"));
        }
        if base > crate::tag::ADDR_MASK {
            return Err(AttachError::Corrupt("segment-0 length exceeds the address space"));
        }
        Ok(Layout { base })
    }

    /// Directory slot containing word index `i`.
    #[inline]
    pub(crate) fn slot_of(&self, i: u64) -> usize {
        let q = i / self.base;
        if q == 0 {
            0
        } else {
            // Slot s ≥ 1 covers [base·2^(s−1), base·2^s): s = ⌊log₂ q⌋ + 1.
            (64 - q.leading_zeros()) as usize
        }
    }

    /// First word index of segment `slot`.
    #[inline]
    pub(crate) fn start(&self, slot: usize) -> u64 {
        if slot == 0 {
            0
        } else {
            self.base << (slot - 1)
        }
    }

    /// Length of segment `slot` in words.
    #[inline]
    pub(crate) fn len(&self, slot: usize) -> u64 {
        if slot == 0 {
            self.base
        } else {
            self.base << (slot - 1)
        }
    }

    /// One past the last word index of segment `slot`.
    #[inline]
    pub(crate) fn end(&self, slot: usize) -> u64 {
        self.base << slot
    }
}

/// How a pool's owner lays application regions over the segment directory.
///
/// The directory itself is placement-blind — any address materialises its
/// segment on demand — but a data structure that carves its address space
/// into per-replica (or per-shard) regions can ask
/// [`Memory::plan_regions`](crate::Memory::plan_regions) to place them
/// according to a policy:
///
/// * [`PlacementPolicy::Interleave`] packs regions contiguously
///   (line-aligned), the historical layout: neighbouring regions share
///   directory segments and, on a file-backed pool, file extents.
/// * [`PlacementPolicy::Sharded`] gives each region its own run of
///   directory segments: a region starts on a segment boundary and the
///   plan skips to the end of the last segment the region touches before
///   placing the next, so **no two regions share a segment**. The skipped
///   address ranges cost nothing — uncommitted segments are never
///   materialised — so sharding spends address space, not memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Pack regions contiguously, line-aligned (the historical layout).
    #[default]
    Interleave,
    /// One run of directory segments per region; regions never share a
    /// segment (and hence never share a backing allocation or file
    /// extent).
    Sharded,
}

impl PlacementPolicy {
    /// Stable numeric code, for storage in an atomic knob word or a pool
    /// file's parameter words.
    pub fn code(self) -> u64 {
        match self {
            PlacementPolicy::Interleave => 0,
            PlacementPolicy::Sharded => 1,
        }
    }

    /// The policy a [`code`](Self::code) names, if any.
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            0 => Some(PlacementPolicy::Interleave),
            1 => Some(PlacementPolicy::Sharded),
            _ => None,
        }
    }
}

#[inline]
fn align_line(words: u64) -> u64 {
    words.next_multiple_of(WORDS_PER_LINE)
}

/// Places `region_words.len()` regions of the given sizes (in words) at or
/// after `first_free`, under `policy`, for a pool whose segment 0 spans
/// `layout`. Every returned range is line-aligned and the ranges are
/// pairwise disjoint and ascending.
pub(crate) fn plan_with(
    layout: &Layout,
    policy: PlacementPolicy,
    first_free: u64,
    region_words: &[u64],
) -> Vec<Range<u64>> {
    let mut cursor = align_line(first_free);
    let mut out = Vec::with_capacity(region_words.len());
    for &words in region_words {
        let len = align_line(words.max(1));
        let start = match policy {
            PlacementPolicy::Interleave => cursor,
            PlacementPolicy::Sharded => {
                // Up to the next segment boundary (cursor may already be
                // one: after the first region it always is).
                let slot = layout.slot_of(cursor);
                if cursor == layout.start(slot) {
                    cursor
                } else {
                    layout.end(slot)
                }
            }
        };
        let end = start + len;
        cursor = match policy {
            PlacementPolicy::Interleave => end,
            // Claim the rest of the region's last segment so the next
            // region starts in a fresh one.
            PlacementPolicy::Sharded => layout.end(layout.slot_of(end - 1)),
        };
        out.push(start..end);
    }
    out
}

/// The directory slots whose segments back `region`, for a pool created
/// with `initial_words` of capacity (cf. [`Memory::plan_regions`]: the
/// same `initial_words` the pool was created with).
///
/// Under [`PlacementPolicy::Sharded`] plans, distinct regions' slot ranges
/// are disjoint — the property this helper exists to assert in tests.
///
/// [`Memory::plan_regions`]: crate::Memory::plan_regions
///
/// # Panics
///
/// Panics if `region` is empty or `initial_words` is out of range.
pub fn region_segments(initial_words: usize, region: &Range<u64>) -> Range<usize> {
    assert!(region.start < region.end, "empty region has no backing segments");
    let layout = Layout::new(initial_words);
    layout.slot_of(region.start)..layout.slot_of(region.end - 1) + 1
}

/// Free-function form of [`Memory::plan_regions`](crate::Memory::plan_regions)
/// for callers that plan before constructing a pool: `initial_words` is
/// the capacity the pool will be created with (segment geometry depends on
/// it), `first_free` the first word the regions may use.
///
/// # Panics
///
/// Panics if `initial_words` is 0 or exceeds the 48-bit address space.
pub fn plan_regions(
    initial_words: usize,
    policy: PlacementPolicy,
    first_free: u64,
    region_words: &[u64],
) -> Vec<Range<u64>> {
    plan_with(&Layout::new(initial_words), policy, first_free, region_words)
}

/// The segment directory both backends build on: a [`Layout`], a
/// [`PlacementPolicy`] knob, and up to [`SLOTS`] lazily-materialised
/// segments of `W` words.
///
/// Materialisation is race-free without locking readers (`OnceLock`):
/// losers of an init race drop their allocation and use the winner's, and
/// established segments never move, so `&W` references remain stable for
/// the directory's lifetime. What a segment's words *are* (shadowed
/// simulator words, bare atomics) and how materialisation interacts with
/// a backing file stay the owning pool's business — the directory only
/// owns the address→segment structure.
pub(crate) struct SegmentDirectory<W> {
    layout: Layout,
    /// [`PlacementPolicy::code`] of the planning policy. `Relaxed` would
    /// do — the knob synchronises nothing — but `SeqCst` keeps it uniform
    /// with the rare-path knobs around it.
    policy: AtomicU64,
    slots: Box<[OnceLock<Box<[W]>>]>,
}

impl<W> SegmentDirectory<W> {
    pub(crate) fn new(layout: Layout) -> Self {
        SegmentDirectory {
            layout,
            policy: AtomicU64::new(PlacementPolicy::default().code()),
            slots: (0..SLOTS).map(|_| OnceLock::new()).collect(),
        }
    }

    #[inline]
    pub(crate) fn layout(&self) -> &Layout {
        &self.layout
    }

    pub(crate) fn policy(&self) -> PlacementPolicy {
        PlacementPolicy::from_code(self.policy.load(SeqCst)).unwrap_or_default()
    }

    pub(crate) fn set_policy(&self, policy: PlacementPolicy) {
        self.policy.store(policy.code(), SeqCst);
    }

    /// The segment in `slot` if it has been materialised.
    #[inline]
    pub(crate) fn get(&self, slot: usize) -> Option<&[W]> {
        self.slots[slot].get().map(|s| &s[..])
    }

    /// The segment in `slot`, materialising it with `init` if needed.
    /// `init` must return exactly [`Layout::len`]`(slot)` words.
    #[inline]
    pub(crate) fn get_or_init(&self, slot: usize, init: impl FnOnce() -> Box<[W]>) -> &[W] {
        self.slots[slot].get_or_init(init)
    }

    /// Installs a pre-built segment (the attach path). Fails if the slot
    /// was already materialised.
    pub(crate) fn install(&self, slot: usize, words: Box<[W]>) -> Result<(), ()> {
        self.slots[slot].set(words).map_err(|_| ())
    }

    /// One past the highest materialised word index.
    pub(crate) fn materialised_words(&self) -> u64 {
        let mut cap = 0u64;
        for slot in 0..SLOTS {
            if self.slots[slot].get().is_some() {
                cap = cap.max(self.layout.end(slot));
            }
        }
        cap
    }

    /// `(slot, offset)` of word index `i`.
    #[inline]
    pub(crate) fn locate(&self, i: u64) -> (usize, usize) {
        let slot = self.layout.slot_of(i);
        (slot, (i - self.layout.start(slot)) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_kind_words_round_trip_exhaustively() {
        // Every kind survives word() -> from_word(), the tag values are
        // the historical on-disk assignment, and no two kinds collide.
        for (i, kind) in AppKind::ALL.iter().copied().enumerate() {
            assert_eq!(kind.word(), i as u64 + 1, "{kind} renumbered");
            assert_eq!(AppKind::from_word(kind.word()), Some(kind));
            assert!(!kind.to_string().is_empty());
        }
        let words: std::collections::BTreeSet<u64> =
            AppKind::ALL.iter().map(|k| k.word()).collect();
        assert_eq!(words.len(), AppKind::ALL.len(), "duplicate kind words");
        // Unassigned words name no kind (0 is "no kind stamped yet").
        assert_eq!(AppKind::from_word(0), None);
        assert_eq!(AppKind::from_word(AppKind::ALL.len() as u64 + 1), None);
    }

    #[test]
    fn rounds_initial_capacity_to_lines() {
        assert_eq!(Layout::new(1).base(), WORDS_PER_LINE);
        assert_eq!(Layout::new(8).base(), 8);
        assert_eq!(Layout::new(10).base(), 16);
        assert_eq!(Layout::new(64).base(), 64);
    }

    #[test]
    fn slots_partition_the_address_space() {
        let l = Layout::new(64);
        // Every index maps to exactly the slot whose [start, end) contains it.
        for i in [0, 1, 63, 64, 65, 127, 128, 255, 256, 1_000_000, 1 << 40] {
            let s = l.slot_of(i);
            assert!(l.start(s) <= i && i < l.end(s), "index {i} slot {s}");
            assert_eq!(l.end(s) - l.start(s), l.len(s));
        }
    }

    #[test]
    fn segments_double() {
        let l = Layout::new(64);
        assert_eq!((l.start(0), l.len(0)), (0, 64));
        assert_eq!((l.start(1), l.len(1)), (64, 64));
        assert_eq!((l.start(2), l.len(2)), (128, 128));
        assert_eq!((l.start(3), l.len(3)), (256, 256));
    }

    #[test]
    fn segment_boundaries_are_line_aligned() {
        let l = Layout::new(10); // base rounds to 16
        for s in 0..12 {
            assert_eq!(l.start(s) % WORDS_PER_LINE, 0);
            assert_eq!(l.len(s) % WORDS_PER_LINE, 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn zero_capacity_rejected() {
        let _ = Layout::new(0);
    }

    #[test]
    fn interleave_packs_contiguously() {
        let plan = plan_regions(64, PlacementPolicy::Interleave, 24, &[10, 8, 1]);
        assert_eq!(plan, vec![24..40, 40..48, 48..56]);
    }

    #[test]
    fn sharded_regions_share_no_segment() {
        for first_free in [8, 24, 64, 100] {
            for sizes in [&[8u64, 8, 8, 8][..], &[100, 8, 300], &[1, 1]] {
                let plan = plan_regions(64, PlacementPolicy::Sharded, first_free, sizes);
                let mut used: Vec<Range<usize>> =
                    plan.iter().map(|r| region_segments(64, r)).collect();
                for (r, &words) in plan.iter().zip(sizes) {
                    assert!(r.start >= first_free);
                    assert!(r.end - r.start >= words.max(1), "region too small: {r:?}");
                    assert_eq!(r.start % WORDS_PER_LINE, 0);
                }
                used.sort_by_key(|s| s.start);
                for pair in used.windows(2) {
                    assert!(
                        pair[0].end <= pair[1].start,
                        "regions share a segment: {pair:?} (plan {plan:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_regions_start_on_segment_boundaries() {
        let l = Layout::new(64);
        let plan = plan_regions(64, PlacementPolicy::Sharded, 24, &[8, 72]);
        for r in &plan {
            let slot = l.slot_of(r.start);
            assert_eq!(r.start, l.start(slot), "region {r:?} not on a segment boundary");
        }
    }

    #[test]
    #[should_panic(expected = "empty region")]
    fn empty_region_has_no_segments() {
        let _ = region_segments(64, &(8..8));
    }

    #[test]
    fn directory_materialises_and_reports_capacity() {
        let d: SegmentDirectory<u64> = SegmentDirectory::new(Layout::new(16));
        assert_eq!(d.materialised_words(), 0);
        assert!(d.get(0).is_none());
        let seg = d.get_or_init(0, || (0..d.layout().len(0)).collect());
        assert_eq!(seg.len(), 16);
        assert_eq!(d.materialised_words(), 16);
        assert_eq!(d.locate(17), (1, 1));
        assert!(d.install(0, Box::new([])).is_err(), "slot 0 already materialised");
        assert!(d.install(2, (0..d.layout().len(2)).collect()).is_ok());
        assert_eq!(d.materialised_words(), 64);
    }

    #[test]
    fn policy_knob_round_trips() {
        let d: SegmentDirectory<u64> = SegmentDirectory::new(Layout::new(16));
        assert_eq!(d.policy(), PlacementPolicy::Interleave);
        d.set_policy(PlacementPolicy::Sharded);
        assert_eq!(d.policy(), PlacementPolicy::Sharded);
        assert_eq!(
            PlacementPolicy::from_code(PlacementPolicy::Sharded.code()),
            Some(PlacementPolicy::Sharded)
        );
        assert_eq!(PlacementPolicy::from_code(2), None);
    }
}
