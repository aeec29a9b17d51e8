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
/// initial value is a pool node. Version 3: the replicated queue records
/// no placement-policy word and packs its regions contiguously, with its
/// announce lines as the strided `X` region.
pub(crate) const LAYOUT_VERSION: u64 = 3;

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
    // 10 is retired: it tagged the flat-combining DSS queue, which was
    // removed. It is never reassigned, so a file stamped 10 names no kind
    // and every attach refuses it.
    /// The DSS queue under the log-fed replica execution layer.
    DssQueueReplicated = 11,
    /// The detectable bucket-chained hash map (`DetectableMap`).
    DetectableMap = 12,
}

impl AppKind {
    /// Every kind, in tag order. Kept exhaustive by the round-trip test.
    pub const ALL: [AppKind; 11] = [
        AppKind::DssQueue,
        AppKind::DssStack,
        AppKind::DetectableRegister,
        AppKind::DetectableCas,
        AppKind::Universal,
        AppKind::DurableQueue,
        AppKind::LogQueue,
        AppKind::MsQueue,
        AppKind::CweQueue,
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
        if i < self.base {
            return 0;
        }
        // Slot s ≥ 1 covers [base·2^(s−1), base·2^s). `base << d` has the
        // same bit length as `i`, so `i` lies in slot d or d + 1.
        let d = (self.base.leading_zeros() - i.leading_zeros()) as usize;
        d + usize::from(i >= self.base << d)
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

/// The segment directory both backends build on: a [`Layout`], segment
/// 0 built at construction, and up to [`SLOTS`]` - 1` lazily-materialised
/// segments of `W` words after it.
///
/// Segment 0 is a plain boxed slice, so an address below the initial
/// capacity resolves with one compare and one index: no `OnceLock` state
/// load, no slot arithmetic. Later segments materialise race-free without
/// locking readers (`OnceLock`): losers of an init race drop their
/// allocation and use the winner's, and established segments never move,
/// so `&W` references remain stable for the directory's lifetime. What a
/// segment's words *are* (shadowed simulator words, bare atomics) and how
/// materialisation interacts with a backing file stay the owning pool's
/// business — the directory only owns the address→segment structure.
pub(crate) struct SegmentDirectory<W> {
    layout: Layout,
    seg0: Box<[W]>,
    /// Segments 1.. in slots 0..: `grown[s - 1]` holds segment `s`.
    grown: Box<[OnceLock<Box<[W]>>]>,
}

impl<W> SegmentDirectory<W> {
    /// A directory over `layout` whose segment 0 is `seg0`.
    ///
    /// # Panics
    ///
    /// Panics if `seg0` is not [`Layout::base`] words long.
    pub(crate) fn new(layout: Layout, seg0: Box<[W]>) -> Self {
        assert_eq!(seg0.len() as u64, layout.base(), "segment 0 must span the initial capacity");
        SegmentDirectory { layout, seg0, grown: (1..SLOTS).map(|_| OnceLock::new()).collect() }
    }

    #[inline]
    pub(crate) fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The segment in `slot` if it has been materialised.
    #[inline]
    pub(crate) fn get(&self, slot: usize) -> Option<&[W]> {
        match slot {
            0 => Some(&self.seg0),
            s => self.grown[s - 1].get().map(|s| &s[..]),
        }
    }

    /// Installs a pre-built later segment (the attach path). Fails if the
    /// slot was already materialised, as segment 0 always is.
    pub(crate) fn install(&self, slot: usize, words: Box<[W]>) -> Result<(), ()> {
        match slot {
            0 => Err(()),
            s => self.grown[s - 1].set(words).map_err(|_| ()),
        }
    }

    /// Word `i`, materialising its segment with `grow(slot)` if needed.
    /// (Word indices are below 2^48, so `i as usize` is exact on the
    /// 64-bit targets the simulator runs on.)
    #[inline]
    pub(crate) fn word(&self, i: u64, grow: impl FnOnce(usize) -> Box<[W]>) -> &W {
        match self.seg0.get(i as usize) {
            Some(w) => w,
            None => &self.words_past_seg0(i, 1, grow)[0],
        }
    }

    /// The `n` words from `i` on, which must lie in one segment (a cache
    /// line always does), materialising it with `grow(slot)` if needed.
    #[inline]
    pub(crate) fn words(&self, i: u64, n: usize, grow: impl FnOnce(usize) -> Box<[W]>) -> &[W] {
        let start = i as usize;
        match self.seg0.get(start..start + n) {
            Some(w) => w,
            None => self.words_past_seg0(i, n, grow),
        }
    }

    /// The slow path of [`word`](Self::word) and [`words`](Self::words),
    /// kept out of line so the segment-0 path stays small enough to
    /// inline into every primitive.
    #[cold]
    #[inline(never)]
    fn words_past_seg0(&self, i: u64, n: usize, grow: impl FnOnce(usize) -> Box<[W]>) -> &[W] {
        let (slot, off) = self.locate(i);
        &self.grown[slot - 1].get_or_init(|| grow(slot))[off..off + n]
    }

    /// Materialises every segment covering words `[0, words)`, each with
    /// `grow(slot)`, which must return exactly [`Layout::len`]`(slot)`
    /// words (as must every `grow` above).
    pub(crate) fn reserve(&self, words: u64, grow: impl Fn(usize) -> Box<[W]>) {
        if words > self.layout.base {
            for slot in 1..=self.layout.slot_of(words - 1) {
                self.grown[slot - 1].get_or_init(|| grow(slot));
            }
        }
    }

    /// One past the highest materialised word index.
    pub(crate) fn materialised_words(&self) -> u64 {
        (0..SLOTS).rev().find(|&s| self.get(s).is_some()).map_or(0, |s| self.layout.end(s))
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
        const HISTORICAL: [u64; 11] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12];
        for (kind, word) in AppKind::ALL.iter().copied().zip(HISTORICAL) {
            assert_eq!(kind.word(), word, "{kind} renumbered");
            assert_eq!(AppKind::from_word(kind.word()), Some(kind));
            assert!(!kind.to_string().is_empty());
        }
        let words: std::collections::BTreeSet<u64> =
            AppKind::ALL.iter().map(|k| k.word()).collect();
        assert_eq!(words.len(), AppKind::ALL.len(), "duplicate kind words");
        // Unassigned words name no kind (0 is "no kind stamped yet"), and
        // the retired combining-queue tag 10 stays unassigned.
        assert_eq!(AppKind::from_word(0), None);
        assert_eq!(AppKind::from_word(10), None);
        assert_eq!(AppKind::from_word(13), None);
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
        // Every index maps to exactly the slot whose [start, end) contains
        // it, for a power-of-two segment 0 and for one that is not.
        for base in [64, 24] {
            let l = Layout::new(base);
            let edges = (0..40).flat_map(|s| [l.start(s), l.end(s) - 1]);
            for i in [1, 65, 127, 1_000_000, 1 << 40].into_iter().chain(edges) {
                let s = l.slot_of(i);
                assert!(l.start(s) <= i && i < l.end(s), "base {base} index {i} slot {s}");
                assert_eq!(l.end(s) - l.start(s), l.len(s));
            }
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
    fn directory_materialises_and_reports_capacity() {
        let d: SegmentDirectory<u64> = SegmentDirectory::new(Layout::new(16), (0..16).collect());
        // Segment 0 is present from construction, holding what it was given.
        assert_eq!(d.get(0).map(<[u64]>::len), Some(16));
        assert_eq!(d.materialised_words(), 16);
        assert_eq!(*d.word(15, |_| unreachable!("segment 0 never grows")), 15);
        assert!(d.get(1).is_none());
        assert_eq!(d.locate(17), (1, 1));
        assert_eq!(*d.word(17, |s| (0..d.layout().len(s)).map(|k| 100 + k).collect()), 101);
        assert_eq!(d.materialised_words(), 32);
        assert!(d.install(0, Box::new([])).is_err(), "segment 0 is always materialised");
        assert!(d.install(1, Box::new([])).is_err(), "segment 1 already materialised");
        assert!(d.install(2, (0..d.layout().len(2)).collect()).is_ok());
        assert_eq!(d.materialised_words(), 64);
        assert_eq!(d.words(40, 8, |_| unreachable!("installed")), &[8, 9, 10, 11, 12, 13, 14, 15]);
    }
}
