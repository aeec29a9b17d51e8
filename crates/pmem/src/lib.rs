//! The layered memory substrate: pluggable [`Memory`] backends under every
//! algorithm in this workspace.
//!
//! Li & Golab's *Detectable Sequential Specifications for Recoverable
//! Shared Objects* (DISC 2021) assumes a byte-addressable persistent main
//! memory (Intel Optane DCPMM in the paper) below a **volatile** CPU cache,
//! accessed with sequentially consistent 64-bit atomics and explicit
//! persistence instructions (`CLWB` + `SFENCE`, wrapped by PMDK's
//! `pmem_persist`). This crate provides that memory model as three layers:
//!
//! # Layer 1 — the [`Memory`] trait
//!
//! The primitive contract (`load`/`store`/`cas`/`flush`/`fence`, capacity
//! and reservation hooks) every backend implements, with two
//! implementations:
//!
//! * [`PmemPool`] — the crash-testable simulator. Every word has a
//!   *volatile* value and a *persisted* shadow; [`PmemPool::flush`] copies
//!   volatile → persisted (whole cache lines under
//!   [`FlushGranularity::Line`]); [`PmemPool::crash`] discards unflushed
//!   state after a [`WritebackAdversary`] persists an arbitrary subset of
//!   dirty words (spontaneous cache eviction, which hardware may always
//!   perform).
//! * [`DramPool`] — plain `AtomicU64`s with no shadow, no dirty bits, no
//!   hooks, no stats; `flush`/`fence` are no-ops. Running the same
//!   algorithm on both backends separates algorithmic cost from simulator
//!   cost.
//!
//! Crash simulation is deliberately **not** in the trait: arming crash
//! points, adversarial writeback, and persisted-state inspection are
//! inherent [`PmemPool`] APIs, used by harnesses that pick the concrete
//! simulator type.
//!
//! # Layer 2 — pool internals
//!
//! * **Growth**: both backends store words in a lock-free directory of
//!   doubling segments, so pools grow on demand instead of panicking past
//!   a preallocation guess; established words never move.
//! * **Sharded statistics**: operation counters ([`Stats`]) are
//!   cache-line-padded shards, each owned by one live thread and
//!   aggregated on snapshot, so counting is a plain increment that never
//!   bounces a shared cache line between cores.
//! * **Instrumentation as a mode**: crash-point hooks and statistics are a
//!   [`PoolMode`]; a [`PoolMode::Raw`] pool pays zero per-operation
//!   instrumentation cost.
//!
//! # Layer 3 — allocation and reclamation
//!
//! * [`PAddr`] — word addresses with NULL, plus [`tag`] helpers for packing
//!   16 tag bits above a 48-bit address, as the DSS queue does (the paper's
//!   footnote 5).
//! * [`NodePool`] — a fixed-size node allocator with per-thread free lists,
//!   and [`Ebr`] — epoch-based reclamation, mirroring the paper's
//!   evaluation setup ("each thread pre-allocates a fixed size pool of
//!   queue nodes … dequeued nodes are returned to the free pool using
//!   epoch-based reclamation").
//! * [`NodeSet`] — a bitmap with one bit per node of a [`NodePool`]
//!   region. Crash recovery collects the nodes it finds reachable or
//!   referenced by detectability words into one, tests membership against
//!   it, and hands it to [`NodePool::rebuild`], which frees every node
//!   outside it (the paper's §4 leak prevention).
//!
//! # Layer 4 — the object skeleton
//!
//! * [`ObjectCore`] — what every structure built on a pool shares: the
//!   pool, the persistent thread-slot [`Registry`], the EBR domain,
//!   contention management, and the slot API. Its three pool paths
//!   (fresh, create a pool file, attach one) are written once, and so is
//!   attach validation.
//! * [`ObjectLayout`] — what a structure supplies: its kind tag, its
//!   superblock parameter words, and the geometry derived from them.
//!
//! # Quick example
//!
//! ```
//! use dss_pmem::{Memory, PmemPool, DramPool, FlushGranularity, PAddr, WritebackAdversary};
//!
//! // Backend-generic code sees only the Memory trait:
//! fn bump<M: Memory>(mem: &M, a: PAddr) -> u64 {
//!     let v = mem.load(a) + 1;
//!     mem.store(a, v);
//!     mem.flush(a);
//!     v
//! }
//!
//! let pmem = PmemPool::with_capacity(64);
//! let dram = DramPool::new(64);
//! let a = PAddr::from_index(1);
//! assert_eq!(bump(&pmem, a), 1);
//! assert_eq!(bump(&dram, a), 1);
//!
//! // Crash testing is pmem-specific:
//! pmem.store(a, 9); // unflushed
//! pmem.crash(&WritebackAdversary::None);
//! assert_eq!(pmem.load(a), 1); // the flushed 1 survived, the 9 did not
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod addr;
mod alloc;
mod backoff;
mod dram;
mod ebr;
mod hook;
mod memory;
pub mod object;
mod pool;
mod registry;
mod seg;
mod stats;
mod sync;

pub mod tag;

pub use addr::PAddr;
pub use alloc::{NodePool, NodeSet};
pub use backoff::Backoff;
pub use dram::DramPool;
pub use ebr::{Ebr, EbrGuard};
pub use hook::CrashSignal;
pub use memory::Memory;
pub use object::{ObjectCore, ObjectLayout};
pub use pool::{
    splitmix64, FlushGranularity, PmemPool, PoolMode, WritebackAdversary, WORDS_PER_LINE,
};
pub use registry::{Registry, SlotError, SlotState, ThreadHandle};
pub use seg::{AppKind, AttachError};
pub use stats::{Stats, StatsSnapshot};
pub use sync::{CachePadded, Mutex};
