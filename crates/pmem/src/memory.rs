//! The [`Memory`] trait: the primitive contract every backend provides.
//!
//! Data structures in this workspace are generic over `M: Memory` so the
//! same algorithm runs unmodified on the crash-testable simulator
//! ([`PmemPool`](crate::PmemPool)) or on plain DRAM atomics
//! ([`DramPool`](crate::DramPool)). The trait captures exactly the
//! operations the paper's pseudocode uses — sequentially consistent 64-bit
//! load/store/CAS plus the persistence instructions `flush`
//! (`CLWB`+`SFENCE`, PMDK's `pmem_persist`) and `fence` (`SFENCE`) — and
//! the allocation hooks a pool-backed allocator needs (capacity query and
//! reservation).
//!
//! Crash simulation (`crash`, `arm_crash_after`, `persisted_value`, …) is
//! deliberately *not* part of the trait: it only makes sense for a backend
//! that models a persistence domain, and stays an inherent API of
//! [`PmemPool`](crate::PmemPool). Code that injects crashes therefore works
//! with the concrete simulator type, while algorithms and workloads stay
//! backend-generic.

use std::ops::Range;

use crate::{FlushGranularity, PAddr, PlacementPolicy, StatsSnapshot, WORDS_PER_LINE};

/// A pool of 64-bit words accessed with sequentially consistent atomics and
/// explicit persistence instructions.
///
/// All methods take `&self` and are safe to call from many threads. Word 0
/// is the NULL address by convention ([`PAddr::NULL`]) and is never handed
/// out by allocators.
///
/// Implementations grow on demand: addressing a word beyond the initial
/// capacity materialises backing storage (zero-initialised) instead of
/// panicking, so a workload outgrowing its preallocation guess degrades to
/// an allocation, not a crash.
pub trait Memory: Send + Sync + std::fmt::Debug + 'static {
    /// Creates a zero-initialised pool with `words` words of initial
    /// capacity.
    ///
    /// `granularity` configures the flush unit for backends that model a
    /// persistence domain; backends without one (e.g.
    /// [`DramPool`](crate::DramPool)) ignore it.
    ///
    /// # Panics
    ///
    /// Panics if `words` is 0 or exceeds the 48-bit address space.
    fn create(words: usize, granularity: FlushGranularity) -> Self
    where
        Self: Sized;

    /// Atomically loads the value at `addr`.
    fn load(&self, addr: PAddr) -> u64;

    /// Atomically stores `value` at `addr`. On persistent backends the
    /// store is volatile until flushed.
    fn store(&self, addr: PAddr, value: u64);

    /// Atomically compares-and-swaps the value at `addr`.
    ///
    /// Returns `Ok(expected)` on success and `Err(actual)` on failure,
    /// mirroring [`std::sync::atomic::AtomicU64::compare_exchange`].
    fn cas(&self, addr: PAddr, expected: u64, new: u64) -> Result<u64, u64>;

    /// Persists the data at `addr` (and, under line granularity, its
    /// cache-line neighbours). A no-op on backends without a persistence
    /// domain.
    fn flush(&self, addr: PAddr);

    /// An explicit store fence. A no-op on backends without a persistence
    /// domain.
    fn fence(&self);

    /// The flush unit the pool was created with. Algorithms that flush
    /// multi-word nodes use this to emit one flush per line or one per
    /// word; backends without a persistence domain still report the value
    /// passed to [`create`](Memory::create) so the flush sequence (a no-op
    /// for them) stays comparable across backends.
    fn granularity(&self) -> FlushGranularity;

    /// Currently materialised capacity in words. Grows as addresses beyond
    /// it are touched or [`reserve`](Memory::reserve)d.
    fn capacity(&self) -> usize;

    /// Allocation hook: materialises backing storage for all words in
    /// `[0, words)` up front, so subsequent accesses in that range never
    /// grow on the hot path. Idempotent; never shrinks.
    fn reserve(&self, words: usize);

    /// Inspection hook: reads `addr` without any instrumentation (crash
    /// hooks, statistics). Snapshot and debugging helpers use this so they
    /// don't perturb counted experiments.
    fn peek(&self, addr: PAddr) -> u64;

    /// Sets the artificial flush latency in spin-loop iterations. Backends
    /// without a persistence domain ignore it.
    fn set_flush_penalty(&self, spins: u64) {
        let _ = spins;
    }

    /// The current artificial flush latency in spin-loop iterations.
    fn flush_penalty(&self) -> u64 {
        0
    }

    /// A snapshot of the backend's operation counters. Backends without
    /// instrumentation report all-zero counters.
    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::default()
    }

    /// Resets the backend's operation counters, if any.
    fn reset_stats(&self) {}

    /// Enables or disables write-behind flush coalescing (default off).
    /// A no-op on backends without a persistence domain — there is nothing
    /// to coalesce when flushes are already free.
    fn set_coalescing(&self, on: bool) {
        let _ = on;
    }

    /// Whether write-behind flush coalescing is enabled.
    fn coalescing(&self) -> bool {
        false
    }

    /// Writes back any flushes the calling thread has pending under
    /// write-behind coalescing. A no-op on backends without one.
    ///
    /// Structures call this before returning from a public operation so a
    /// completed operation's final flush is durable by the time the caller
    /// observes the response.
    fn drain(&self) {}

    /// Writes back only the calling thread's pending flush unit covering
    /// `addr`, leaving every other pending unit deferred — a *per-address
    /// ordering drain*.
    ///
    /// Structures call this at an ordering point that certifies exactly one
    /// earlier flush (e.g. "the announce must not persist ahead of the node
    /// it names"): only the named line needs to reach the persistence
    /// domain, so unrelated pending flushes stay coalescible across the
    /// fence.
    ///
    /// Semantics by configuration:
    /// * coalescing off — no-op (flushes are already synchronous);
    /// * coalescing on, per-address drains off — falls back to a whole-set
    ///   [`drain`](Memory::drain) (the conservative baseline);
    /// * coalescing on, per-address drains on — writes back only the unit
    ///   containing `addr`.
    fn drain_line(&self, addr: PAddr) {
        let _ = addr;
    }

    /// [`drain_line`](Memory::drain_line) over several addresses at once.
    /// Addresses sharing a flush unit are written back once.
    fn drain_lines(&self, addrs: &[PAddr]) {
        let _ = addrs;
    }

    /// Persists a whole batch of addresses with one ordering point:
    /// flush every address, then a single [`drain_lines`](Memory::drain_lines)
    /// over the set.
    ///
    /// The default is the literal flush-then-drain sequence; backends can
    /// override it to deduplicate shared flush units so a batch touching
    /// the same line many times pays one writeback (see the `PmemPool`
    /// implementation). The flat-combining execution layer issues one
    /// `persist_batch` per persist phase instead of per-operation
    /// flush/drain pairs.
    fn persist_batch(&self, addrs: &[PAddr]) {
        for &a in addrs {
            self.flush(a);
        }
        self.drain_lines(addrs);
    }

    /// Enables or disables per-address ordering drains (default off). Only
    /// meaningful while write-behind coalescing is enabled; a no-op on
    /// backends without a persistence domain.
    fn set_per_address_drains(&self, on: bool) {
        let _ = on;
    }

    /// Whether per-address ordering drains are enabled.
    fn per_address_drains(&self) -> bool {
        false
    }

    /// Number of crashes this backend has survived. Backends without a
    /// persistence domain never crash and report 0 forever.
    ///
    /// The thread-slot [`Registry`](crate::Registry) keys its
    /// orphan-marking pass off this counter so recovery is run at most
    /// once per crash, no matter how many threads (or repeated
    /// `recover()` calls) race to perform it.
    fn crash_generation(&self) -> u64 {
        0
    }

    /// Sets the [`PlacementPolicy`] that [`plan_regions`](Memory::plan_regions)
    /// applies (default [`PlacementPolicy::Interleave`]). A pure planning
    /// knob: it affects only future plans, never established addresses,
    /// and backends with no segment structure may ignore it.
    fn set_placement(&self, policy: PlacementPolicy) {
        let _ = policy;
    }

    /// The current region-placement policy.
    fn placement(&self) -> PlacementPolicy {
        PlacementPolicy::Interleave
    }

    /// Plans `region_words.len()` application regions of the given sizes
    /// (in words), at or after word `first_free`, under the backend's
    /// [placement policy](Memory::set_placement).
    ///
    /// Every returned range is cache-line-aligned, at least as large as
    /// requested, and pairwise disjoint in ascending order. Under
    /// [`PlacementPolicy::Sharded`] the segmented backends additionally
    /// guarantee that no two regions share a directory segment, so each
    /// region's words live in their own allocations (and file extents on
    /// a file-backed pool) — see [`region_segments`](crate::region_segments).
    ///
    /// The plan is a pure function of the backend's initial capacity, the
    /// policy, and the arguments: re-planning after an attach with the
    /// same inputs reproduces the same regions, which is how structures
    /// re-derive their layout from a pool file's app-config words. The
    /// default implementation is the policy-blind contiguous packing.
    fn plan_regions(&self, first_free: u64, region_words: &[u64]) -> Vec<Range<u64>> {
        let mut cursor = first_free.next_multiple_of(WORDS_PER_LINE);
        region_words
            .iter()
            .map(|&words| {
                let len = words.max(1).next_multiple_of(WORDS_PER_LINE);
                let r = cursor..cursor + len;
                cursor += len;
                r
            })
            .collect()
    }
}
