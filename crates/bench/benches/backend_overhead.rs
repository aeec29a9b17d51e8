//! Experiment E8: what does the simulator's bookkeeping cost?
//!
//! Runs the same single-threaded DSS-detectable enqueue+dequeue pair on
//! three memory substrates:
//!
//! * `pmem_instrumented` — the default [`PmemPool`]: persisted shadow,
//!   dirty bits, crash hook, sharded statistics.
//! * `pmem_raw` — the same simulator created with [`PoolMode::Raw`]:
//!   persistence semantics intact, per-operation instrumentation compiled
//!   to an early-out.
//! * `dram` — [`DramPool`]: plain atomics, flush/fence are no-ops.
//!
//! The gap between the first two is the price of instrumentation; the gap
//! between raw pmem and dram is the price of modelling persistence at all.
//! Results are quoted in `EXPERIMENTS.md` (E8). The target takes no flags.

use std::hint::black_box;
use std::time::Duration;

use dss_bench::Runner;
use dss_core::DssQueue;
use dss_harness::cli::Flags;
use dss_pmem::{DramPool, FlushGranularity, Memory, PAddr, PmemPool, PoolMode, StatsSnapshot};

/// A [`PmemPool`] forced into [`PoolMode::Raw`] at creation, so the
/// backend-generic constructors build an uninstrumented simulator.
#[derive(Debug)]
struct RawPmem(PmemPool);

impl Memory for RawPmem {
    fn create(words: usize, granularity: FlushGranularity) -> Self {
        RawPmem(PmemPool::with_mode(words, granularity, PoolMode::Raw))
    }

    #[inline]
    fn load(&self, addr: PAddr) -> u64 {
        self.0.load(addr)
    }

    #[inline]
    fn store(&self, addr: PAddr, value: u64) {
        self.0.store(addr, value)
    }

    #[inline]
    fn cas(&self, addr: PAddr, expected: u64, new: u64) -> Result<u64, u64> {
        self.0.cas(addr, expected, new)
    }

    #[inline]
    fn flush(&self, addr: PAddr) {
        self.0.flush(addr)
    }

    #[inline]
    fn fence(&self) {
        self.0.fence()
    }

    fn granularity(&self) -> FlushGranularity {
        Memory::granularity(&self.0)
    }

    fn capacity(&self) -> usize {
        self.0.capacity()
    }

    fn reserve(&self, words: usize) {
        self.0.reserve(words)
    }

    #[inline]
    fn peek(&self, addr: PAddr) -> u64 {
        self.0.peek(addr)
    }

    fn set_flush_penalty(&self, spins: u64) {
        self.0.set_flush_penalty(spins)
    }

    fn flush_penalty(&self) -> u64 {
        self.0.flush_penalty()
    }

    fn stats(&self) -> StatsSnapshot {
        self.0.stats()
    }

    fn reset_stats(&self) {
        self.0.reset_stats()
    }
}

fn pair_bench<M: Memory>(r: &Runner, name: &str) {
    let q: DssQueue<M> = DssQueue::new_in(1, 4096, FlushGranularity::Line);
    let h = q.register_thread().unwrap();
    let mut i = 0u64;
    r.bench(name, || {
        i += 1;
        q.prep_enqueue(h, black_box(i)).expect("node pool exhausted");
        q.exec_enqueue(h);
        q.prep_dequeue(h);
        black_box(q.exec_dequeue(h));
    });
}

fn main() {
    Flags::parse("backend_overhead", &[], &["--bench"]);
    let r = Runner::new("backend_overhead")
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));
    pair_bench::<PmemPool>(&r, "pmem_instrumented");
    pair_bench::<RawPmem>(&r, "pmem_raw");
    pair_bench::<DramPool>(&r, "dram");
}
