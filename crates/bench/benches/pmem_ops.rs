//! Microscopic cost of the persistent-memory simulator primitives. The
//! target takes no flags.

use std::hint::black_box;

use dss_bench::Runner;
use dss_harness::cli::Flags;
use dss_pmem::{FlushGranularity, PAddr, PmemPool};

fn main() {
    Flags::parse("pmem_ops", &[], &["--bench"]);
    let r = Runner::new("pmem").sample_size(50);

    let pool = PmemPool::with_capacity(1024);
    let a = PAddr::from_index(8);

    r.bench("load", || {
        black_box(pool.load(black_box(a)));
    });
    let mut i = 0u64;
    r.bench("store", || {
        i += 1;
        pool.store(black_box(a), i);
    });
    r.bench("cas_success", || {
        let cur = pool.load(a);
        black_box(pool.cas(a, cur, cur.wrapping_add(1)).is_ok());
    });
    let mut i = 0u64;
    r.bench("flush_line_dirty", || {
        i += 1;
        pool.store(a, i);
        pool.flush(a);
    });
    pool.flush(a);
    r.bench("flush_line_clean", || pool.flush(black_box(a)));

    let word_pool = PmemPool::with_granularity(1024, FlushGranularity::Word);
    let mut i = 0u64;
    r.bench("flush_word_dirty", || {
        i += 1;
        word_pool.store(a, i);
        word_pool.flush(a);
    });
}
