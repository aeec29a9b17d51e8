//! Experiment E1 — reproduces **Figure 5a**: the cost of detectability.
//!
//! Compares the MS queue, the non-detectable DSS queue, and the
//! detectable DSS queue on the paper's alternating enqueue/dequeue
//! workload across thread counts.
//!
//! ```text
//! cargo run -p dss-harness --release --bin fig5a -- \
//!     [--threads 8] [--ms 200] [--repeats 3] [--penalty 20] \
//!     [--backend pmem --backend dram] [--coalesce on] [--backoff on]
//! ```
//!
//! `--backend pmem --backend dram` repeats the sweep per memory backend
//! (experiment E8's axis); the default is the pmem simulator only.
//! `--coalesce on` / `--backoff on` arm the E9 performance axes.

use dss_harness::adapter::QueueKind;
use dss_harness::throughput::figure_main;

fn main() {
    figure_main(
        "fig5a",
        "Figure 5a: different levels of detectability and persistence (Mops/s)",
        &QueueKind::figure_5a(),
    );
}
