//! Experiment E2 — reproduces **Figure 5b**: detectable queue
//! implementations compared.
//!
//! DSS queue vs log queue vs Fast/General CASWithEffect queues, same
//! workload and flags as Figure 5a.
//!
//! ```text
//! cargo run -p dss-harness --release --bin fig5b -- \
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
        "fig5b",
        "Figure 5b: different detectable queue implementations (Mops/s)",
        &QueueKind::figure_5b(),
    );
}
