//! Experiment E5 — recovery latency vs queue length: centralized
//! (Figure 6, which ends by rebuilding the allocator) vs independent
//! per-thread (§3.3) recovery, plus the allocator rebuild (§4) that
//! follows the latter.
//!
//! ```text
//! cargo run -p dss-harness --release --bin recovery_time
//! ```

use std::time::Instant;

use dss_core::DssQueue;
use dss_pmem::WritebackAdversary;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    dss_harness::cli::Flags::parse("recovery_time", &[], &[]);
    println!("# E5: recovery latency vs queue length (microseconds, mean of 5)");
    println!(
        "{:>10} {:>18} {:>18} {:>18}",
        "length", "centralized-us", "independent-us", "rebuild-us"
    );
    for exp in 4..=14 {
        let len = 1u64 << exp;
        let mut central = 0.0;
        let mut indep = 0.0;
        let mut rebuild = 0.0;
        const REPS: u32 = 5;
        for _ in 0..REPS {
            let q = DssQueue::new(4, len + 64);
            let hs = (0..4).map(|_| q.register_thread()).collect::<Result<Vec<_>, _>>()?;
            for i in 0..len {
                q.enqueue(hs[0], i + 1)?;
            }
            q.pool().crash(&WritebackAdversary::All);
            let t = Instant::now();
            q.recover();
            central += t.elapsed().as_secs_f64() * 1e6;

            let q = DssQueue::new(4, len + 64);
            let hs = (0..4).map(|_| q.register_thread()).collect::<Result<Vec<_>, _>>()?;
            for i in 0..len {
                q.enqueue(hs[0], i + 1)?;
            }
            q.pool().crash(&WritebackAdversary::All);
            let t = Instant::now();
            for &h in &hs {
                q.recover_one(h);
            }
            indep += t.elapsed().as_secs_f64() * 1e6;
            let t = Instant::now();
            q.rebuild_allocator();
            rebuild += t.elapsed().as_secs_f64() * 1e6;
        }
        let reps = f64::from(REPS);
        println!(
            "{:>10} {:>18.1} {:>18.1} {:>18.1}",
            len,
            central / reps,
            indep / reps,
            rebuild / reps
        );
    }
    println!();
    println!("# Centralized recovery walks the list once, repairs head/tail and rebuilds");
    println!("# the allocator around the nodes it reached; independent recovery is run");
    println!("# per thread (4x here) and repairs only X. rebuild-us is rebuild_allocator");
    println!("# after the independent recovery, where it walks the list from the head");
    println!("# (after the centralized recovery it has nothing left to do).");
    Ok(())
}
