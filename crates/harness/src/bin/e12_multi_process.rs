//! Experiment E12 — the cost of the pool file: attach latency and
//! write-through overhead.
//!
//! PR 5's file-backed pools buy true multi-process recovery (a SIGKILLed
//! process's pool attached by a fresh one — correctness is swept by
//! `crash_matrix --multi-process on`). This binary measures what that
//! durability costs:
//!
//! 1. **Attach time vs pool size**: a file-backed queue is filled to a
//!    given length, dropped, and re-attached from the path alone. Attach
//!    re-reads every committed segment, bumps the crash generation, and
//!    the Figure-6 recovery walks the list — all linear in the pool, so
//!    attach latency should scale linearly with file size.
//! 2. **Throughput, file vs anonymous**: the same single-threaded
//!    enqueue+dequeue pair workload on an anonymous pool (write-backs hit
//!    a `Vec` shadow) and on a pool file (write-backs also hit the file
//!    through a positioned write). The gap is the price of every fenced
//!    write-back becoming a syscall.
//!
//! ```text
//! cargo run -p dss-harness --release --bin e12_multi_process -- \
//!     [--ms 200] [--repeats 3]
//! ```

use std::time::{Duration, Instant};

use dss_core::DssQueue;

/// A collision-free scratch path in the system temp directory; the file
/// is removed by [`Drop`].
struct TmpPool(std::path::PathBuf);

impl TmpPool {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("dss-e12-{}-{tag}.pool", std::process::id()));
        let _ = std::fs::remove_file(&path);
        TmpPool(path)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TmpPool {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let flags = dss_harness::cli::Flags::parse("e12_multi_process", &["--ms", "--repeats"], &[]);
    let (ms, repeats) = (flags.value("--ms", 200), flags.value("--repeats", 3usize));

    println!("# E12.1: attach time vs pool size (mean of {} attaches)", repeats.max(1));
    println!("{:>10} {:>12} {:>12} {:>14}", "length", "file-KiB", "attach-us", "us-per-KiB");
    for exp in 6..=13 {
        let len = 1u64 << exp;
        let tmp = TmpPool::new(&format!("attach-{len}"));
        {
            let q = DssQueue::create(tmp.path(), 4, len + 64)?;
            let h = q.register_thread()?;
            for i in 0..len {
                q.enqueue(h, i + 1)?;
            }
            q.pool().drain();
        }
        let kib = std::fs::metadata(tmp.path())?.len() as f64 / 1024.0;
        let reps = repeats.max(1);
        let mut us = 0.0;
        for _ in 0..reps {
            let t = Instant::now();
            let q = DssQueue::attach(tmp.path())?;
            q.recover();
            q.rebuild_allocator();
            us += t.elapsed().as_secs_f64() * 1e6;
        }
        let mean = us / reps as f64;
        println!("{:>10} {:>12.0} {:>12.1} {:>14.3}", len, kib, mean, mean / kib);
    }
    println!();

    println!(
        "# E12.2: single-thread throughput, anonymous vs file-backed pool \
         (Mops/s, enqueue+dequeue pairs, {} ms x {} repeats)",
        ms, repeats
    );
    println!("{:>12} {:>12} {:>10}", "anonymous", "file", "file/anon");
    let run = |q: &DssQueue| -> Result<f64, Box<dyn std::error::Error>> {
        let h = q.register_thread()?;
        let deadline = Instant::now() + Duration::from_millis(ms);
        let mut ops = 0u64;
        while Instant::now() < deadline {
            for i in 0..64 {
                q.enqueue(h, i + 1)?;
                let _ = q.dequeue(h);
                ops += 2;
            }
        }
        Ok(ops as f64 / Duration::from_millis(ms).as_secs_f64() / 1e6)
    };
    let mut anon_best = 0.0f64;
    let mut file_best = 0.0f64;
    for rep in 0..repeats.max(1) {
        let anon = DssQueue::new(1, 256);
        anon_best = anon_best.max(run(&anon)?);
        let tmp = TmpPool::new(&format!("tput-{rep}"));
        let file = DssQueue::create(tmp.path(), 1, 256)?;
        file_best = file_best.max(run(&file)?);
    }
    println!("{:>12.3} {:>12.3} {:>9.1}%", anon_best, file_best, 100.0 * file_best / anon_best);
    println!();
    println!("# Correctness under real process death is swept separately:");
    println!("#   cargo run -p dss-harness --release --bin crash_matrix -- --multi-process on");
    Ok(())
}
