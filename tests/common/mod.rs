//! Helpers shared by the integration tests that use pool files.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique pool-file path, removed again on drop (tests run in parallel
/// within one process, so a counter plus the pid keeps them distinct).
pub struct TmpPool(PathBuf);

impl TmpPool {
    pub fn new(name: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let mut p = std::env::temp_dir();
        p.push(format!("dss-test-{}-{name}-{n}.pool", std::process::id()));
        TmpPool(p)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpPool {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}
