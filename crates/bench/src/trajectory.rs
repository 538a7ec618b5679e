//! Where measurement outputs live and the machine context they record.

use std::path::{Path, PathBuf};

/// The number of hardware threads on this machine, recorded beside
/// measurements for cross-machine context.
pub fn machine_threads() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// The repository root (measurement outputs such as `BENCH_faults.json`
/// live beside `Cargo.lock`, not inside the bench crate, so they are
/// easy to find and to upload as CI artifacts).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_root_contains_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").exists());
    }
}
