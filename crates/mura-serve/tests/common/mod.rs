//! Shared by the suites that serve over real worker processes.

use std::path::PathBuf;
use std::process::Command;

/// Locates the `mura-worker` binary next to the test executable, building
/// it first when the test runs in isolation (`cargo test -p mura-serve`
/// does not build another crate's binaries on its own).
pub fn ensure_worker_bin() -> PathBuf {
    let mut dir = std::env::current_exe().expect("current_exe");
    dir.pop();
    if dir.ends_with("deps") {
        dir.pop();
    }
    let bin = dir.join("mura-worker");
    if !bin.exists() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let mut cmd = Command::new(cargo);
        cmd.args(["build", "-p", "mura-dist", "--bin", "mura-worker"]);
        if dir.ends_with("release") {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("run cargo build for mura-worker");
        assert!(status.success(), "building mura-worker failed");
    }
    bin
}
