//! The `repro` binary's own checks, run as a user runs it.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tarch-repro-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `repro bench --compare baseline` on one workload and returns its
/// exit status and stderr.
fn bench_against(dir: &Path, baseline: &Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(["bench", "--test-scale", "--workload", "fibo", "-j", "1", "-v", "--out", "out"])
        .arg("--compare")
        .arg(baseline)
        .output()
        .expect("repro runs");
    (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// A missing or malformed `--compare` baseline fails before any job runs:
/// nothing is simulated and no artifact is written.
#[test]
fn bench_compare_checks_its_baseline_before_simulating() {
    let dir = fresh_dir("compare");
    let malformed = dir.join("malformed.json");
    std::fs::write(&malformed, "not json").unwrap();
    for baseline in [dir.join("missing.json"), malformed] {
        let (ok, stderr) = bench_against(&dir, &baseline);
        let label = baseline.display();
        assert!(!ok, "{label}: bench must fail");
        assert!(
            stderr.contains(&*baseline.to_string_lossy()),
            "{label}: error names the file: {stderr}"
        );
        assert!(!stderr.contains("simulated"), "{label}: no job may run: {stderr}");
        assert!(!dir.join("out").exists(), "{label}: no artifact may be written");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
