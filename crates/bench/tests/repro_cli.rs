//! The `repro` binary's own checks, run as a user runs it.

use std::path::{Path, PathBuf};
use std::process::Command;
use tarch_runner::BenchArtifact;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tarch-repro-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `repro` in `dir` and returns its exit status, stdout and stderr.
fn repro(dir: &Path, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("repro runs");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.success(), text(&out.stdout), text(&out.stderr))
}

/// A missing or malformed `--compare` baseline fails before any job runs:
/// nothing is simulated and no artifact is written.
#[test]
fn bench_compare_checks_its_baseline_before_simulating() {
    let dir = fresh_dir("compare");
    let malformed = dir.join("malformed.json");
    std::fs::write(&malformed, "not json").unwrap();
    let bench = ["bench", "--test-scale", "--workload", "fibo", "-j", "1", "-v", "--out", "out"];
    for baseline in [dir.join("missing.json"), malformed] {
        let path = baseline.to_str().expect("a UTF-8 temp path");
        let (ok, _, stderr) = repro(&dir, &[&bench[..], &["--compare", path]].concat());
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

/// One cell through `repro ab`: a row of six pairs, a median and a 95%
/// interval around it per ladder rung and per leave-one-out config. The
/// working directory holds no profiles, so the +pgo row says it was
/// skipped.
#[test]
fn ab_prints_every_ladder_and_leave_one_out_row() {
    let dir = fresh_dir("ab");
    let (ok, stdout, stderr) = repro(&dir, &["ab", "fibo/lua/typed", "--test-scale"]);
    assert!(ok, "repro ab failed: {stderr}");
    let measured = ["naive -> +MRU", "+MRU -> +blocks", "+blocks -> +fuse"]
        .into_iter()
        .chain(["shipping, MRU off", "shipping, fuse off"]);
    let row = |label: &str| {
        let rest = stdout.lines().find_map(|l| l.strip_prefix(label)).unwrap_or_default();
        rest.split_whitespace().collect::<Vec<_>>()
    };
    for label in measured {
        let cols = row(label);
        let interval = cols.len() == 4 && cols[2].starts_with('[') && cols[3].ends_with("x]");
        assert!(interval && cols[0] == "6", "`{label}`: {stdout}");
    }
    assert_eq!(row("+fuse -> +pgo").first(), Some(&"skipped:"), "{stdout}");
    assert!(!stdout.contains("tier"), "no tier rung or leave-one-out row: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `bench --pgo-dir` applies a profile only at the scale it was recorded
/// at. The committed profiles are default-scale, so a test-scale run
/// skips all of them, says so, and simulates exactly the unguided run's
/// jobs.
#[test]
fn bench_skips_pgo_profiles_recorded_at_another_scale() {
    let dir = fresh_dir("pgo-scale");
    let profiles = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../pgo-artifacts");
    let profiles = profiles.to_str().expect("a UTF-8 repository path");
    let bench = ["bench", "--workload", "fibo", "--test-scale", "-j", "1", "--emit-json"];
    let (ok, _, stderr) = repro(&dir, &[&bench[..], &["plain.json"]].concat());
    assert!(ok, "unguided bench failed: {stderr}");
    let (ok, _, stderr) =
        repro(&dir, &[&bench[..], &["guided.json", "--pgo-dir", profiles]].concat());
    assert!(ok, "bench --pgo-dir failed: {stderr}");
    assert!(
        stderr.contains("skipped 11 of 11 PGO profile(s)") && stderr.contains("than test"),
        "the skipped profiles must be counted: {stderr}"
    );
    let keys = |name: &str| {
        let artifact = BenchArtifact::read(&dir.join(name)).expect("bench wrote its artifact");
        artifact.outcomes.iter().map(|o| o.spec.key).collect::<Vec<_>>()
    };
    let plain = keys("plain.json");
    assert_eq!(plain.len(), 9, "fibo's nine cells");
    assert_eq!(keys("guided.json"), plain, "no cell may run guided by a default-scale profile");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Options a subcommand cannot honour, removed flags, malformed cells and
/// fleet counts above `u32` fail before anything runs. A cell spelling is
/// parsed once for `trace`, `fleet` and `ab`, and keeps each subcommand's
/// message; a fleet count used to be truncated (4294967297 tenants ran
/// one).
#[test]
fn bad_options_fail_before_anything_runs() {
    let dir = fresh_dir("bad-options");
    let fleet = |flag| ["fleet", "fibo/lua/typed", flag, "4294967297", "--out", "out"];
    for (args, message) in [
        (&["ab", "-j", "2"][..], "-j does not apply to `ab`"),
        (&["ab", "--no-cache"], "--no-cache does not apply to `ab`"),
        (&["ab", "--no-fuse"], "--no-fuse does not apply to `ab`"),
        (&["bench", "--profile-pairs"], "unexpected argument `--profile-pairs`"),
        (&["bench", "--no-tier"], "unexpected argument `--no-tier`"),
        (&["bench", "--tier-threshold", "4"], "unexpected argument `--tier-threshold`"),
        (&["pgo", "fibo", "--sample-period", "9"], "--sample-period only applies to `trace`"),
        (&["trace", "fibo/lua"], "e.g. k-nucleotide/lua/typed (got `fibo/lua`)"),
        (&["fleet", "fibo"], "fleet needs workload/engine/level, e.g. fibo/lua/typed (got `fibo`)"),
        (&["trace", "*/lua/typed"], "trace needs one cell, and `*/lua/typed` names 11"),
        (&["ab", "fibo/lisp/*"], "unknown engine `lisp` (lua|js|wasm)"),
        (&fleet("--tenants"), "--tenants is 4294967297, above the u32 range"),
        (&fleet("--shards"), "--shards is 4294967297, above the u32 range"),
    ] {
        let (ok, stdout, stderr) = repro(&dir, args);
        assert!(!ok && stdout.is_empty() && stderr.contains(message), "{args:?}: {stderr}");
    }
    assert!(!dir.join("out").exists(), "no artifact may be written");
    let _ = std::fs::remove_dir_all(&dir);
}
