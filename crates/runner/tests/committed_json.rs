//! Every committed JSON document — the `BENCH_*.json` artifacts under
//! `bench-artifacts/` and the PGO profiles under `pgo-artifacts/` — must
//! read back and re-serialize to its own bytes (up to a trailing
//! newline): the writer is deterministic and the reader lossless, so a
//! change to either that alters one byte on disk fails here. Mutated
//! copies of the same files, and of a result-cache entry, must make
//! their readers return an error or a value, never panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use tarch_runner::{BenchArtifact, FleetArtifact, Json, PgoArtifact, ResultCache};
use tarch_testkit::Rng;

fn committed(dir: &str) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(dir);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn committed_documents_reserialize_byte_for_byte() {
    let files: Vec<PathBuf> =
        committed("bench-artifacts").into_iter().chain(committed("pgo-artifacts")).collect();
    assert!(files.len() >= 26, "expected the committed artifacts, found {}", files.len());
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let pretty = doc.to_pretty_string();
        assert!(
            pretty.strip_suffix('\n') == Some(text.strip_suffix('\n').unwrap_or(&text)),
            "{}: re-serialized bytes differ from the file",
            path.display()
        );
    }
}

/// Mutants per file: enough to reach every reader's error paths, few
/// enough that the test stays well under a second in release.
const MUTANTS: u64 = 40;

/// A random corruption of `doc`: a digit edit, a truncation, a deleted or
/// injected JSON punctuation byte, or a number replaced by `-1`, `1e308`,
/// `18446744073709551615` or `null`.
fn mutate(doc: &[u8], rng: &mut Rng) -> Vec<u8> {
    const PUNCT: &[u8] = b"{}[],:\"";
    const NUMBERS: [&[u8]; 4] = [b"-1", b"1e308", b"18446744073709551615", b"null"];
    let numeric = |b: u8| b.is_ascii_digit() || b"-+.eE".contains(&b);
    let kind = rng.range_u64(0, 5);
    // The bytes an edit of this kind applies to: digits, punctuation, or
    // the first byte of a number.
    let site = |i: usize| match kind {
        0 => doc[i].is_ascii_digit(),
        2 => PUNCT.contains(&doc[i]),
        _ => {
            (doc[i].is_ascii_digit() || doc[i] == b'-')
                && (i == 0 || !(numeric(doc[i - 1]) || doc[i - 1].is_ascii_alphabetic()))
        }
    };
    let sites: Vec<usize> = (0..doc.len()).filter(|&i| site(i)).collect();
    let at = sites.get(rng.range_usize(0, sites.len().max(1))).copied();
    let mut out = doc.to_vec();
    match (kind, at) {
        (1, _) => out.truncate(rng.range_usize(0, doc.len())),
        (3, _) => out.insert(rng.range_usize(0, doc.len() + 1), *rng.choice(PUNCT)),
        (0, Some(i)) => out[i] = b'0' + rng.range_u64(0, 10) as u8,
        (2, Some(i)) => drop(out.remove(i)),
        (_, Some(i)) => {
            let len = doc[i..].iter().take_while(|&&b| numeric(b)).count();
            out.splice(i..i + len, rng.choice(&NUMBERS).iter().copied());
        }
        (_, None) => {}
    }
    out
}

#[test]
fn mutated_documents_fail_to_read_without_panicking() {
    let scratch = std::env::temp_dir().join(format!("tarch-mutants-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    let mut panics = Vec::new();
    // Writes each mutant of `doc` to `path` and reads it back with `read`.
    let mut check = |name: &str, doc: &[u8], path: &Path, read: &dyn Fn(&Path)| {
        let mut rng = Rng::new(doc.len() as u64);
        for m in 0..MUTANTS {
            std::fs::write(path, mutate(doc, &mut rng)).unwrap();
            if catch_unwind(AssertUnwindSafe(|| read(path))).is_err() {
                panics.push(format!("{name} mutant {m}"));
            }
        }
    };
    let files: Vec<PathBuf> =
        committed("bench-artifacts").into_iter().chain(committed("pgo-artifacts")).collect();
    for path in &files {
        let name = path.file_name().unwrap().to_str().unwrap();
        let read: &dyn Fn(&Path) = match name {
            _ if name.starts_with("PGO_") => &|p| drop(PgoArtifact::read(p)),
            "BENCH_pr6_fleet_fibo.json" => &|p| drop(FleetArtifact::read(p)),
            _ => &|p| drop(BenchArtifact::read(p)),
        };
        check(name, &std::fs::read(path).unwrap(), &scratch.join(name), read);
    }
    // One stored cache entry: the first cell of a committed artifact.
    let artifact = files.iter().find(|p| p.ends_with("BENCH_after_testscale.json")).unwrap();
    let outcome = BenchArtifact::read(artifact).unwrap().outcomes.remove(0);
    let (cache, key) = (ResultCache::open(scratch.join("cache")).unwrap(), outcome.spec.key);
    cache.store(&key, &outcome.result).unwrap();
    assert_eq!(cache.load(&key).as_ref(), Some(&outcome.result), "the entry reads back");
    let entry = cache.dir().join(format!("{key}.json"));
    check("cache entry", &std::fs::read(&entry).unwrap(), &entry, &|_| drop(cache.load(&key)));
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(panics.is_empty(), "readers panicked on: {panics:?}");
}
