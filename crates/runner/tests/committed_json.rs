//! Every committed JSON document — the `BENCH_*.json` artifacts under
//! `bench-artifacts/` and the PGO profiles under `pgo-artifacts/` — must
//! read back and re-serialize to its own bytes (up to a trailing
//! newline): the writer is deterministic and the reader lossless, so a
//! change to either that alters one byte on disk fails here.

use std::path::{Path, PathBuf};
use tarch_runner::Json;

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
