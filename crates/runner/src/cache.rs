//! Persistent result cache.
//!
//! One JSON file per [`JobKey`] under a cache directory (by default
//! `target/tarch-cache/`). A lookup that fails for *any* reason —
//! missing file, truncated write, schema mismatch, field drift — is a
//! miss, never an error: the cache is purely an accelerator and the
//! simulation can always be re-run.
//!
//! Writes go through a temp file + rename so a crashed run can leave at
//! worst an orphaned `*.tmp-*` file, never a corrupt entry, and so
//! concurrent workers storing the same key race benignly.

use crate::job::{JobKey, KEY_SCHEMA};
use crate::json::Json;
use crate::result::CellResult;
use std::path::{Path, PathBuf};
use std::process;
use std::sync::atomic::{AtomicU64, Ordering};

/// On-disk result cache keyed by [`JobKey`].
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl ResultCache {
    /// Opens (and creates if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the `std::io` error message if the directory cannot be
    /// created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ResultCache, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
        Ok(ResultCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &JobKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.hex()))
    }

    /// Looks up a cached result; any load failure is a miss.
    pub fn load(&self, key: &JobKey) -> Option<CellResult> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let doc = Json::parse(&text).ok()?;
        if doc.req_u64("key_schema").ok()? != KEY_SCHEMA as u64 {
            return None;
        }
        if doc.req_str("key").ok()? != key.hex() {
            return None;
        }
        CellResult::from_json(doc.get("cell")?).ok()
    }

    /// Stores a result. Best-effort: failures are reported but callers
    /// normally ignore them (a store failure only costs a future re-run).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error message.
    pub fn store(&self, key: &JobKey, cell: &CellResult) -> Result<(), String> {
        let doc = Json::Obj(vec![
            ("key_schema".into(), Json::num(KEY_SCHEMA)),
            ("key".into(), Json::str(key.hex())),
            ("cell".into(), cell.to_json()),
        ]);
        let final_path = self.entry_path(key);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, doc.to_pretty_string())
            .map_err(|e| format!("cache write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &final_path)
            .map_err(|e| format!("cache rename {}: {e}", final_path.display()))
    }

    /// Number of entries currently on disk (for stats/tests).
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tarch_core::{BranchStats, PerfCounters};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("tarch-cache-test-{}-{tag}", process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cell(n: u64) -> CellResult {
        CellResult {
            counters: PerfCounters { cycles: n, instructions: n / 2, ..PerfCounters::default() },
            branch: BranchStats::default(),
            output: format!("out {n}\n"),
            bytecodes: None,
            sim_nanos: 0,
            tier_deopts: 0,
            trace: None,
        }
    }

    #[test]
    fn store_then_load_roundtrips() {
        let dir = tmpdir("roundtrip");
        let cache = ResultCache::open(&dir).unwrap();
        let key = JobKey(1, 2);
        assert!(cache.load(&key).is_none());
        cache.store(&key, &cell(100)).unwrap();
        assert_eq!(cache.load(&key).unwrap(), cell(100));
        assert_eq!(cache.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_a_miss() {
        let dir = tmpdir("corrupt");
        let cache = ResultCache::open(&dir).unwrap();
        let key = JobKey(3, 4);
        cache.store(&key, &cell(7)).unwrap();
        let path = dir.join(format!("{}.json", key.hex()));
        std::fs::write(&path, "{ truncated").unwrap();
        assert!(cache.load(&key).is_none());
        // Wrong-key content (e.g. a renamed file) is also a miss.
        cache.store(&JobKey(5, 6), &cell(9)).unwrap();
        std::fs::copy(dir.join(format!("{}.json", JobKey(5, 6).hex())), &path).unwrap();
        assert!(cache.load(&key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_writers_never_leave_a_torn_entry() {
        // Two threads hammer the same key with different payloads. The
        // temp-file + atomic-rename protocol guarantees every observable
        // state of the entry is one complete, parseable document — so we
        // bypass `load()` (which silently eats corruption as a miss) and
        // parse the raw file text directly after every store.
        let dir = tmpdir("race");
        let cache = std::sync::Arc::new(ResultCache::open(&dir).unwrap());
        let key = JobKey(0xdead, 0xbeef);
        let path = dir.join(format!("{}.json", key.hex()));

        const ROUNDS: u64 = 200;
        std::thread::scope(|scope| {
            for writer in 0..2u64 {
                let cache = std::sync::Arc::clone(&cache);
                let path = path.clone();
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        cache.store(&key, &cell(writer * ROUNDS + round)).unwrap();
                        let text = std::fs::read_to_string(&path).unwrap();
                        let doc = Json::parse(&text).unwrap_or_else(|e| {
                            panic!("torn cache entry after store: {e}\n{text}")
                        });
                        // Whole-document atomicity: whichever writer's
                        // version we observed, it carries its full cell.
                        assert!(doc.get("cell").is_some(), "entry missing cell:\n{text}");
                        assert_eq!(doc.req_str("key").unwrap(), key.hex());
                    }
                });
            }
        });

        // Afterwards the entry is a valid hit with one of the payloads.
        let final_cell = cache.load(&key).expect("entry readable after race");
        assert!(final_cell.counters.cycles < 2 * ROUNDS);
        // No leftover temp files: every store's temp was renamed away.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "orphaned temp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_nesting_is_a_miss_on_a_pool_sized_stack() {
        let dir = tmpdir("nesting");
        let cache = ResultCache::open(&dir).unwrap();
        let key = JobKey(7, 8);
        std::fs::write(dir.join(format!("{}.json", key.hex())), "[".repeat(1_000_000)).unwrap();
        // 2 MiB is the default stack of the pool's worker threads.
        let loaded = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || cache.load(&key))
            .unwrap()
            .join()
            .unwrap();
        assert!(loaded.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let dir = tmpdir("distinct");
        let cache = ResultCache::open(&dir).unwrap();
        cache.store(&JobKey(1, 1), &cell(1)).unwrap();
        cache.store(&JobKey(1, 2), &cell(2)).unwrap();
        assert_eq!(cache.load(&JobKey(1, 1)).unwrap(), cell(1));
        assert_eq!(cache.load(&JobKey(1, 2)).unwrap(), cell(2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
