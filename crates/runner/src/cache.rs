//! Persistent result cache.
//!
//! One JSON file per [`JobKey`] under a cache directory (by default
//! `target/tarch-cache/`), `<key>.json`. A profiled job's per-opcode
//! dispatch counts go in a second document beside it,
//! `<key>.dispatches.json`, which only Figure 2(a) reads: a result
//! lookup never opens it. A lookup that fails for *any* reason —
//! missing file, truncated write, schema mismatch, field drift — is a
//! miss, never an error: the cache is purely an accelerator and the
//! simulation can always be re-run.
//!
//! Writes go through a temp file + rename so a crashed run can leave at
//! worst an orphaned `*.tmp-*` file, never a corrupt entry, and so
//! concurrent workers storing the same key race benignly.

use crate::job::{JobKey, KEY_SCHEMA};
use crate::json::{Json, JsonWriter};
use crate::result::{CellResult, Dispatches};
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
        self.dir.join(format!("{key}.json"))
    }

    fn dispatch_path(&self, key: &JobKey) -> PathBuf {
        self.dir.join(format!("{key}.dispatches.json"))
    }

    /// Looks up a cached result; any load failure is a miss.
    pub fn load(&self, key: &JobKey) -> Option<CellResult> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        CellResult::from_json(checked(&text, key)?.get("cell")?).ok()
    }

    /// Looks up the dispatch counts stored beside a profiled job's
    /// result; any load failure is a miss.
    pub fn load_dispatches(&self, key: &JobKey) -> Option<Dispatches> {
        let text = std::fs::read_to_string(self.dispatch_path(key)).ok()?;
        let doc = checked(&text, key)?;
        let Json::Obj(counts) = doc.get("dispatches")? else { return None };
        counts.iter().map(|(op, n)| Some((op.to_string(), n.as_u64()?))).collect()
    }

    /// Stores a result. Best-effort: failures are reported but callers
    /// normally ignore them (a store failure only costs a future re-run).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error message.
    pub fn store(&self, key: &JobKey, cell: &CellResult) -> Result<(), String> {
        self.write(&self.entry_path(key), key, "cell", |w| cell.write_json(w, true))
    }

    /// Stores a profiled job's dispatch counts beside its result.
    /// Best-effort, like [`ResultCache::store`].
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error message.
    pub fn store_dispatches(&self, key: &JobKey, counts: &Dispatches) -> Result<(), String> {
        self.write(&self.dispatch_path(key), key, "dispatches", |w| {
            w.obj(|o| {
                for (op, &n) in counts {
                    o.key(op).u64(n);
                }
            })
        })
    }

    /// Writes `{key_schema, key, <field>: body}` to `path` through a
    /// temp file and a rename.
    fn write(
        &self,
        path: &Path,
        key: &JobKey,
        field: &str,
        body: impl FnOnce(&mut JsonWriter),
    ) -> Result<(), String> {
        let text = JsonWriter::print(|w| {
            w.obj(|o| {
                o.key("key_schema").u64(KEY_SCHEMA.into());
                o.key("key").str(&key.hex());
                body(o.key(field));
            })
        });
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, text)
            .map_err(|e| format!("cache write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("cache rename {}: {e}", path.display()))
    }

    /// Number of documents currently on disk, results and dispatch
    /// counts alike (for stats/tests).
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

/// Parses a cache document and checks that it was written under
/// `KEY_SCHEMA` for `key`.
fn checked<'t>(text: &'t str, key: &JobKey) -> Option<Json<'t>> {
    let doc = Json::parse(text).ok()?;
    let ours = doc.req_u64("key_schema").ok()? == u64::from(KEY_SCHEMA)
        && JobKey::parse(doc.req_str("key").ok()?)? == *key;
    ours.then_some(doc)
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

    fn dispatches() -> Dispatches {
        [("ADD", 40), ("HALT", 1), ("MOVE", 7)].map(|(op, n)| (op.to_string(), n)).into()
    }

    #[test]
    fn dispatch_counts_roundtrip_beside_the_result() {
        let dir = tmpdir("dispatch");
        let cache = ResultCache::open(&dir).unwrap();
        let key = JobKey(9, 10);
        assert!(cache.load_dispatches(&key).is_none());
        cache.store_dispatches(&key, &dispatches()).unwrap();
        assert_eq!(cache.load_dispatches(&key), Some(dispatches()));
        // The counts are a document of their own, not a result.
        assert!(cache.load(&key).is_none());
        cache.store(&key, &cell(3)).unwrap();
        assert_eq!(cache.load(&key), Some(cell(3)));
        assert_eq!(cache.load_dispatches(&key), Some(dispatches()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_or_foreign_dispatch_documents_are_misses() {
        let dir = tmpdir("dispatch-miss");
        let cache = ResultCache::open(&dir).unwrap();
        let key = JobKey(11, 12);
        cache.store_dispatches(&key, &dispatches()).unwrap();
        let path = dir.join(format!("{key}.dispatches.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let schema = |n: u32| format!("\"key_schema\": {n}");
        for bad in [
            text[..text.len() / 2].to_string(),
            text.replace(&key.hex(), &JobKey(11, 13).hex()),
            text.replace(&schema(KEY_SCHEMA), &schema(KEY_SCHEMA + 1)),
        ] {
            assert_ne!(bad, text);
            std::fs::write(&path, &bad).unwrap();
            assert!(cache.load_dispatches(&key).is_none(), "read as a hit:\n{bad}");
        }
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
