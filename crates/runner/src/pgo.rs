//! Versioned PGO profile artifacts: what a profile run observed, per
//! workload, serialized to a `PGO_<workload>.json` file.
//!
//! The artifact is the handoff point of the two-phase PGO loop (see
//! `tarch_core::pgo`): phase 1 records the block-to-block control edges
//! of every (engine, ISA level) cell, one [`PgoCell`] each; phase 2
//! distills a cell into the engine's [`PgoProfile`] via
//! [`PgoCell::profile`], applying the dominance thresholds that separate
//! "measured hot path" from noise.
//!
//! Raw edge counts (not distilled decisions) are what's persisted so the
//! thresholds can evolve without re-profiling, and so the artifact
//! doubles as a human-readable record of *why* the optimizer did what it
//! did. Serialization is deterministic: rows are emitted in sorted
//! order, so write → read → write is byte-identical (pinned by test).

use crate::job::{EngineKind, Scale};
use crate::json::{Json, JsonWriter};
use std::collections::BTreeMap;
use std::path::Path;
use tarch_core::{EdgeProfile, IsaLevel, PgoProfile};

/// Profile artifact format identifier; bump on breaking schema change.
/// `v1` also carried the tracer's hot-PC rows and an opcode-pair
/// histogram, which nothing reads any more.
pub const PGO_SCHEMA: &str = "tarch-pgo/v2";

/// Edge-dominance thresholds for [`PgoCell::profile`]: a successor must
/// be observed at least this many times ...
pub const EDGE_MIN_COUNT: u64 = 32;
/// ... and carry at least this share of its source's outgoing edges.
/// The bar is deliberately near-unconditional: loop back-edges in hot
/// bytecode handlers clear 99% easily, while data-dependent branches
/// (type checks, tree-descent direction) plateau around 90–98% — and
/// straightening those costs more in guard side-exits than the
/// straight-line win pays back (measured: binary-trees and ackermann
/// regress at 90–95, gain at 99; loop-heavy cells keep their speedup).
pub const EDGE_DOMINANCE_PERCENT: u64 = 99;
/// Edge rows kept per cell at serialization time (top by count).
pub const MAX_EDGES: usize = 512;

/// The raw observations of one profiled cell (engine × ISA level).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PgoCell {
    /// Engine that was profiled.
    pub engine: EngineKind,
    /// ISA level that was profiled.
    pub level: IsaLevel,
    /// Observed block-to-block edges as `(from, to, count)`, sorted by
    /// key; trimmed to the [`MAX_EDGES`] heaviest at construction.
    pub edges: Vec<(u64, u64, u64)>,
}

impl PgoCell {
    /// Builds a cell from the edge recorder, applying the size trim and
    /// canonical (key-sorted) row order.
    pub fn new(engine: EngineKind, level: IsaLevel, edges: &EdgeProfile) -> PgoCell {
        let mut edges: Vec<(u64, u64, u64)> = edges.edges().collect();
        // Trim by weight first, then restore key order for determinism.
        edges.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        edges.truncate(MAX_EDGES);
        edges.sort_unstable();
        PgoCell { engine, level, edges }
    }

    /// Distills the raw edges into the engine-facing profile: the
    /// dominant successors superblock formation follows
    /// ([`EDGE_MIN_COUNT`], [`EDGE_DOMINANCE_PERCENT`]).
    pub fn profile(&self) -> PgoProfile {
        let mut edges = EdgeProfile::new();
        for &(from, to, count) in &self.edges {
            edges.note_many(from, to, count);
        }
        PgoProfile::new(edges.dominant(EDGE_MIN_COUNT, EDGE_DOMINANCE_PERCENT))
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|o| {
            o.key("engine").str(self.engine.id());
            o.key("level").str(self.level.name());
            o.key("edges").arr(|a| {
                for &(from, to, count) in &self.edges {
                    a.item().obj(|o| {
                        o.key("from").u64(from);
                        o.key("to").u64(to);
                        o.key("count").u64(count);
                    });
                }
            });
        });
    }

    /// Reads one cell. The edge counts must sum within `u64`, as a
    /// recorder's do: [`PgoCell::profile`] replays them into an
    /// [`EdgeProfile`], whose totals are `u64`.
    fn from_json(v: &Json) -> Result<PgoCell, String> {
        let engine = EngineKind::parse(v.req_str("engine")?)
            .ok_or_else(|| format!("unknown engine `{}`", v.req_str("engine").unwrap()))?;
        let level = IsaLevel::parse(v.req_str("level")?)
            .ok_or_else(|| format!("unknown level `{}`", v.req_str("level").unwrap()))?;
        let mut edges = Vec::new();
        let mut total = 0u64;
        for e in v.get("edges").and_then(Json::as_arr).ok_or("missing `edges`")? {
            let count = e.req_u64("count")?;
            total = total.checked_add(count).ok_or("edge counts overflow u64")?;
            edges.push((e.req_u64("from")?, e.req_u64("to")?, count));
        }
        Ok(PgoCell { engine, level, edges })
    }
}

/// One workload's profile artifact: every profiled cell plus the run
/// parameters that scope its validity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PgoArtifact {
    /// Workload the profile describes.
    pub workload: String,
    /// Input scale the profile run used. A profile drives optimized runs
    /// at the *same* scale; the distilled decisions degrade gracefully
    /// (to baseline behavior) elsewhere, but the hot set may be stale.
    pub scale: Scale,
    /// Per-job step budget of the profile run.
    pub step_budget: u64,
    /// Profiled cells, sorted by (engine id, level name).
    pub cells: Vec<PgoCell>,
}

impl PgoArtifact {
    /// Wraps profiled cells, sorting them into canonical order.
    pub fn new(
        workload: impl Into<String>,
        scale: Scale,
        step_budget: u64,
        mut cells: Vec<PgoCell>,
    ) -> PgoArtifact {
        cells.sort_by(|a, b| {
            a.engine.id().cmp(b.engine.id()).then(a.level.name().cmp(b.level.name()))
        });
        PgoArtifact { workload: workload.into(), scale, step_budget, cells }
    }

    /// Canonical filename, `PGO_<workload>.json`.
    pub fn default_filename(&self) -> String {
        format!("PGO_{}.json", self.workload)
    }

    /// The cell profiled for `(engine, level)`, if any.
    pub fn cell(&self, engine: EngineKind, level: IsaLevel) -> Option<&PgoCell> {
        self.cells.iter().find(|c| c.engine == engine && c.level == level)
    }

    /// Distilled engine profile for `(engine, level)`; `None` when that
    /// cell was never profiled (the optimized run then proceeds
    /// unguided — identical to the non-PGO engine).
    pub fn profile(&self, engine: EngineKind, level: IsaLevel) -> Option<PgoProfile> {
        self.cell(engine, level).map(PgoCell::profile)
    }

    /// The JSON document.
    fn document(&self) -> String {
        JsonWriter::print(|w| {
            w.obj(|o| {
                o.key("schema").str(PGO_SCHEMA);
                o.key("workload").str(&self.workload);
                o.key("scale").str(self.scale.id());
                o.key("step_budget").u64(self.step_budget);
                o.key("cells").arr(|a| {
                    for c in &self.cells {
                        c.write_json(a.item());
                    }
                });
            })
        })
    }

    /// Writes the artifact to `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error message.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.document()).map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Reads and validates a profile artifact.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message on I/O failure, malformed JSON, a
    /// schema mismatch, or any missing/mistyped field.
    pub fn read(path: &Path) -> Result<PgoArtifact, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let schema = doc.req_str("schema")?;
        if schema != PGO_SCHEMA {
            return Err(format!(
                "{}: unsupported profile schema `{schema}` (expected `{PGO_SCHEMA}`)",
                path.display()
            ));
        }
        let workload = doc.req_str("workload")?.to_string();
        let scale = Scale::parse(doc.req_str("scale")?)
            .ok_or_else(|| format!("{}: unknown scale", path.display()))?;
        let step_budget = doc.req_u64("step_budget")?;
        let cells_json = doc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{}: missing `cells` array", path.display()))?;
        let mut cells = Vec::with_capacity(cells_json.len());
        for (i, c) in cells_json.iter().enumerate() {
            cells.push(
                PgoCell::from_json(c).map_err(|e| format!("{} cell {i}: {e}", path.display()))?,
            );
        }
        Ok(PgoArtifact { workload, scale, step_budget, cells })
    }
}

/// A directory of per-workload profiles, loaded for `repro bench
/// --pgo-dir` and `repro ab`.
///
/// A profile applies only at the scale it was recorded at: the hot set
/// and edges of a run at another scale describe other paths. Every
/// lookup therefore names the run's scale and skips a profile recorded
/// at another one; [`PgoSet::skipped`] counts them so a caller can say
/// so.
#[derive(Debug, Default)]
pub struct PgoSet {
    by_workload: BTreeMap<String, PgoArtifact>,
}

impl PgoSet {
    /// Loads every `PGO_*.json` in `dir`. Missing directory is an
    /// error; a directory with no profiles yields an empty set (every
    /// lookup misses — the run degrades to unguided).
    ///
    /// # Errors
    ///
    /// Returns a descriptive message on I/O failure or a malformed
    /// profile file.
    pub fn load(dir: &Path) -> Result<PgoSet, String> {
        let mut set = PgoSet::default();
        let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("PGO_") && name.ends_with(".json") {
                let artifact = PgoArtifact::read(&entry.path())?;
                set.by_workload.insert(artifact.workload.clone(), artifact);
            }
        }
        Ok(set)
    }

    /// Number of workload profiles loaded.
    pub fn len(&self) -> usize {
        self.by_workload.len()
    }

    /// Whether the set holds no profiles.
    pub fn is_empty(&self) -> bool {
        self.by_workload.is_empty()
    }

    /// How many loaded profiles were recorded at a scale other than
    /// `scale`: the ones every lookup at `scale` skips.
    pub fn skipped(&self, scale: Scale) -> usize {
        self.by_workload.values().filter(|a| a.scale != scale).count()
    }

    /// Distilled engine profile for one cell of a run at `scale`, if
    /// that cell was profiled at `scale`.
    pub fn profile(
        &self,
        workload: &str,
        scale: Scale,
        engine: EngineKind,
        level: IsaLevel,
    ) -> Option<PgoProfile> {
        let artifact = self.by_workload.get(workload).filter(|a| a.scale == scale)?;
        artifact.profile(engine, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell(engine: EngineKind, level: IsaLevel) -> PgoCell {
        let mut edges = EdgeProfile::new();
        for _ in 0..199 {
            edges.note(0x100, 0x140);
        }
        edges.note(0x100, 0x104);
        edges.note(0x200, 0x240); // rare: dropped by dominance filter
        PgoCell::new(engine, level, &edges)
    }

    fn sample_artifact() -> PgoArtifact {
        PgoArtifact::new(
            "fibo",
            Scale::Test,
            100_000,
            vec![
                sample_cell(EngineKind::Js, IsaLevel::Typed),
                sample_cell(EngineKind::Lua, IsaLevel::Typed),
            ],
        )
    }

    fn temp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tarch-pgo-test-{}-{tag}.json", std::process::id()))
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let a = sample_artifact();
        let path = temp("roundtrip");
        a.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back = PgoArtifact::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, a);
        // Re-serializing what was read reproduces the original bytes.
        assert_eq!(back.document(), text);
    }

    #[test]
    fn distilled_profile_applies_dominance_thresholds() {
        let cell = sample_cell(EngineKind::Lua, IsaLevel::Typed);
        let p = cell.profile();
        // 0x100 → 0x140 is 99.5% dominant with 199 samples: kept.
        assert_eq!(p.successor(0x100), Some(0x140));
        // 0x200 → 0x240 is dominant but rare: dropped.
        assert_eq!(p.successor(0x200), None);
        assert!(PgoCell::new(EngineKind::Lua, IsaLevel::Typed, &EdgeProfile::new())
            .profile()
            .is_empty());
    }

    #[test]
    fn trims_apply_at_construction() {
        let mut edges = EdgeProfile::new();
        for i in 0..(MAX_EDGES as u64 + 100) {
            for _ in 0..=(i % 7) {
                edges.note(i * 4, i * 4 + 4);
            }
        }
        let cell = PgoCell::new(EngineKind::Js, IsaLevel::Baseline, &edges);
        assert_eq!(cell.edges.len(), MAX_EDGES);
        assert!(cell.edges.is_sorted());
    }

    #[test]
    fn artifact_lookup_and_canonical_order() {
        let a = sample_artifact();
        // Construction sorted js before lua.
        assert_eq!(a.cells[0].engine, EngineKind::Js);
        assert!(a.cell(EngineKind::Lua, IsaLevel::Typed).is_some());
        assert!(a.cell(EngineKind::Lua, IsaLevel::Baseline).is_none());
        assert!(a.profile(EngineKind::Js, IsaLevel::Typed).is_some());
        assert_eq!(a.default_filename(), "PGO_fibo.json");
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let a = sample_artifact();
        let path = temp("schema");
        let text = a.document().replace(PGO_SCHEMA, "tarch-pgo/v999");
        std::fs::write(&path, text).unwrap();
        let err = PgoArtifact::read(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(err.contains("v999"), "{err}");
    }

    /// Counts that sum past `u64` within a cell are an error naming the
    /// file and the cell, not a panic when the profile is distilled.
    #[test]
    fn overflowing_edge_counts_are_rejected() {
        let committed =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../pgo-artifacts/PGO_fibo.json");
        let text = std::fs::read_to_string(committed).unwrap();
        let at = text.find("\"count\": ").expect("the first edge's count") + "\"count\": ".len();
        let end = at + text[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let path = temp("overflow");
        std::fs::write(&path, format!("{}{}{}", &text[..at], u64::MAX, &text[end..])).unwrap();
        let err = PgoArtifact::read(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(err.contains(&*path.to_string_lossy()), "{err}");
        assert!(err.contains("cell 0: edge counts overflow u64"), "{err}");
    }

    #[test]
    fn pgo_set_loads_a_directory() {
        let dir = std::env::temp_dir().join(format!("tarch-pgo-set-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = sample_artifact();
        a.write(&dir.join(a.default_filename())).unwrap();
        std::fs::write(dir.join("not-a-profile.txt"), "ignored").unwrap();
        let set = PgoSet::load(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(set.len(), 1);
        assert!(!set.is_empty());
        let test = Scale::Test;
        assert!(set.profile("fibo", test, EngineKind::Lua, IsaLevel::Typed).is_some());
        assert!(set.profile("fibo", test, EngineKind::Lua, IsaLevel::Baseline).is_none());
        assert!(set.profile("nbody", test, EngineKind::Lua, IsaLevel::Typed).is_none());
        assert_eq!(set.skipped(test), 0);
        // A test-scale profile is skipped by a run at any other scale.
        assert!(set.profile("fibo", Scale::Default, EngineKind::Lua, IsaLevel::Typed).is_none());
        assert_eq!(set.skipped(Scale::Default), 1);
        assert_eq!(set.skipped(Scale::Full), 1);
    }
}
