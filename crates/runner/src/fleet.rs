//! Versioned fleet-run artifacts: the serialized outcome of one
//! `repro fleet` invocation (the `tarch-fleet` multi-tenant scheduler).
//!
//! Mirrors [`crate::artifact`] in spirit — a schema-tagged JSON document
//! with the volatile host-timing fields kept out of the
//! [`FleetArtifact::fingerprint`] — but describes a different shape of
//! run: one guest image cloned for N tenants, scheduled round-robin
//! across shards under per-tenant cycle budgets, reported as per-shard
//! throughput plus tenant-latency percentiles in *simulated* time.

use crate::json::{Json, JsonWriter};
use crate::percentile::Percentiles;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// Fleet artifact format identifier; bump on any breaking schema change.
pub const FLEET_SCHEMA: &str = "tarch-fleet/v1";

/// One shard's scheduling summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: u32,
    /// Tenants assigned to this shard.
    pub tenants: u32,
    /// Tenants that ran to completion within budget.
    pub completed: u32,
    /// Guest instructions retired on this shard.
    pub instructions: u64,
    /// The shard's simulated clock when its run queue drained (cycles,
    /// including charged context-switch costs).
    pub cycles: u64,
}

impl ShardSummary {
    /// Shard throughput: retired guest instructions per simulated cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 { 0.0 } else { self.instructions as f64 / self.cycles as f64 }
    }

    fn write_json(self, w: &mut JsonWriter) {
        w.obj(|o| {
            o.key("shard").u64(self.shard.into());
            o.key("tenants").u64(self.tenants.into());
            o.key("completed").u64(self.completed.into());
            o.key("instructions").u64(self.instructions);
            o.key("cycles").u64(self.cycles);
            o.key("ipc").f64(self.ipc());
        });
    }

    fn from_json(v: &Json) -> Result<ShardSummary, String> {
        Ok(ShardSummary {
            shard: req_u32(v, "shard")?,
            tenants: req_u32(v, "tenants")?,
            completed: req_u32(v, "completed")?,
            instructions: v.req_u64("instructions")?,
            cycles: v.req_u64("cycles")?,
        })
    }
}

/// A count field that must fit the `u32` it decodes into.
fn req_u32(v: &Json, key: &str) -> Result<u32, String> {
    let n = v.req_u64(key)?;
    u32::try_from(n).map_err(|_| format!("field `{key}` is {n}, above the u32 range"))
}

/// One serialized fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetArtifact {
    /// Unix seconds when the artifact was created.
    pub created_unix: u64,
    /// Workload name (one guest image cloned for every tenant).
    pub workload: String,
    /// Engine id (`lua` / `js`).
    pub engine: String,
    /// ISA level name.
    pub level: String,
    /// Input scale id the guest was built at.
    pub scale: String,
    /// Scheduler shuffle seed (testkit xorshift).
    pub seed: u64,
    /// Tenants (cloned guests) launched.
    pub tenants: u32,
    /// Per-tenant simulated-cycle budget.
    pub budget_cycles: u64,
    /// Preemption quantum in simulated instructions.
    pub slice_steps: u64,
    /// Simulated cycles charged per context switch.
    pub ctxsw_cycles: u64,
    /// Tenants that ran to completion within budget.
    pub completed: u32,
    /// Tenants preempted for good when their budget ran out.
    pub evicted: u32,
    /// Per-shard summaries, in shard order.
    pub shards: Vec<ShardSummary>,
    /// Tenant completion latency in simulated cycles on the owning
    /// shard's clock (queueing included); `None` when nothing completed.
    pub latency: Option<Percentiles>,
    /// Measured wall-nanoseconds to construct one VM from source
    /// (parse + compile + codegen + load). Volatile host timing.
    pub construct_nanos: u64,
    /// Measured wall-nanoseconds to stamp out one clone of the frozen
    /// snapshot. Volatile host timing.
    pub clone_nanos: u64,
    /// Whole-run wall-nanoseconds. Volatile host timing.
    pub wall_nanos: u64,
}

impl FleetArtifact {
    /// Stamps the artifact's creation time (call once, at build).
    pub fn stamp_created(&mut self) {
        self.created_unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
    }

    /// Default artifact filename, `BENCH_fleet_<unix-seconds>.json`.
    pub fn default_filename(&self) -> String {
        format!("BENCH_fleet_{}.json", self.created_unix)
    }

    /// How many times cheaper a clone was than full construction;
    /// infinite when a clone measured below the timer's resolution.
    pub fn clone_speedup(&self) -> f64 {
        if self.clone_nanos == 0 {
            f64::INFINITY
        } else {
            self.construct_nanos as f64 / self.clone_nanos as f64
        }
    }

    /// The JSON document. `volatile: false` leaves out creation time and
    /// host timing, which is the fingerprint.
    fn document(&self, volatile: bool) -> String {
        JsonWriter::print(|w| {
            w.obj(|o| {
                o.key("schema").str(FLEET_SCHEMA);
                if volatile {
                    o.key("created_unix").u64(self.created_unix);
                }
                o.key("workload").str(&self.workload);
                o.key("engine").str(&self.engine);
                o.key("level").str(&self.level);
                o.key("scale").str(&self.scale);
                o.key("seed").u64(self.seed);
                o.key("tenants").u64(self.tenants.into());
                o.key("budget_cycles").u64(self.budget_cycles);
                o.key("slice_steps").u64(self.slice_steps);
                o.key("ctxsw_cycles").u64(self.ctxsw_cycles);
                o.key("completed").u64(self.completed.into());
                o.key("evicted").u64(self.evicted.into());
                o.key("shards").arr(|a| {
                    for s in &self.shards {
                        s.write_json(a.item());
                    }
                });
                match &self.latency {
                    Some(p) => p.write_json(o.key("latency_cycles")),
                    None => o.key("latency_cycles").null(),
                }
                if volatile {
                    o.key("construct_nanos").u64(self.construct_nanos);
                    o.key("clone_nanos").u64(self.clone_nanos);
                    o.key("clone_speedup").f64(self.clone_speedup());
                    o.key("wall_nanos").u64(self.wall_nanos);
                }
            })
        })
    }

    /// The result-identity portion: everything except creation time and
    /// host timing. Two same-seed fleet runs — fast host or slow — have
    /// equal fingerprints exactly when their simulated schedules agree,
    /// which is what the CI determinism smoke asserts.
    pub fn fingerprint(&self) -> String {
        self.document(false)
    }

    /// Writes the artifact to `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error message.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.document(true))
            .map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Reads and validates an artifact.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message on I/O failure, malformed JSON, a
    /// schema mismatch, or any missing/mistyped field.
    pub fn read(path: &Path) -> Result<FleetArtifact, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        FleetArtifact::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn from_json(doc: &Json) -> Result<FleetArtifact, String> {
        let schema = doc.req_str("schema")?;
        if schema != FLEET_SCHEMA {
            return Err(format!(
                "unsupported fleet schema `{schema}` (expected `{FLEET_SCHEMA}`)"
            ));
        }
        let shards_json = doc.get("shards").and_then(Json::as_arr).ok_or("missing `shards` array")?;
        let mut shards = Vec::with_capacity(shards_json.len());
        for (i, s) in shards_json.iter().enumerate() {
            shards.push(ShardSummary::from_json(s).map_err(|e| format!("shard {i}: {e}"))?);
        }
        let latency = match doc.get("latency_cycles") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                Percentiles::from_json(v).map_err(|e| format!("latency_cycles: {e}"))?,
            ),
        };
        Ok(FleetArtifact {
            created_unix: doc.req_u64("created_unix")?,
            workload: doc.req_str("workload")?.to_string(),
            engine: doc.req_str("engine")?.to_string(),
            level: doc.req_str("level")?.to_string(),
            scale: doc.req_str("scale")?.to_string(),
            seed: doc.req_u64("seed")?,
            tenants: req_u32(doc, "tenants")?,
            budget_cycles: doc.req_u64("budget_cycles")?,
            slice_steps: doc.req_u64("slice_steps")?,
            ctxsw_cycles: doc.req_u64("ctxsw_cycles")?,
            completed: req_u32(doc, "completed")?,
            evicted: req_u32(doc, "evicted")?,
            shards,
            latency,
            construct_nanos: doc.req_u64("construct_nanos")?,
            clone_nanos: doc.req_u64("clone_nanos")?,
            wall_nanos: doc.req_u64("wall_nanos")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact() -> FleetArtifact {
        FleetArtifact {
            created_unix: 1_700_000_000,
            workload: "fibo".into(),
            engine: "lua".into(),
            level: "typed".into(),
            scale: "test".into(),
            seed: 42,
            tenants: 64,
            budget_cycles: 1_000_000,
            slice_steps: 10_000,
            ctxsw_cycles: 200,
            completed: 60,
            evicted: 4,
            shards: vec![
                ShardSummary { shard: 0, tenants: 32, completed: 30, instructions: 5_000, cycles: 9_000 },
                ShardSummary { shard: 1, tenants: 32, completed: 30, instructions: 5_500, cycles: 9_500 },
            ],
            latency: Some(Percentiles { p50: 4000.0, p95: 8000.0, p99: 9000.0 }),
            construct_nanos: 800_000,
            clone_nanos: 20_000,
            wall_nanos: 123_456_789,
        }
    }

    fn write_read(a: &FleetArtifact, tag: &str) -> FleetArtifact {
        let path = std::env::temp_dir()
            .join(format!("tarch-fleet-artifact-{}-{tag}.json", std::process::id()));
        a.write(&path).unwrap();
        let back = FleetArtifact::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        back
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let a = artifact();
        assert_eq!(write_read(&a, "roundtrip"), a);
    }

    #[test]
    fn no_completions_roundtrips_null_latency() {
        let mut a = artifact();
        a.latency = None;
        a.completed = 0;
        assert_eq!(write_read(&a, "nolat").latency, None);
    }

    #[test]
    fn fingerprint_ignores_host_timing_only() {
        let a = artifact();
        let mut b = artifact();
        b.created_unix += 999;
        b.construct_nanos = 1;
        b.clone_nanos = 1;
        b.wall_nanos = 7;
        assert_eq!(a.fingerprint(), b.fingerprint());

        let mut c = artifact();
        c.shards[1].instructions += 1;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = artifact();
        d.seed += 1;
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn clone_speedup_handles_sub_resolution_clones() {
        let mut a = artifact();
        assert!((a.clone_speedup() - 40.0).abs() < 1e-9);
        a.clone_nanos = 0;
        assert!(a.clone_speedup().is_infinite());
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let a = artifact();
        let path = std::env::temp_dir()
            .join(format!("tarch-fleet-artifact-{}-schema.json", std::process::id()));
        let text = a.document(true).replace(FLEET_SCHEMA, "tarch-fleet/v999");
        std::fs::write(&path, text).unwrap();
        let err = FleetArtifact::read(&path).unwrap_err();
        assert!(err.contains("v999"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sub_resolution_clone_writes_null_speedup_and_reads_back() {
        let mut a = artifact();
        a.clone_nanos = 0;
        let path = std::env::temp_dir()
            .join(format!("tarch-fleet-artifact-{}-inf.json", std::process::id()));
        a.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back = FleetArtifact::read(&path);
        let _ = std::fs::remove_file(&path);
        assert!(text.contains("\"clone_speedup\": null,"), "{text}");
        assert_eq!(Json::parse(&text).unwrap().get("clone_speedup"), Some(&Json::Null));
        assert_eq!(back.unwrap(), a);
    }

    #[test]
    fn counts_above_u32_are_errors_not_truncations() {
        let text = artifact().document(true);
        // 2^32 + 16 read back as 16 through an `as u32` cast.
        for (from, to, error) in [
            ("\"tenants\": 64,", "\"tenants\": 4294967312,", "field `tenants` is 4294967312"),
            ("\"completed\": 60,", "\"completed\": 4294967356,", "field `completed`"),
            ("\"evicted\": 4,", "\"evicted\": 4294967300,", "field `evicted`"),
            ("\"shard\": 1,", "\"shard\": 4294967297,", "shard 1: field `shard`"),
            ("\"tenants\": 32,", "\"tenants\": 4294967328,", "shard 0: field `tenants`"),
            ("\"completed\": 30,", "\"completed\": 4294967326,", "shard 0: field `completed`"),
        ] {
            let bad = text.replacen(from, to, 1);
            assert_ne!(bad, text, "{from}");
            let err = FleetArtifact::from_json(&Json::parse(&bad).unwrap()).unwrap_err();
            assert!(err.starts_with(error), "{from}: {err}");
        }
    }

    #[test]
    fn shard_ipc_is_total_and_zero_safe() {
        let s = ShardSummary { shard: 0, tenants: 1, completed: 0, instructions: 10, cycles: 0 };
        assert_eq!(s.ipc(), 0.0);
        let s2 = ShardSummary { cycles: 20, ..s };
        assert!((s2.ipc() - 0.5).abs() < 1e-12);
    }
}
