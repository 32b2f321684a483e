//! Versioned run artifacts: the full result matrix of one `repro`
//! invocation, serialized to a `BENCH_<timestamp>.json` file.
//!
//! Artifacts serve two purposes: figure renderers can *reload* them
//! instead of re-simulating (`repro --from-json`), and successive files
//! form a benchmark trajectory future PRs can compare against. The
//! volatile fields (creation time, per-job wall time, cache provenance)
//! live in dedicated spots so [`BenchArtifact::fingerprint`] can compare
//! two runs' *results* while ignoring *when and how fast* they ran.

use crate::job::{EngineKind, JobKey, JobSpec, Scale};
use crate::json::{Json, JsonWriter};
use crate::pool::JobOutcome;
use crate::result::CellResult;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};
use tarch_core::IsaLevel;

/// Artifact format identifier; bump on any breaking schema change.
pub const ARTIFACT_SCHEMA: &str = "tarch-bench/v1";

/// One serialized run: scale, budget, and every job outcome.
#[derive(Debug)]
pub struct BenchArtifact {
    /// Unix seconds when the artifact was created.
    pub created_unix: u64,
    /// Input scale the matrix ran at.
    pub scale: Scale,
    /// Per-job step budget in force.
    pub step_budget: u64,
    /// Host throughput of this run: simulated instructions per host
    /// microsecond (MIPS), aggregated over the jobs that actually
    /// simulated (cached jobs carry no meaningful wall time). Zero when
    /// every job was cached. Volatile — excluded from the fingerprint.
    pub host_mips: f64,
    /// Every job outcome, in matrix order.
    pub outcomes: Vec<JobOutcome>,
}

/// Aggregate host throughput in MIPS over the non-cached outcomes.
fn aggregate_mips(outcomes: &[JobOutcome]) -> f64 {
    let (instructions, nanos) = outcomes
        .iter()
        .filter(|o| !o.cached && o.wall_nanos > 0)
        .fold((0u64, 0u64), |(i, n), o| (i + o.result.counters.instructions, n + o.wall_nanos));
    if nanos == 0 { 0.0 } else { instructions as f64 * 1e3 / nanos as f64 }
}

impl BenchArtifact {
    /// Wraps a finished run, stamping the current time and computing the
    /// aggregate host throughput.
    pub fn new(scale: Scale, step_budget: u64, outcomes: Vec<JobOutcome>) -> BenchArtifact {
        let created_unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let host_mips = aggregate_mips(&outcomes);
        BenchArtifact { created_unix, scale, step_budget, host_mips, outcomes }
    }

    /// Default artifact filename, `BENCH_<unix-seconds>.json`.
    pub fn default_filename(&self) -> String {
        format!("BENCH_{}.json", self.created_unix)
    }

    /// Writes one job; `volatile: false` leaves out its timing and the
    /// cell's `sim_nanos`.
    fn write_job(w: &mut JsonWriter, o: &JobOutcome, volatile: bool) {
        w.obj(|j| {
            j.key("workload").str(&o.spec.workload);
            j.key("engine").str(o.spec.engine.id());
            j.key("level").str(o.spec.level.name());
            j.key("scale").str(o.spec.scale.id());
            j.key("profiled").bool(o.spec.profiled);
            // The one core-config fact the comparison report needs per
            // cell: whether the run tier-compiled hot blocks. The rest
            // of the config stays summarized by the content key.
            j.key("tier").bool(o.spec.core.tier);
            j.key("key").str(&o.spec.key.hex());
            o.result.write_json(j.key("cell"), volatile);
            if volatile {
                j.key("timing").obj(|t| {
                    t.key("cached").bool(o.cached);
                    t.key("wall_nanos").u64(o.wall_nanos);
                    t.key("host_mips").f64(o.steps_per_sec() / 1e6);
                });
            }
        });
    }

    fn job_from_json(v: &Json) -> Result<JobOutcome, String> {
        let workload = v.req_str("workload")?.to_string();
        let engine = EngineKind::parse(v.req_str("engine")?)
            .ok_or_else(|| format!("unknown engine `{}`", v.req_str("engine").unwrap()))?;
        let level = IsaLevel::parse(v.req_str("level")?)
            .ok_or_else(|| format!("unknown level `{}`", v.req_str("level").unwrap()))?;
        let scale = Scale::parse(v.req_str("scale")?)
            .ok_or_else(|| format!("unknown scale `{}`", v.req_str("scale").unwrap()))?;
        let profiled = v
            .get("profiled")
            .and_then(Json::as_bool)
            .ok_or("missing or non-boolean field `profiled`")?;
        // Absent in pre-tier artifacts, which all ran untiered.
        let tier = v.get("tier").and_then(Json::as_bool).unwrap_or(false);
        let key = JobKey::parse(v.req_str("key")?).ok_or("malformed `key`")?;
        let result = CellResult::from_json(v.get("cell").ok_or("missing `cell`")?)?;
        let timing = v.get("timing").ok_or("missing `timing`")?;
        let cached = timing
            .get("cached")
            .and_then(Json::as_bool)
            .ok_or("missing or non-boolean field `timing.cached`")?;
        let wall_nanos = timing.req_u64("wall_nanos")?;
        // Artifacts embed neither program source (it would balloon them)
        // nor the full core configuration; the recorded key preserves
        // cell identity, so reloaded specs carry the paper core as a
        // stand-in — with the recorded `tier` flag restored, which the
        // comparison report attributes ratios to.
        let spec = JobSpec {
            workload,
            engine,
            level,
            scale,
            profiled,
            source: String::new(),
            core: tarch_core::CoreConfig { tier, ..tarch_core::CoreConfig::paper() },
            key,
        };
        Ok(JobOutcome { spec, result, cached, wall_nanos })
    }

    /// The JSON document. `volatile: false` leaves out creation time,
    /// host throughput and per-job timing, which is the fingerprint.
    fn document(&self, volatile: bool) -> String {
        JsonWriter::print(|w| {
            w.obj(|d| {
                d.key("schema").str(ARTIFACT_SCHEMA);
                if volatile {
                    d.key("created_unix").u64(self.created_unix);
                }
                d.key("scale").str(self.scale.id());
                d.key("step_budget").u64(self.step_budget);
                if volatile {
                    d.key("host_mips").f64(self.host_mips);
                }
                d.key("jobs").arr(|a| {
                    for o in &self.outcomes {
                        Self::write_job(a.item(), o, volatile);
                    }
                });
            })
        })
    }

    /// The result-identity portion of the artifact: everything except
    /// creation time and per-job timing/cache provenance. Two runs of the
    /// same matrix — cached or not, fast or slow — have equal
    /// fingerprints exactly when their simulated results are identical.
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
    pub fn read(path: &Path) -> Result<BenchArtifact, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let schema = doc.req_str("schema")?;
        if schema != ARTIFACT_SCHEMA {
            return Err(format!(
                "{}: unsupported artifact schema `{schema}` (expected `{ARTIFACT_SCHEMA}`)",
                path.display()
            ));
        }
        let created_unix = doc.req_u64("created_unix")?;
        let scale = Scale::parse(doc.req_str("scale")?)
            .ok_or_else(|| format!("{}: unknown scale", path.display()))?;
        let step_budget = doc.req_u64("step_budget")?;
        // Absent in pre-host_mips artifacts; tolerate and report zero.
        let host_mips = doc.get("host_mips").and_then(Json::as_f64).unwrap_or(0.0);
        let jobs = doc
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{}: missing `jobs` array", path.display()))?;
        let mut outcomes = Vec::with_capacity(jobs.len());
        for (i, j) in jobs.iter().enumerate() {
            outcomes.push(
                Self::job_from_json(j).map_err(|e| format!("{} job {i}: {e}", path.display()))?,
            );
        }
        Ok(BenchArtifact { created_unix, scale, step_budget, host_mips, outcomes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tarch_core::{BranchStats, CoreConfig, PerfCounters};

    fn outcome(n: u64, cached: bool) -> JobOutcome {
        let spec = JobSpec::new(
            format!("w{n}"),
            EngineKind::Js,
            IsaLevel::CheckedLoad,
            Scale::Test,
            n.is_multiple_of(2),
            format!("print({n})"),
            &CoreConfig::paper(),
        );
        JobOutcome {
            spec,
            result: CellResult {
                counters: PerfCounters {
                    cycles: n * 3,
                    instructions: n * 2,
                    ..PerfCounters::default()
                },
                branch: BranchStats { branches: n, ..BranchStats::default() },
                output: format!("{n}\n"),
                bytecodes: n.is_multiple_of(2).then_some(n * 7),
                sim_nanos: 0,
                tier_deopts: 0,
                trace: None,
            },
            cached,
            wall_nanos: 1000 + n,
        }
    }

    fn write_read(a: &BenchArtifact, tag: &str) -> BenchArtifact {
        let path = std::env::temp_dir()
            .join(format!("tarch-artifact-test-{}-{tag}.json", std::process::id()));
        a.write(&path).unwrap();
        let back = BenchArtifact::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        back
    }

    #[test]
    fn roundtrip_preserves_results_and_metadata() {
        let a = BenchArtifact::new(
            Scale::Test,
            5000,
            (0..6).map(|n| outcome(n, n > 3)).collect(),
        );
        let back = write_read(&a, "roundtrip");
        assert_eq!(back.scale, Scale::Test);
        assert_eq!(back.step_budget, 5000);
        assert_eq!(back.created_unix, a.created_unix);
        assert_eq!(back.outcomes.len(), 6);
        for (x, y) in a.outcomes.iter().zip(&back.outcomes) {
            assert_eq!(x.result, y.result);
            assert_eq!(x.spec.key, y.spec.key);
            assert_eq!(x.spec.workload, y.spec.workload);
            assert_eq!(x.spec.level, y.spec.level);
            assert_eq!(x.spec.profiled, y.spec.profiled);
            assert_eq!(x.spec.core.tier, y.spec.core.tier);
            assert_eq!(x.cached, y.cached);
            assert_eq!(x.wall_nanos, y.wall_nanos);
        }
    }

    #[test]
    fn fingerprint_ignores_timing_but_not_results() {
        let a = BenchArtifact::new(Scale::Test, 5000, vec![outcome(1, false)]);
        let mut b = BenchArtifact::new(Scale::Test, 5000, vec![outcome(1, true)]);
        b.created_unix = a.created_unix + 999;
        b.outcomes[0].wall_nanos = 1;
        b.outcomes[0].result.sim_nanos = 77;
        assert_eq!(a.fingerprint(), b.fingerprint());

        let mut c = BenchArtifact::new(Scale::Test, 5000, vec![outcome(1, false)]);
        c.outcomes[0].result.counters.cycles += 1;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn host_mips_aggregates_simulated_jobs_only() {
        let a = BenchArtifact::new(Scale::Test, 100, vec![outcome(5, false), outcome(9, true)]);
        // Only the non-cached job counts: 10 instructions in 1005 ns.
        let want = 10.0 * 1e3 / 1005.0;
        assert!((a.host_mips - want).abs() < 1e-9, "{}", a.host_mips);
        let back = write_read(&a, "mips");
        assert!((back.host_mips - a.host_mips).abs() < 1e-9);
        // Throughput is volatile: two runs differing only in wall time
        // (and therefore in host_mips) fingerprint identically.
        let mut slower =
            BenchArtifact::new(Scale::Test, 100, vec![outcome(5, false), outcome(9, true)]);
        slower.outcomes[0].wall_nanos *= 17;
        slower.host_mips = aggregate_mips(&slower.outcomes);
        assert_ne!(slower.host_mips, a.host_mips);
        assert_eq!(slower.fingerprint(), a.fingerprint());
    }

    #[test]
    fn all_cached_run_has_zero_host_mips() {
        let a = BenchArtifact::new(Scale::Test, 100, vec![outcome(3, true)]);
        assert_eq!(a.host_mips, 0.0);
    }

    #[test]
    fn missing_host_mips_reads_as_zero() {
        // Artifacts written before the field existed must still load.
        let a = BenchArtifact::new(Scale::Test, 1, vec![]);
        let text: String = a
            .document(true)
            .lines()
            .filter(|l| !l.contains("host_mips"))
            .collect::<Vec<_>>()
            .join("\n");
        let path = std::env::temp_dir()
            .join(format!("tarch-artifact-test-{}-nomips.json", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let back = BenchArtifact::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back.host_mips, 0.0);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let a = BenchArtifact::new(Scale::Test, 1, vec![]);
        let path = std::env::temp_dir()
            .join(format!("tarch-artifact-test-{}-schema.json", std::process::id()));
        let text = a.document(true).replace(ARTIFACT_SCHEMA, "tarch-bench/v999");
        std::fs::write(&path, text).unwrap();
        let err = BenchArtifact::read(&path).unwrap_err();
        assert!(err.contains("v999"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_artifact_reports_clean_error() {
        let a = BenchArtifact::new(Scale::Test, 1, vec![outcome(1, false)]);
        let path = std::env::temp_dir()
            .join(format!("tarch-artifact-test-{}-trunc.json", std::process::id()));
        let full = a.document(true);
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(BenchArtifact::read(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn default_filename_is_timestamped() {
        let a = BenchArtifact::new(Scale::Default, 1, vec![]);
        let name = a.default_filename();
        assert!(name.starts_with("BENCH_") && name.ends_with(".json"), "{name}");
    }
}
