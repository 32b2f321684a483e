//! # tarch-runner — parallel experiment execution
//!
//! The paper's evaluation is a (workload × engine × ISA-level) matrix of
//! *independent* cycle-accurate simulations. This crate turns that shape
//! into infrastructure the bench harness and the `repro` binary run on:
//!
//! * [`job`] — the job model: a [`JobSpec`] names one simulation cell and
//!   carries a stable [`JobKey`] content key derived from the program
//!   source and the simulated core configuration;
//! * [`pool`] — a `std::thread::scope` worker pool ([`run_jobs`]) that
//!   executes cells in parallel with a configurable worker count, the
//!   calling thread among them, while returning results in deterministic
//!   (submission) order;
//! * [`cache`] — a persistent on-disk result cache keyed by [`JobKey`],
//!   so re-running an experiment skips already-simulated cells, with a
//!   profiled job's [`Dispatches`] in a second document beside its result;
//! * [`artifact`] — versioned `BENCH_<timestamp>.json` run artifacts the
//!   figure renderers can reload instead of re-simulating;
//! * [`mod@compare`] — host-throughput comparison of two artifacts, backing
//!   `repro bench --compare` and its `--min-ratio` regression gate;
//! * [`percentile`] — nearest-rank p50/p95/p99 summaries shared by the
//!   comparison report and the fleet artifact;
//! * [`fleet`] — versioned `BENCH_fleet_<timestamp>.json` artifacts for
//!   multi-tenant (`repro fleet`) runs: per-shard throughput plus
//!   tenant-latency percentiles in simulated cycles;
//! * [`pgo`] — versioned `PGO_<workload>.json` profile artifacts: the
//!   raw control-edge counts of a profile run, distilled on load into
//!   the engine's `PgoProfile`;
//! * [`json`] — the minimal hand-rolled JSON reader/writer backing the
//!   cache and artifact formats (no external dependencies): one streaming
//!   writer, and a reader whose tree borrows from the input text.
//!
//! The crate knows how to *schedule, key, persist and report* jobs but
//! not how to *execute* them: execution is a caller-supplied closure
//! (`Fn(&JobSpec, u64) -> Result<CellResult, ExecError>`), which keeps
//! this crate free of engine dependencies and lets tests drive the pool
//! with synthetic workloads.

pub mod artifact;
pub mod cache;
pub mod compare;
pub mod fleet;
pub mod job;
pub mod json;
pub mod percentile;
pub mod pgo;
pub mod pool;
pub mod result;

pub use artifact::{BenchArtifact, ARTIFACT_SCHEMA};
pub use cache::ResultCache;
pub use compare::{compare, CellDelta, Comparison};
pub use fleet::{FleetArtifact, ShardSummary, FLEET_SCHEMA};
pub use job::{EngineKind, JobKey, JobSpec, RenderedConfig, Scale};
pub use json::Json;
pub use percentile::Percentiles;
pub use pgo::{PgoArtifact, PgoCell, PgoSet, PGO_SCHEMA};
pub use pool::{
    run_jobs, ExecError, JobOutcome, RunConfig, RunReport, RunStats, RunnerError,
    DEFAULT_STEP_BUDGET,
};
pub use result::{CellResult, Dispatches};
