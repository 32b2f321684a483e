//! Experiment harness: runs the workload × engine × ISA-level matrix and
//! derives every quantity the paper's evaluation figures report.
//!
//! Execution is delegated to [`tarch_runner`]: the harness builds one
//! [`JobSpec`] per cell, hands the list to the parallel worker pool
//! (with optional persistent result caching under `target/tarch-cache/`)
//! and reassembles the deterministic, submission-ordered outcomes into a
//! [`Matrix`]. A matrix can equally be reloaded from a `BENCH_*.json`
//! artifact instead of simulated — see [`Matrix::from_artifact`].
//! Figure 2(a) reads the profiled runs' per-opcode dispatch counts, which
//! the run keeps beside the matrix and the cache beside each result (see
//! [`dispatch_counts`]).

use crate::workloads::{Scale, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;
use tarch_core::{CoreConfig, IsaLevel};
use tarch_fleet::{build_guest, level_invariant};
use tarch_runner::{
    run_jobs, BenchArtifact, ExecError, JobKey, JobOutcome, JobSpec, PgoSet, RenderedConfig,
    ResultCache, RunConfig, RunStats,
};

pub use tarch_runner::{CellResult, Dispatches, EngineKind};

/// Default step budget per run (generous; `Scale::Full` workloads are
/// large). This is the runner's per-job timeout unit: a cell that
/// exhausts it fails with a diagnostic naming the cell and the steps
/// consumed, instead of wedging the whole run.
pub const MAX_STEPS: u64 = tarch_runner::DEFAULT_STEP_BUDGET;

/// Builds the job spec for one cell (the unit the runner schedules,
/// caches and serializes) on the paper's core configuration.
pub fn job_spec(
    w: &Workload,
    engine: EngineKind,
    level: IsaLevel,
    scale: Scale,
    profiled: bool,
) -> JobSpec {
    JobSpec::new(w.name, engine, level, scale, profiled, w.source(scale), &CoreConfig::paper())
}

/// [`job_spec`] with an explicit core configuration, rendered once for a
/// whole job list.
pub fn job_spec_with(
    w: &Workload,
    engine: EngineKind,
    level: IsaLevel,
    scale: Scale,
    profiled: bool,
    core: &RenderedConfig<'_>,
) -> JobSpec {
    JobSpec::from_rendered(w.name, engine, level, scale, profiled, w.source(scale), core)
}

/// Executes one job: builds the right VM from the spec *inside the
/// calling thread* (the runner invokes this from its workers) and runs
/// it under `step_budget`.
///
/// # Errors
///
/// [`ExecError::StepBudget`] when the budget is exhausted, otherwise
/// [`ExecError::Failed`] with the engine's message.
pub fn exec_job(spec: &JobSpec, step_budget: u64) -> Result<CellResult, ExecError> {
    exec_counted(spec, step_budget).map(|(cell, _)| cell)
}

/// [`exec_job`], also returning a profiled run's dispatch counts.
fn exec_counted(
    spec: &JobSpec,
    step_budget: u64,
) -> Result<(CellResult, Option<Dispatches>), ExecError> {
    let mut guest = build_guest(spec.engine, &spec.source, spec.level, spec.core.clone())
        .map_err(ExecError::Failed)?;
    let sim_started = Instant::now();
    let r = if spec.profiled { guest.run_profiled(step_budget) } else { guest.run(step_budget) };
    let sim_nanos = sim_started.elapsed().as_nanos() as u64;
    let r = r?;
    let cell = CellResult {
        counters: r.counters,
        branch: r.branch,
        output: r.output,
        bytecodes: r.profile.as_ref().map(|p| p.total_bytecodes()),
        sim_nanos,
        tier_deopts: guest.cpu().block_stats().tier_deopts,
        // `None` unless the spec's core config enabled tracing.
        trace: guest.cpu_mut().finish_trace(),
    };
    let dispatches =
        r.profile.map(|p| p.dynamic.into_iter().map(|(op, n)| (op.to_string(), n)).collect());
    Ok((cell, dispatches))
}

/// The executor [`Matrix::run_with`] and [`dispatch_counts`] hand the
/// pool: [`exec_job`], keeping each profiled job's dispatch counts in
/// `counts` and storing them in `cache`.
fn counting<'a>(
    cache: Option<&'a ResultCache>,
    counts: &'a Mutex<BTreeMap<JobKey, Dispatches>>,
) -> impl Fn(&JobSpec, u64) -> Result<CellResult, ExecError> + Send + Sync + 'a {
    move |spec, step_budget| {
        let (cell, dispatches) = exec_counted(spec, step_budget)?;
        if let Some(dispatches) = dispatches {
            if let Some(cache) = cache {
                // Best-effort, like the pool's own stores.
                let _ = cache.store_dispatches(&spec.key, &dispatches);
            }
            counts.lock().expect("no worker panics holding the lock").insert(spec.key, dispatches);
        }
        Ok(cell)
    }
}

/// How [`Matrix::run_with`] executes the matrix.
#[derive(Debug, Clone)]
pub struct MatrixOptions {
    /// Worker threads (`0` = one per core).
    pub workers: usize,
    /// Result cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Per-job step budget.
    pub step_budget: u64,
    /// Also run the Typed-level profiled cells Figure 9 needs.
    pub profiled: bool,
    /// Live progress line on stderr.
    pub progress: bool,
    /// Simulated core configuration for every cell.
    pub core: CoreConfig,
    /// Per-workload PGO profiles (`repro bench --pgo-dir`). Each
    /// non-profiled cell whose (workload, engine, level) was profiled at
    /// the run's scale gets the distilled profile threaded into its core
    /// config; cells without one run unguided (see [`PgoSet::profile`]).
    /// `None` disables PGO entirely.
    pub pgo: Option<std::sync::Arc<PgoSet>>,
}

impl Default for MatrixOptions {
    fn default() -> MatrixOptions {
        MatrixOptions {
            workers: 0,
            cache_dir: None,
            step_budget: MAX_STEPS,
            profiled: false,
            progress: false,
            core: CoreConfig::paper(),
            pgo: None,
        }
    }
}

/// The default persistent cache location, shared by `repro` invocations.
pub fn default_cache_dir() -> PathBuf {
    PathBuf::from("target/tarch-cache")
}

/// A finished matrix run: the queryable matrix plus the raw outcomes
/// (for artifact emission) and pool statistics.
#[derive(Debug)]
pub struct MatrixRun {
    /// The assembled, cross-checked matrix.
    pub matrix: Matrix,
    /// Raw outcomes in submission order (what `BENCH_*.json` records).
    pub outcomes: Vec<JobOutcome>,
    /// Pool statistics (cache hits/misses, wall time, throughput).
    pub stats: RunStats,
    /// Scale the matrix ran at.
    pub scale: Scale,
    /// Step budget in force.
    pub step_budget: u64,
    /// Per-opcode dispatch counts of the profiled jobs this run
    /// simulated (a cache hit brings none; see [`dispatch_counts`]).
    pub dispatches: BTreeMap<JobKey, Dispatches>,
}

impl MatrixRun {
    /// Wraps the outcomes in a timestamped artifact.
    pub fn artifact(&self) -> BenchArtifact {
        BenchArtifact::new(self.scale, self.step_budget, self.outcomes.clone())
    }
}

/// The full experiment matrix: results keyed by `(workload, engine,
/// level)`, plus the Typed-level profiled cells when they were run.
#[derive(Debug, Default)]
pub struct Matrix {
    results: BTreeMap<(String, EngineKind, IsaLevel), CellResult>,
    profiled: BTreeMap<(String, EngineKind), CellResult>,
}

impl Matrix {
    /// Runs the whole matrix for the given workloads with default
    /// options (all cores, no cache, no profiled cells).
    ///
    /// Cross-checks that every (workload, engine) prints identical output
    /// across ISA levels.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string on the first failing run or output
    /// mismatch.
    pub fn run(workloads: &[Workload], scale: Scale, verbose: bool) -> Result<Matrix, String> {
        let opts = MatrixOptions { progress: verbose, ..MatrixOptions::default() };
        Ok(Matrix::run_with(workloads, scale, &opts)?.matrix)
    }

    /// Runs the matrix on the parallel pool with explicit options.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string on the first failing cell (by matrix
    /// order, deterministically), an output mismatch across ISA levels,
    /// or a cache-directory failure.
    pub fn run_with(
        workloads: &[Workload],
        scale: Scale,
        opts: &MatrixOptions,
    ) -> Result<MatrixRun, String> {
        // Every cell shares the options' config except a PGO-guided one,
        // so that rendering is the only one most lists need.
        let core = RenderedConfig::new(&opts.core);
        // A plain cell whose run is provably its profiled twin's is not
        // simulated, and the twin's run stands for it. That holds for the
        // Typed cell, whose spec differs from the twin's only in
        // `profiled` (attribution changes no simulated result), and for
        // every level of an engine whose image is the same at every level
        // (`tarch_fleet::level_invariant`). A PGO profile changes the
        // cell's config, and a tracer samples at block entries, which
        // attribution moves, so those cells run.
        let derive = opts.profiled && opts.core.trace.is_none();
        let mut jobs = Vec::new();
        // Plain cells left to their profiled twins: (position among the
        // outcomes, spec, index of the (workload, engine) pair).
        let mut twins = Vec::new();
        let cells = workloads.iter().flat_map(|w| {
            EngineKind::ALL.into_iter().flat_map(move |e| IsaLevel::ALL.map(move |l| (w, e, l)))
        });
        for (position, (w, engine, level)) in cells.enumerate() {
            // Thread the cell's PGO profile (if one was loaded) into the
            // core config; the profile participates in the job key, so
            // guided and unguided runs never collide in the cache.
            match opts.pgo.as_ref().and_then(|s| s.profile(w.name, scale, engine, level)) {
                Some(p) => {
                    let guided =
                        CoreConfig { pgo: Some(std::sync::Arc::new(p)), ..opts.core.clone() };
                    let guided = RenderedConfig::new(&guided);
                    jobs.push(job_spec_with(w, engine, level, scale, false, &guided));
                }
                None => {
                    let spec = job_spec_with(w, engine, level, scale, false, &core);
                    if derive && (level == IsaLevel::Typed || level_invariant(engine)) {
                        twins.push((position, spec, position / IsaLevel::ALL.len()));
                    } else {
                        jobs.push(spec);
                    }
                }
            }
        }
        // Figure 9's profiled runs: Typed level only, every engine, in
        // the plain cells' (workload, engine) order.
        let first_profiled = jobs.len();
        if opts.profiled {
            for w in workloads {
                for engine in EngineKind::ALL {
                    jobs.push(job_spec_with(w, engine, IsaLevel::Typed, scale, true, &core));
                }
            }
        }
        let cfg = RunConfig {
            workers: opts.workers,
            cache_dir: opts.cache_dir.clone(),
            step_budget: opts.step_budget,
            progress: opts.progress,
        };
        let cache = opts.cache_dir.as_deref().and_then(|dir| ResultCache::open(dir).ok());
        let dispatches = Mutex::new(BTreeMap::new());
        let report = run_jobs(jobs, &cfg, counting(cache.as_ref(), &dispatches))
            .map_err(|e| e.to_string())?;
        let outcomes = derive_twins(report.outcomes, twins, first_profiled, cache.as_ref());
        let matrix = Matrix::from_outcomes(&outcomes)?;
        Ok(MatrixRun {
            matrix,
            outcomes,
            stats: report.stats,
            scale,
            step_budget: opts.step_budget,
            dispatches: dispatches.into_inner().expect("no worker panics holding the lock"),
        })
    }

    /// Assembles a matrix from job outcomes (a live run or a reloaded
    /// artifact), cross-checking output equality across ISA levels.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string if any (workload, engine) prints
    /// different output at different ISA levels.
    pub fn from_outcomes(outcomes: &[JobOutcome]) -> Result<Matrix, String> {
        let mut m = Matrix::default();
        for o in outcomes {
            if o.spec.profiled {
                m.profiled.insert((o.spec.workload.clone(), o.spec.engine), o.result.clone());
            } else {
                m.results.insert(
                    (o.spec.workload.clone(), o.spec.engine, o.spec.level),
                    o.result.clone(),
                );
            }
        }
        // Output must agree across ISA levels (same program, same input).
        for w in m.workloads() {
            for engine in EngineKind::ALL {
                let mut reference: Option<(&str, IsaLevel)> = None;
                for level in IsaLevel::ALL {
                    let Some(cell) = m.try_cell(&w, engine, level) else { continue };
                    match reference {
                        None => reference = Some((&cell.output, level)),
                        Some((expected, _)) => {
                            if expected != cell.output {
                                return Err(format!(
                                    "{w} / {engine:?}: output diverges at {level}"
                                ));
                            }
                        }
                    }
                }
            }
        }
        Ok(m)
    }

    /// Rebuilds a matrix from a `BENCH_*.json` artifact, re-running the
    /// cross-level output check.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string on an output mismatch (e.g. a
    /// hand-edited artifact).
    pub fn from_artifact(artifact: &BenchArtifact) -> Result<Matrix, String> {
        Matrix::from_outcomes(&artifact.outcomes)
    }

    /// Looks up a cell, panicking when absent (callers that construct
    /// the matrix themselves); figure renderers use [`Matrix::try_cell`]
    /// so a partial matrix reports a clean error instead of aborting.
    pub fn cell(&self, workload: &str, engine: EngineKind, level: IsaLevel) -> &CellResult {
        self.try_cell(workload, engine, level)
            .unwrap_or_else(|| panic!("missing cell {workload}/{engine:?}/{level}"))
    }

    /// Fallible cell lookup.
    pub fn try_cell(
        &self,
        workload: &str,
        engine: EngineKind,
        level: IsaLevel,
    ) -> Option<&CellResult> {
        self.results.get(&(workload.to_string(), engine, level))
    }

    /// Typed-level profiled cell (Figure 9), when the run included one.
    pub fn profiled_cell(&self, workload: &str, engine: EngineKind) -> Option<&CellResult> {
        self.profiled.get(&(workload.to_string(), engine))
    }

    /// Whether the matrix carries any profiled cells.
    pub fn has_profiled(&self) -> bool {
        !self.profiled.is_empty()
    }

    /// Workload names present in the matrix, sorted.
    pub fn workloads(&self) -> Vec<String> {
        let mut names: Vec<String> = self.results.keys().map(|(w, _, _)| w.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Speedup of `level` over baseline for one cell (cycles ratio).
    pub fn speedup(&self, workload: &str, engine: EngineKind, level: IsaLevel) -> f64 {
        self.try_speedup(workload, engine, level)
            .unwrap_or_else(|| panic!("missing cell {workload}/{engine:?}"))
    }

    /// Fallible [`Matrix::speedup`].
    pub fn try_speedup(&self, workload: &str, engine: EngineKind, level: IsaLevel) -> Option<f64> {
        let base = self.try_cell(workload, engine, IsaLevel::Baseline)?.counters.cycles;
        let this = self.try_cell(workload, engine, level)?.counters.cycles;
        Some(base as f64 / this as f64)
    }

    /// Dynamic-instruction reduction of `level` vs baseline (Figure 6).
    pub fn instr_reduction(&self, workload: &str, engine: EngineKind, level: IsaLevel) -> f64 {
        self.try_instr_reduction(workload, engine, level)
            .unwrap_or_else(|| panic!("missing cell {workload}/{engine:?}"))
    }

    /// Fallible [`Matrix::instr_reduction`].
    pub fn try_instr_reduction(
        &self,
        workload: &str,
        engine: EngineKind,
        level: IsaLevel,
    ) -> Option<f64> {
        let base = self.try_cell(workload, engine, IsaLevel::Baseline)?.counters.instructions;
        let this = self.try_cell(workload, engine, level)?.counters.instructions;
        Some(1.0 - this as f64 / base as f64)
    }
}

/// Puts each plain cell left to its profiled twin into the outcome list
/// at its position, as the twin's result without the bytecode count. A
/// derived outcome carries the twin's `cached` flag and no wall time of
/// its own (the pool did no work for it), and when the twin was
/// simulated its result is stored under the plain cell's key, so a later
/// plain run hits it. `twins` holds `(position, plain spec, pair)` in
/// increasing position order; the twin of pair `k` is outcome
/// `first_profiled + k`.
fn derive_twins(
    mut outcomes: Vec<JobOutcome>,
    twins: Vec<(usize, JobSpec, usize)>,
    first_profiled: usize,
    cache: Option<&ResultCache>,
) -> Vec<JobOutcome> {
    let derived: Vec<(usize, JobOutcome)> = twins
        .into_iter()
        .map(|(position, spec, pair)| {
            let twin = &outcomes[first_profiled + pair];
            let result = CellResult { bytecodes: None, ..twin.result.clone() };
            if let (Some(cache), false) = (cache, twin.cached) {
                // Best-effort, like the pool's own stores.
                let _ = cache.store(&spec.key, &result);
            }
            (position, JobOutcome { spec, result, cached: twin.cached, wall_nanos: 0 })
        })
        .collect();
    outcomes.reserve(derived.len());
    for (position, outcome) in derived {
        outcomes.insert(position, outcome);
    }
    outcomes
}

/// Figure 2(a)'s jobs: the profiled Lua Typed cell of each workload,
/// under the keys [`Matrix::run_with`] gives them.
pub fn fig2a_jobs(workloads: &[Workload], scale: Scale, core: &CoreConfig) -> Vec<JobSpec> {
    let core = RenderedConfig::new(core);
    let lua_typed = |w| job_spec_with(w, EngineKind::Lua, IsaLevel::Typed, scale, true, &core);
    workloads.iter().map(lua_typed).collect()
}

/// The dispatch counts of the profiled `jobs`, in their order. Each comes
/// from `known` (a [`MatrixRun`]'s), else from the cache in `opts`, else
/// from one simulation on the pool, whose counts and result are then
/// stored. The statistics count the jobs `known` did not answer: those
/// read from the cache as hits, the others as simulated.
///
/// # Errors
///
/// Returns a descriptive string on the first failing job, or on a job
/// that is not profiled.
pub fn dispatch_counts(
    jobs: &[JobSpec],
    known: &BTreeMap<JobKey, Dispatches>,
    opts: &MatrixOptions,
) -> Result<(Vec<Dispatches>, RunStats), String> {
    let started = Instant::now();
    let cache = opts.cache_dir.as_deref().and_then(|dir| ResultCache::open(dir).ok());
    let mut found = BTreeMap::new();
    let mut missing = Vec::new();
    for spec in jobs.iter().filter(|spec| !known.contains_key(&spec.key)) {
        match cache.as_ref().and_then(|c| c.load_dispatches(&spec.key)) {
            Some(counts) => {
                found.insert(spec.key, counts);
            }
            None => missing.push(spec.clone()),
        }
    }
    let hits = found.len();
    // The cache is off for the pool: a job whose result is cached but
    // whose counts are not must still run.
    let cfg = RunConfig {
        workers: opts.workers,
        cache_dir: None,
        step_budget: opts.step_budget,
        progress: opts.progress,
    };
    let simulated = Mutex::new(BTreeMap::new());
    let report =
        run_jobs(missing, &cfg, counting(cache.as_ref(), &simulated)).map_err(|e| e.to_string())?;
    if let Some(cache) = &cache {
        for o in &report.outcomes {
            let _ = cache.store(&o.spec.key, &o.result);
        }
    }
    found.append(&mut simulated.into_inner().expect("no worker panics holding the lock"));
    let counts = jobs
        .iter()
        .map(|spec| {
            let counts = known.get(&spec.key).or_else(|| found.get(&spec.key));
            counts.cloned().ok_or_else(|| format!("{}: not a profiled job", spec.label()))
        })
        .collect::<Result<_, _>>()?;
    let mut stats = report.stats;
    stats.jobs += hits;
    stats.cache_hits += hits;
    stats.wall_nanos = started.elapsed().as_nanos() as u64;
    Ok((counts, stats))
}

/// Geometric mean of an iterator of positive values.
pub fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn geomean_math() {
        assert!((geomean([2.0, 8.0].into_iter()) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn single_cell_runs_and_counts() {
        let w = workloads::by_name("fibo").unwrap();
        let run_cell = |engine, profiled| {
            exec_job(&job_spec(&w, engine, IsaLevel::Typed, Scale::Test, profiled), MAX_STEPS)
        };
        for engine in EngineKind::ALL {
            let cell = run_cell(engine, false).unwrap();
            assert_eq!(cell.output, "144\n", "{engine:?}");
            // The static engine leaves the typed hardware idle.
            assert_eq!(cell.counters.type_hits > 0, engine != EngineKind::Wasm, "{engine:?}");
            let profiled = run_cell(engine, true).unwrap();
            assert!(profiled.bytecodes.unwrap() > 100, "{engine:?}");
            // Attribution observes the run; it must not change it.
            assert_eq!(profiled.counters, cell.counters, "{engine:?}");
            assert_eq!(profiled.branch, cell.branch, "{engine:?}");
            assert_eq!(profiled.output, cell.output, "{engine:?}");
        }
    }

    #[test]
    fn mini_matrix_is_consistent() {
        let ws: Vec<_> =
            ["fibo", "n-sieve"].iter().map(|n| workloads::by_name(n).unwrap()).collect();
        let m = Matrix::run(&ws, Scale::Test, false).unwrap();
        assert_eq!(m.workloads().len(), 2);
        for engine in EngineKind::ALL {
            let s = m.speedup("fibo", engine, IsaLevel::Typed);
            assert!(s > 0.8 && s < 2.0, "{engine:?} fibo speedup {s}");
        }
        // Typed must not execute more instructions than baseline on sieve
        // (table-heavy → clear win).
        let red = m.instr_reduction("n-sieve", EngineKind::Lua, IsaLevel::Typed);
        assert!(red > 0.0, "typed reduction {red}");
    }

    #[test]
    fn try_cell_reports_missing_cells_cleanly() {
        let m = Matrix::default();
        assert!(m.try_cell("fibo", EngineKind::Lua, IsaLevel::Typed).is_none());
        assert!(m.try_speedup("fibo", EngineKind::Lua, IsaLevel::Typed).is_none());
        assert!(m.try_instr_reduction("fibo", EngineKind::Lua, IsaLevel::Typed).is_none());
        assert!(m.profiled_cell("fibo", EngineKind::Lua).is_none());
    }

    #[test]
    fn step_budget_exhaustion_names_the_cell() {
        let w = workloads::by_name("fibo").unwrap();
        for engine in EngineKind::ALL {
            let spec = job_spec(&w, engine, IsaLevel::Typed, Scale::Test, false);
            match exec_job(&spec, 10) {
                Err(ExecError::StepBudget { steps }) => assert_eq!(steps, 10),
                other => panic!("{engine:?}: expected StepBudget, got {other:?}"),
            }
        }
    }

    #[test]
    fn vms_can_be_built_on_worker_threads() {
        // The pool builds VMs inside worker threads; every engine's VM
        // must be Send so the closures that own them are too.
        fn assert_send<T: Send>() {}
        assert_send::<luart::LuaVm>();
        assert_send::<jsrt::JsVm>();
        assert_send::<wasmrt::WasmVm>();
        assert_send::<tarch_fleet::Guest>();
    }
}
