//! The worker pool: parallel job execution with deterministic result
//! ordering, cache integration, and run statistics.
//!
//! Built on `std::thread::scope`: the calling thread is one of the
//! workers, and the others are spawned beside it (none when one worker
//! is asked for). Workers claim job indices from an atomic counter
//! (dynamic load balancing — simulation cells vary by orders of magnitude
//! in length), keep their `(index, outcome)` pairs, and return them when
//! joined. The pairs are then put back in submission order, so a parallel
//! run is observationally identical to the serial one. The live progress
//! line comes from shared atomic counters, printed by whichever worker
//! finishes a job.

use crate::cache::ResultCache;
use crate::job::JobSpec;
use crate::result::CellResult;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Default per-job step budget (generous; `Scale::Full` workloads are
/// large). A cell that exhausts it is reported as wedged — see
/// [`RunnerError::StepBudget`] — instead of silently stalling the run.
pub const DEFAULT_STEP_BUDGET: u64 = 20_000_000_000;

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Worker thread count; `0` means one per available core.
    pub workers: usize,
    /// Result cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Per-job simulated-step budget (the run's timeout unit: simulated
    /// instructions, not wall-clock, so budgets are deterministic).
    pub step_budget: u64,
    /// Emit a live progress line to stderr.
    pub progress: bool,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            workers: 0,
            cache_dir: None,
            step_budget: DEFAULT_STEP_BUDGET,
            progress: false,
        }
    }
}

impl RunConfig {
    /// Resolves `workers == 0` to the machine's available parallelism.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

/// How one job's execution failed, as reported by the exec closure.
#[derive(Debug, Clone)]
pub enum ExecError {
    /// The simulation consumed its whole step budget without halting.
    StepBudget {
        /// Simulated instructions consumed (== the budget).
        steps: u64,
    },
    /// Any other engine failure (parse error, runtime error, …).
    Failed(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::StepBudget { steps } => {
                write!(f, "program did not halt within {steps} simulated instructions")
            }
            ExecError::Failed(detail) => f.write_str(detail),
        }
    }
}

impl std::error::Error for ExecError {}

/// A pool-level failure, tagged with the cell it came from.
#[derive(Debug, Clone)]
pub enum RunnerError {
    /// A cell's simulation failed.
    Cell {
        /// `workload/engine/level` label.
        label: String,
        /// Engine error text.
        detail: String,
    },
    /// A cell consumed its entire step budget — the parallel-run
    /// equivalent of a hung job. Names the cell and the steps consumed
    /// so a full-scale run can't wedge silently.
    StepBudget {
        /// `workload/engine/level` label.
        label: String,
        /// Simulated instructions consumed before giving up.
        steps: u64,
    },
    /// The cache directory could not be opened.
    Cache(String),
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::Cell { label, detail } => write!(f, "cell {label}: {detail}"),
            RunnerError::StepBudget { label, steps } => write!(
                f,
                "cell {label}: step budget exhausted after {steps} simulated instructions \
                 (cell did not halt; raise --steps or reduce --full scale)"
            ),
            RunnerError::Cache(e) => write!(f, "result cache: {e}"),
        }
    }
}

impl std::error::Error for RunnerError {}

/// One finished job: its spec, result, and where the result came from.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job that ran.
    pub spec: JobSpec,
    /// Its simulated result.
    pub result: CellResult,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// Wall-clock nanoseconds spent on this job (simulation, or cache
    /// load when `cached`).
    pub wall_nanos: u64,
}

impl JobOutcome {
    /// Simulated steps (retired instructions) per wall-clock second;
    /// `0.0` for cache hits (nothing was simulated). Prefers the cell's
    /// own simulation-loop time ([`CellResult::sim_nanos`]) so the
    /// figure measures engine throughput, not VM construction and guest
    /// compilation; falls back to whole-job wall time for executors that
    /// don't record it.
    pub fn steps_per_sec(&self) -> f64 {
        if self.cached {
            return 0.0;
        }
        let nanos = if self.result.sim_nanos > 0 { self.result.sim_nanos } else { self.wall_nanos };
        if nanos == 0 {
            0.0
        } else {
            self.result.counters.instructions as f64 * 1e9 / nanos as f64
        }
    }
}

/// Aggregate statistics for one pool run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Total jobs executed (hits + misses).
    pub jobs: usize,
    /// Jobs answered from the cache.
    pub cache_hits: usize,
    /// Jobs actually simulated.
    pub cache_misses: usize,
    /// Whole-run wall-clock nanoseconds.
    pub wall_nanos: u64,
    /// Simulated instructions across freshly-run jobs.
    pub simulated_instructions: u64,
    /// Worker threads used.
    pub workers: usize,
}

impl RunStats {
    /// Aggregate simulated steps/second across the whole run.
    pub fn steps_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.simulated_instructions as f64 * 1e9 / self.wall_nanos as f64
        }
    }

    /// Adds a later run's counts, so that one summary covers both (e.g.
    /// Figure 2(a)'s jobs after the matrix's).
    pub fn absorb(&mut self, later: &RunStats) {
        self.jobs += later.jobs;
        self.cache_hits += later.cache_hits;
        self.cache_misses += later.cache_misses;
        self.wall_nanos += later.wall_nanos;
        self.simulated_instructions += later.simulated_instructions;
        self.workers = self.workers.max(later.workers);
    }

    /// One-line human summary, e.g. for `repro --verbose`.
    pub fn summary(&self) -> String {
        format!(
            "{} jobs on {} workers in {:.2}s: {} cache hits, {} simulated \
             ({:.1}M simulated steps/s)",
            self.jobs,
            self.workers,
            self.wall_nanos as f64 / 1e9,
            self.cache_hits,
            self.cache_misses,
            self.steps_per_sec() / 1e6,
        )
    }
}

/// Everything a pool run produced, results in submission order.
#[derive(Debug)]
pub struct RunReport {
    /// Finished jobs, index-aligned with the submitted job list.
    pub outcomes: Vec<JobOutcome>,
    /// Aggregate statistics.
    pub stats: RunStats,
}

/// Runs `jobs` on a worker pool, returning outcomes in submission order.
///
/// `exec` executes one job under a step budget; it runs concurrently on
/// pool threads, so it must be `Send + Sync` (in practice: build the VM
/// *inside* the closure — the engines' VMs are `Send`, but nothing needs
/// to cross threads besides the spec and the result).
///
/// Cache policy: a hit skips `exec` entirely; a fresh result is stored
/// back best-effort. Results are deterministic regardless of worker
/// count because jobs are independent and reassembled by index.
///
/// # Errors
///
/// If any job fails, the error for the *lowest-indexed* failing job is
/// returned (deterministic across worker counts). [`RunnerError::Cache`]
/// is returned if the cache directory cannot be opened.
pub fn run_jobs<F>(jobs: Vec<JobSpec>, cfg: &RunConfig, exec: F) -> Result<RunReport, RunnerError>
where
    F: Fn(&JobSpec, u64) -> Result<CellResult, ExecError> + Send + Sync,
{
    let started = Instant::now();
    let workers = cfg.effective_workers().min(jobs.len()).max(1);
    let cache = match &cfg.cache_dir {
        Some(dir) => Some(ResultCache::open(dir).map_err(RunnerError::Cache)?),
        None => None,
    };

    let total = jobs.len();
    let next = AtomicUsize::new(0);
    let progress = Progress::default();
    // One worker: claims indices until none is left, and returns what it
    // ran in claim order.
    let work = || {
        let mut ran = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(spec) = jobs.get(i) else { return ran };
            let outcome = run_one(spec, cache.as_ref(), cfg.step_budget, &exec);
            if cfg.progress {
                progress.note(spec, &outcome, total);
            }
            ran.push((i, outcome));
        }
    };
    let mut ran = std::thread::scope(|scope| {
        let others: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut ran = work();
        for other in others {
            ran.extend(other.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        ran
    });
    if cfg.progress && total > 0 {
        // Workers print out of order; end on the final counts.
        let hits = progress.hits.load(Ordering::Relaxed);
        let misses = progress.misses.load(Ordering::Relaxed);
        eprintln!("\r[{total}/{total}] {hits} cached, {misses} simulated  {:<44}", "");
    }
    ran.sort_unstable_by_key(|&(i, _)| i);

    let mut outcomes = Vec::with_capacity(total);
    let mut stats = RunStats {
        jobs: total,
        workers,
        ..RunStats::default()
    };
    for (spec, (_, outcome)) in jobs.into_iter().zip(ran) {
        let Ran { result, cached, wall_nanos } = outcome?;
        if cached {
            stats.cache_hits += 1;
        } else {
            stats.cache_misses += 1;
            stats.simulated_instructions += result.counters.instructions;
        }
        outcomes.push(JobOutcome { spec, result, cached, wall_nanos });
    }
    stats.wall_nanos = started.elapsed().as_nanos() as u64;
    Ok(RunReport { outcomes, stats })
}

/// One job's result before it is paired with its spec again.
struct Ran {
    result: CellResult,
    cached: bool,
    wall_nanos: u64,
}

/// Runs one job: a cache hit skips `exec`; a fresh result is stored back
/// best-effort.
fn run_one<F>(
    spec: &JobSpec,
    cache: Option<&ResultCache>,
    step_budget: u64,
    exec: &F,
) -> Result<Ran, RunnerError>
where
    F: Fn(&JobSpec, u64) -> Result<CellResult, ExecError>,
{
    let started = Instant::now();
    let ran = |result, cached| Ran { result, cached, wall_nanos: started.elapsed().as_nanos() as u64 };
    if let Some(result) = cache.and_then(|c| c.load(&spec.key)) {
        return Ok(ran(result, true));
    }
    match exec(spec, step_budget) {
        Ok(result) => {
            if let Some(c) = cache {
                // Best-effort: a failed store only costs a future
                // re-simulation.
                let _ = c.store(&spec.key, &result);
            }
            Ok(ran(result, false))
        }
        Err(ExecError::StepBudget { steps }) => {
            Err(RunnerError::StepBudget { label: spec.label(), steps })
        }
        Err(ExecError::Failed(detail)) => Err(RunnerError::Cell { label: spec.label(), detail }),
    }
}

/// Counts behind the live progress line, shared by the workers.
#[derive(Default)]
struct Progress {
    done: AtomicUsize,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl Progress {
    /// Counts one finished job and prints the line.
    fn note(&self, spec: &JobSpec, outcome: &Result<Ran, RunnerError>, total: usize) {
        let bump = |n: &AtomicUsize| n.fetch_add(1, Ordering::Relaxed) + 1;
        let (hits, misses) = match outcome {
            Ok(r) if r.cached => (bump(&self.hits), self.misses.load(Ordering::Relaxed)),
            Ok(_) => (self.hits.load(Ordering::Relaxed), bump(&self.misses)),
            Err(_) => (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed)),
        };
        let done = bump(&self.done);
        let label = match outcome {
            Ok(_) => spec.label(),
            Err(e) => format!("FAILED: {e}"),
        };
        eprint!("\r[{done}/{total}] {hits} cached, {misses} simulated  {label:<44}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{EngineKind, Scale};
    use std::sync::Mutex;
    use tarch_core::{BranchStats, CoreConfig, IsaLevel, PerfCounters};

    fn spec(n: u64) -> JobSpec {
        JobSpec::new(
            format!("job-{n}"),
            EngineKind::Lua,
            IsaLevel::Typed,
            Scale::Test,
            false,
            format!("print({n})"),
            &CoreConfig::paper(),
        )
    }

    fn fake_exec(spec: &JobSpec, _budget: u64) -> Result<CellResult, ExecError> {
        // Derive a deterministic result from the workload name.
        let n: u64 = spec.workload.trim_start_matches("job-").parse().unwrap();
        Ok(CellResult {
            counters: PerfCounters { cycles: n * 10, instructions: n, ..PerfCounters::default() },
            branch: BranchStats::default(),
            output: format!("{n}\n"),
            bytecodes: None,
            sim_nanos: 0,
            tier_deopts: 0,
            trace: None,
        })
    }

    #[test]
    fn results_are_ordered_and_identical_across_worker_counts() {
        let jobs: Vec<JobSpec> = (0..32).map(spec).collect();
        let serial = run_jobs(
            jobs.clone(),
            &RunConfig { workers: 1, ..RunConfig::default() },
            fake_exec,
        )
        .unwrap();
        let parallel = run_jobs(
            jobs.clone(),
            &RunConfig { workers: 4, ..RunConfig::default() },
            fake_exec,
        )
        .unwrap();
        assert_eq!(serial.outcomes.len(), 32);
        for (i, (s, p)) in serial.outcomes.iter().zip(&parallel.outcomes).enumerate() {
            assert_eq!(s.spec.workload, format!("job-{i}"));
            assert_eq!(s.result, p.result, "job {i} diverged");
        }
        assert_eq!(parallel.stats.workers, 4);
        assert_eq!(parallel.stats.cache_misses, 32);
    }

    #[test]
    fn workers_actually_run_concurrently() {
        // Each job waits until all 4 jobs have started; only a pool with
        // 4 live workers can finish.
        let started = Mutex::new(0usize);
        let jobs: Vec<JobSpec> = (0..4).map(spec).collect();
        let report = run_jobs(
            jobs,
            &RunConfig { workers: 4, ..RunConfig::default() },
            |spec, budget| {
                *started.lock().unwrap() += 1;
                let deadline = Instant::now() + std::time::Duration::from_secs(10);
                while *started.lock().unwrap() < 4 {
                    assert!(Instant::now() < deadline, "workers not concurrent");
                    std::thread::yield_now();
                }
                fake_exec(spec, budget)
            },
        )
        .unwrap();
        assert_eq!(report.outcomes.len(), 4);
    }

    #[test]
    fn lowest_index_error_wins_deterministically() {
        let jobs: Vec<JobSpec> = (0..16).map(spec).collect();
        let err = run_jobs(
            jobs,
            &RunConfig { workers: 8, ..RunConfig::default() },
            |spec, budget| {
                let n: u64 = spec.workload.trim_start_matches("job-").parse().unwrap();
                if n % 5 == 3 {
                    Err(ExecError::Failed(format!("boom {n}")))
                } else {
                    fake_exec(spec, budget)
                }
            },
        )
        .unwrap_err();
        // Failing jobs are 3, 8, 13; index 3 must win.
        match err {
            RunnerError::Cell { label, detail } => {
                assert!(label.starts_with("job-3/"), "{label}");
                assert_eq!(detail, "boom 3");
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn step_budget_error_names_the_cell_and_steps() {
        let jobs = vec![spec(0)];
        let err = run_jobs(
            jobs,
            &RunConfig { step_budget: 1234, ..RunConfig::default() },
            |_, budget| Err(ExecError::StepBudget { steps: budget }),
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("job-0/lua/typed"), "{msg}");
        assert!(msg.contains("1234"), "{msg}");
        assert!(msg.contains("step budget"), "{msg}");
    }

    #[test]
    fn cache_turns_second_run_into_hits() {
        let dir = std::env::temp_dir()
            .join(format!("tarch-pool-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RunConfig {
            workers: 4,
            cache_dir: Some(dir.clone()),
            ..RunConfig::default()
        };
        let jobs: Vec<JobSpec> = (0..8).map(spec).collect();
        let first = run_jobs(jobs.clone(), &cfg, fake_exec).unwrap();
        assert_eq!(first.stats.cache_misses, 8);
        assert_eq!(first.stats.cache_hits, 0);
        let second = run_jobs(jobs.clone(), &cfg, |_, _| {
            panic!("exec must not run on a warm cache")
        })
        .unwrap();
        assert_eq!(second.stats.cache_hits, 8);
        for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
            assert_eq!(a.result, b.result);
            assert!(b.cached);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let report =
            run_jobs(Vec::new(), &RunConfig::default(), fake_exec).unwrap();
        assert!(report.outcomes.is_empty());
        assert_eq!(report.stats.jobs, 0);
        assert!(!report.stats.summary().is_empty());
    }
}
