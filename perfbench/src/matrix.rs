//! The job list a cold `repro all` simulates — the 11 Table 7 programs ×
//! lua/js/wasm × 3 ISA levels, plus the 33 profiled Typed cells — and a
//! traced cold round of it, rebuilt from the layers' public calls.

use crate::trace::{self, span};
use crate::work::Work;
use crate::{expected, vm, Ctx};
use std::sync::Mutex;
use std::time::Instant;
use tarch_bench::harness::{job_spec, MAX_STEPS};
use tarch_bench::{workloads, Matrix};
use tarch_core::IsaLevel;
use tarch_runner::{
    run_jobs, BenchArtifact, CellResult, EngineKind, ExecError, JobOutcome, JobSpec, RunConfig,
    RunReport, Scale,
};

/// The jobs `Matrix::run_with` submits with `profiled: true`, in its
/// order; each `JobSpec::new` (inside `job_spec`) is one `runner.key` span.
pub fn job_list(scale: Scale) -> Vec<JobSpec> {
    let ws = workloads::all();
    let mut jobs = Vec::new();
    for w in &ws {
        for e in EngineKind::ALL {
            for l in IsaLevel::ALL {
                jobs.push(span("runner.key", || job_spec(w, e, l, scale, false)));
            }
        }
    }
    for w in &ws {
        for e in EngineKind::ALL {
            jobs.push(span("runner.key", || {
                job_spec(w, e, IsaLevel::Typed, scale, true)
            }));
        }
    }
    jobs
}

/// Checks one cell's simulated result against the recording.
pub fn check_cell(scale: Scale, o: &JobOutcome) -> Result<(), String> {
    let fp = BenchArtifact::new(scale, MAX_STEPS, vec![o.clone()]).fingerprint();
    expected::check(&format!("{}:{}", scale.id(), o.spec.label()), &fp)
}

static CELL_WORK: Mutex<Option<Work>> = Mutex::new(None);

/// `exec_job` rebuilt from the layers' public calls, one span each, so
/// the traced pass can time parse, compile, `Vm::new` and `run` apart.
/// It also sums each cell's host-side work counters.
fn exec_traced(spec: &JobSpec, budget: u64) -> Result<CellResult, ExecError> {
    trace::new_op();
    let result = span("op.cell", || {
        let chunk = span("miniscript.parse", || miniscript::parse(&spec.source))
            .map_err(|e| ExecError::Failed(e.to_string()))?;
        let mut guest = vm::build(spec.engine, &chunk, spec.level, spec.core.clone())
            .map_err(ExecError::Failed)?;
        let started = Instant::now();
        let done = guest.run(budget, spec.profiled)?;
        let sim_nanos = started.elapsed().as_nanos() as u64;
        CELL_WORK
            .lock()
            .expect("work store poisoned by a panicking thread")
            .get_or_insert_with(Work::default)
            .add_cpu(guest.cpu());
        Ok(CellResult {
            counters: done.counters,
            branch: done.branch,
            output: done.output,
            bytecodes: done.bytecodes,
            sim_nanos,
            tier_deopts: guest.cpu().block_stats().tier_deopts,
            trace: None,
        })
    });
    trace::flush();
    result
}

/// One cold `repro all` of the job list at `scale`, with the cache off,
/// every cell through [`exec_traced`]. Returns the runner's report and
/// the host-side and simulated work counters of every cell.
pub fn traced_round(ctx: &Ctx, scale: Scale) -> Result<(RunReport, Work), String> {
    let jobs = job_list(scale);
    trace::flush();
    CELL_WORK
        .lock()
        .expect("work store poisoned by a panicking thread")
        .take();
    let cfg = RunConfig {
        workers: ctx.workers,
        cache_dir: None,
        step_budget: MAX_STEPS,
        progress: false,
    };
    let rep = run_jobs(jobs, &cfg, exec_traced).map_err(|e| e.to_string())?;
    span("bench.assemble", || Matrix::from_outcomes(&rep.outcomes))?;
    trace::flush();
    let work = CELL_WORK
        .lock()
        .expect("work store poisoned by a panicking thread")
        .take()
        .unwrap_or_default();
    Ok((rep, work))
}
