//! `cached`: the runner's read path. Set-up fills a fresh result cache
//! with the test-scale `repro all` job list (the 99 cells plus the 33
//! profiled ones), which simulates every job cold. Each op then re-runs
//! that list warm — every job a cache hit — renders Figures 5–9 and
//! Table 8, and writes the `BENCH_*.json` artifact. Nothing is simulated
//! in the measured phase. The traced run also traces one cold round of
//! the job list, so the simulate path has its layer metrics too.

use crate::matrix::{self, check_cell, job_list};
use crate::report::Report;
use crate::stats::{self, BestOf};
use crate::trace::{self, span, Summary};
use crate::work::Work;
use crate::{expected, Ctx};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tarch_bench::harness::{exec_job, MAX_STEPS};
use tarch_bench::{figures, workloads, Matrix, MatrixOptions};
use tarch_core::CoreConfig;
use tarch_runner::{run_jobs, BenchArtifact, JobOutcome, ResultCache, RunConfig, Scale};

fn options(ctx: &Ctx, dir: &Path) -> MatrixOptions {
    MatrixOptions {
        workers: ctx.workers,
        cache_dir: Some(dir.to_path_buf()),
        step_budget: MAX_STEPS,
        profiled: true,
        progress: false,
        core: CoreConfig::paper(),
        pgo: None,
    }
}

fn render(m: &Matrix) -> Result<(), String> {
    for fig in [
        figures::fig5,
        figures::fig6,
        figures::fig7,
        figures::fig8,
        figures::fig9,
        figures::table8,
    ] {
        fig(m)?;
    }
    Ok(())
}

/// Checks a warm report: every job a hit, and the same simulated
/// results as the recording.
fn check_warm(outcomes: &[JobOutcome]) -> Result<(), String> {
    let misses = outcomes.iter().filter(|o| !o.cached).count();
    if misses > 0 {
        return Err(format!(
            "{misses} of {} jobs missed a warm cache",
            outcomes.len()
        ));
    }
    let fp = BenchArtifact::new(Scale::Test, MAX_STEPS, outcomes.to_vec()).fingerprint();
    expected::check("test:artifact", &fp)
}

/// One warm report through `Matrix::run_with`, as `repro all` makes it.
fn report(
    ctx: &Ctx,
    ws: &[workloads::Workload],
    cache: &Path,
    out: &Path,
) -> Result<Vec<JobOutcome>, String> {
    let run = Matrix::run_with(ws, Scale::Test, &options(ctx, cache))?;
    render(&run.matrix)?;
    run.artifact().write(out)?;
    Ok(run.outcomes)
}

/// The same report from the public calls `run_with` makes, one span each.
fn report_traced(ctx: &Ctx, cache: &Path, out: &Path) -> Result<Vec<JobOutcome>, String> {
    trace::new_op();
    span("op.report", || {
        let jobs = job_list(Scale::Test);
        let cfg = RunConfig {
            workers: ctx.workers,
            cache_dir: Some(cache.to_path_buf()),
            step_budget: MAX_STEPS,
            progress: false,
        };
        let rep = span("runner.run_jobs", || run_jobs(jobs, &cfg, exec_job))
            .map_err(|e| e.to_string())?;
        let m = span("bench.assemble", || Matrix::from_outcomes(&rep.outcomes))?;
        span("bench.render", || render(&m))?;
        span("runner.artifact_write", || {
            BenchArtifact::new(Scale::Test, MAX_STEPS, rep.outcomes.clone()).write(out)
        })?;
        Ok(rep.outcomes)
    })
}

/// Reports per lap: each position of the lap keeps its best latency.
const LAP: usize = 64;

struct Pass {
    wall_s: f64,
    reports: u64,
    best: BestOf,
    load_us: Vec<f64>,
}

fn pass(
    ctx: &Ctx,
    r: &mut Report,
    mut op: impl FnMut() -> Result<Vec<JobOutcome>, String>,
) -> Pass {
    let mut p = Pass {
        wall_s: 0.0,
        reports: 0,
        best: BestOf::new(LAP),
        load_us: Vec::new(),
    };
    let started = Instant::now();
    while p.reports < LAP as u64 || started.elapsed() < ctx.budget() {
        let t = Instant::now();
        let result = op();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let i = p.reports as usize % LAP;
        p.reports += 1;
        match result.and_then(|o| check_warm(&o).map(|()| o)) {
            Ok(outcomes) => {
                let instructions = outcomes
                    .iter()
                    .map(|o| o.result.counters.instructions)
                    .sum();
                p.best.visit(i, ms, instructions);
                p.load_us
                    .extend(outcomes.iter().map(|o| o.wall_nanos as f64 / 1e3));
                r.op(Ok(()));
            }
            Err(e) => r.op(Err(e)),
        }
    }
    trace::flush();
    p.wall_s = started.elapsed().as_secs_f64();
    p
}

/// The traced cold round of the set-up's job list: its layer spans, its
/// host-side work counters, and a check that it reproduces the untraced
/// fill's simulated counters.
fn traced_fill(ctx: &Ctx, r: &mut Report, fill: &[JobOutcome]) -> Result<(), String> {
    let (rep, host) = matrix::traced_round(ctx, Scale::Test)?;
    for o in &rep.outcomes {
        r.op(check_cell(Scale::Test, o));
    }
    let mut untraced = Work::default();
    for o in fill {
        untraced.add_counters(&o.result.counters, o.result.branch.total_misses());
    }
    if host.simulated() != untraced {
        r.op(Err(
            "work counters differ between the untraced and traced fills".into(),
        ));
    }
    r.note(format!(
        "work digest {} (host and simulated counters of the cold job list)",
        host.digest()
    ));
    host.report_layers(r);
    host.report_counts(r);
    let busy: u64 = rep.outcomes.iter().map(|o| o.wall_nanos).sum();
    let capacity = rep.stats.wall_nanos * rep.stats.workers as u64;
    r.put(
        "runner.pool_idle_s",
        capacity.saturating_sub(busy) as f64 / 1e9,
        "s",
    );
    Ok(())
}

pub fn run(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let ws = workloads::all();
    // Set-up: a cold `Matrix::run_with` into a fresh cache directory
    // simulates every job and stores its result. The fill's simulation
    // outweighs its file writes, whose latency on a shared disk drifts.
    let fill_dir = |i: usize| ctx.dir.join(format!("cache-{i}"));
    const FILLS: usize = 3;
    let (setup_s, (cache, fill)) = crate::timed_setup(FILLS, |i| {
        let run = Matrix::run_with(&ws, Scale::Test, &options(ctx, &fill_dir(i)))?;
        Ok((fill_dir(i), run.outcomes))
    })?;
    for i in 0..FILLS - 1 {
        let _ = std::fs::remove_dir_all(fill_dir(i));
    }
    // Each simulated cell of the kept fill is an op of its own.
    for o in &fill {
        r.op(if o.cached {
            Err(format!("{}: hit a fresh cache", o.spec.label()))
        } else {
            check_cell(Scale::Test, o)
        });
    }
    let artifact: PathBuf = ctx.dir.join("BENCH_warm.json");

    let plain = pass(ctx, r, || report(ctx, &ws, &cache, &artifact));
    r.put("setup_s", setup_s, "s");
    r.put("wall_s", plain.wall_s, "s");
    plain.best.report(r, "warm reports of a lap");
    r.put("reports_per_s", plain.reports as f64 / plain.wall_s, "1/s");
    r.note("sim_mips counts the simulated instructions served from the cache; reports_per_s is over wall_s");

    if ctx.traced {
        trace::set_enabled(true);
        traced_fill(ctx, r, &fill)?;
        let store = ResultCache::open(ctx.dir.join("cache-store"))?;
        for o in &fill {
            span("runner.cache_store", || store.store(&o.spec.key, &o.result))?;
        }
        trace::flush();
        let traced = pass(ctx, r, || report_traced(ctx, &cache, &artifact));
        trace::set_enabled(false);
        let summary = Summary::take();
        summary.report_layers(r);
        r.put("runner.cache_load_us", stats::median(&traced.load_us), "us");
        let per_op = |p: &Pass| p.wall_s / p.reports as f64;
        r.put(
            "trace.overhead",
            per_op(&traced) / per_op(&plain) - 1.0,
            "fraction",
        );
    }
    r.put(
        "error_rate",
        r.failed as f64 / r.attempted.max(1) as f64,
        "fraction",
    );
    Ok(())
}
