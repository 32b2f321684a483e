//! `scripts`: a stream of short generated MiniScript programs, each a
//! cold start of the whole pipeline. One op is parse → `<engine>::compile`
//! → `<Engine>Vm::new` → `run` → output check against the reference
//! interpreter. The seed picks the programs' constants and deals out
//! shapes, engines and ISA levels, which come in equal shares.
//! Set-up generates the corpus and its reference outputs; the measured
//! phase cycles through it from `nproc` threads in a closed loop.

use crate::gen::{self, Script};
use crate::report::Report;
use crate::stats::BestOf;
use crate::trace::{self, span, Summary};
use crate::work::Work;
use crate::{vm, Ctx};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tarch_core::{CoreConfig, Cpu};
use tarch_runner::ExecError;

/// Distinct programs per seed; a run cycles through them, so each is
/// visited many times and timed at its best.
const CORPUS: u64 = 256;
/// Generated programs retire at most ~10^5 instructions; a run that
/// needs this many has gone wrong.
const STEP_BUDGET: u64 = 20_000_000;
/// Programs re-run on the stepwise reference core in the traced run.
const REFERENCE_SAMPLE: usize = 96;

struct Prepared {
    script: Script,
    expected: Result<String, String>,
}

fn prepare(seed: u64) -> Vec<Prepared> {
    gen::corpus(seed, CORPUS)
        .into_iter()
        .map(|script| {
            let expected = miniscript::parse(&script.source)
                .map_err(|e| e.to_string())
                .and_then(|chunk| {
                    let mut interp = miniscript::Interp::new();
                    interp.run(&chunk).map_err(|e| e.to_string())?;
                    Ok(interp.output().to_string())
                });
            Prepared { script, expected }
        })
        .collect()
}

fn describe(e: ExecError) -> String {
    match e {
        ExecError::StepBudget { steps } => format!("step budget of {steps} exhausted"),
        ExecError::Failed(m) => m,
    }
}

/// One op on `core`; returns the finished guest's instructions and
/// simulated counters for the caller's checks.
fn run_one(p: &Prepared, core: CoreConfig, keep: impl FnOnce(&Cpu)) -> Result<u64, String> {
    let s = &p.script;
    span("op.script", || {
        let chunk =
            span("miniscript.parse", || miniscript::parse(&s.source)).map_err(|e| e.to_string())?;
        let mut guest = vm::build(s.engine, &chunk, s.level, core)?;
        let done = guest.run(STEP_BUDGET, false).map_err(describe)?;
        match &p.expected {
            Ok(want) if *want == done.output => {}
            Ok(want) => return Err(format!("output {:?}, reference {want:?}", done.output)),
            Err(e) => return Err(format!("reference interpreter: {e}")),
        }
        keep(guest.cpu());
        Ok(done.counters.instructions)
    })
    .map_err(|e| {
        format!(
            "{} script on {}/{}: {e}",
            s.shape,
            s.engine.id(),
            s.level.name()
        )
    })
}

struct Pass {
    wall_s: f64,
    ok: u64,
    errors: Vec<String>,
    best: BestOf,
}

/// One worker's verified visits — (program, latency in ms, simulated
/// instructions) — and its failures.
type Visits = (Vec<(usize, f64, u64)>, Vec<String>);

/// Cycles through the corpus from `ctx.workers` threads until `budget`
/// is spent and every program has run at least once.
fn pass(ctx: &Ctx, corpus: &[Prepared], budget: Duration) -> Pass {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let parts: Vec<Visits> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    let mut errors = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= corpus.len() && started.elapsed() >= budget {
                            break;
                        }
                        let i = i % corpus.len();
                        trace::new_op();
                        let t = Instant::now();
                        let result = run_one(&corpus[i], CoreConfig::paper(), |_| {});
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        match result {
                            Ok(n) => done.push((i, ms, n)),
                            Err(e) => errors.push(e),
                        }
                    }
                    trace::flush();
                    (done, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("script worker panicked"))
            .collect()
    });
    let mut p = Pass {
        wall_s: started.elapsed().as_secs_f64(),
        ok: 0,
        errors: Vec::new(),
        best: BestOf::new(corpus.len()),
    };
    for (done, errors) in parts {
        p.ok += done.len() as u64;
        p.errors.extend(errors);
        for (i, ms, n) in done {
            p.best.visit(i, ms, n);
        }
    }
    p
}

fn account(r: &mut Report, p: &Pass) {
    for _ in 0..p.ok {
        r.op(Ok(()));
    }
    for e in &p.errors {
        r.op(Err(e.clone()));
    }
}

/// The host-side core with every fast path off: the reference the fast
/// paths must match counter for counter.
fn stepwise() -> CoreConfig {
    CoreConfig {
        predecode: false,
        blocks: false,
        chain_blocks: false,
        fuse: false,
        mem_fast_paths: false,
        tier: false,
        ..CoreConfig::paper()
    }
}

pub fn run(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let (setup_s, corpus) = crate::timed_setup(5, |_| Ok(prepare(ctx.seed)))?;
    let mut mix = [0usize; gen::SHAPES.len()];
    for p in &corpus {
        mix[gen::SHAPES
            .iter()
            .position(|s| *s == p.script.shape)
            .expect("known shape")] += 1;
    }
    r.note(format!(
        "corpus of {CORPUS} programs; shapes {:?} = {mix:?}",
        gen::SHAPES
    ));

    let plain = pass(ctx, &corpus, ctx.budget());
    account(r, &plain);
    r.put("setup_s", setup_s, "s");
    r.put("wall_s", plain.wall_s, "s");
    plain.best.report(r, "programs");
    r.put("scripts_per_s", plain.ok as f64 / plain.wall_s, "1/s");
    r.note("scripts_per_s is verified scripts over wall_s; script_ms_* repeat op_ms_*");
    r.alias("script_ms_p50", "op_ms_p50");
    r.alias("script_ms_p99", "op_ms_tail");

    if ctx.traced {
        trace::set_enabled(true);
        let traced = pass(ctx, &corpus, ctx.budget());
        trace::set_enabled(false);
        account(r, &traced);
        let summary = Summary::take();
        summary.report_layers(r);
        let per_op = |p: &Pass| p.wall_s / (p.ok + p.errors.len() as u64).max(1) as f64;
        r.put(
            "trace.overhead",
            per_op(&traced) / per_op(&plain) - 1.0,
            "fraction",
        );

        // Exact counters over a fixed sample, and the stepwise reference
        // core on the same programs: every counter must match.
        let mut work = Work::default();
        let mut mismatches = 0u64;
        let mut sizes = [(0u64, 0u64); gen::SHAPES.len()];
        for p in corpus.iter().take(REFERENCE_SAMPLE) {
            let mut fast = None;
            let mut reference = None;
            let size = &mut sizes[gen::SHAPES
                .iter()
                .position(|s| *s == p.script.shape)
                .expect("known shape")];
            let a = run_one(p, CoreConfig::paper(), |cpu| {
                size.0 += 1;
                size.1 += cpu.counters().instructions;
                work.add_cpu(cpu);
                fast = Some((*cpu.counters(), cpu.branch_stats()));
            });
            let b = run_one(p, stepwise(), |cpu| {
                reference = Some((*cpu.counters(), cpu.branch_stats()))
            });
            let verdict = match (a, b) {
                (Ok(_), Ok(_)) if fast == reference => Ok(()),
                (Ok(_), Ok(_)) => Err(format!(
                    "{} on {}: counters differ from the stepwise core",
                    p.script.shape,
                    p.script.engine.id()
                )),
                (Err(e), _) | (_, Err(e)) => Err(e),
            };
            if verdict.is_err() {
                mismatches += 1;
            }
            r.op(verdict);
        }
        let means: Vec<u64> = sizes.iter().map(|(n, i)| i / n.max(&1)).collect();
        r.note(format!(
            "mean instructions per program, by shape {:?} = {means:?}",
            gen::SHAPES
        ));
        r.put(
            "reference.stepwise_checked",
            REFERENCE_SAMPLE.min(corpus.len()) as f64,
            "count",
        );
        r.put("reference.stepwise_mismatches", mismatches as f64, "count");
        r.note(format!(
            "work digest {} (first {REFERENCE_SAMPLE} programs of the seed)",
            work.digest()
        ));
        work.report_layers(r);
        work.report_counts(r);
    }
    r.put(
        "error_rate",
        r.failed as f64 / r.attempted.max(1) as f64,
        "fraction",
    );
    Ok(())
}
