//! `fleet`: three frozen templates at test scale — `fibo/lua/typed`
//! (compute only), `k-nucleotide/js/typed` (ecall- and table-heavy) and
//! `binary-trees/wasm/typed` (allocation-heavy) — each serving fleets of
//! cloned tenants through `run_fleet`: short, preempted slices from a
//! cold block cache, with typed-state context switches. One op is one
//! `run_fleet` call of 16 tenants on one worker thread; the benchmark's
//! threads make calls side by side. The seed deals tenants to shards.
//!
//! `run_fleet` keeps its guests to itself, so the traced pass drives
//! tenants through the same public calls its scheduler makes
//! (`Template::spawn`, `TypedState::save`/`restore`, `Cpu::charge`,
//! `Guest::run_slice`) and checks that it reproduces `run_fleet`'s
//! outcome exactly.

use crate::report::Report;
use crate::stats::BestOf;
use crate::trace::{self, span, Summary};
use crate::work::Work;
use crate::{expected, mix, Ctx};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tarch_bench::workloads;
use tarch_core::{CoreConfig, IsaLevel, TypedState};
use tarch_fleet::{
    run_fleet, FleetConfig, FleetOutcome, Guest, ShardReport, Template, TenantOutcome, TenantStatus,
};
use tarch_runner::{EngineKind, FleetArtifact, Scale};
use tarch_sim::RunOutcome;
use tarch_testkit::Rng;

const FLEETS: [(&str, EngineKind); 3] = [
    ("fibo", EngineKind::Lua),
    ("k-nucleotide", EngineKind::Js),
    ("binary-trees", EngineKind::Wasm),
];
const TENANTS: u32 = 16;
const SHARDS: u32 = 4;
const SLICE_STEPS: u64 = 10_000;
const CTXSW_CYCLES: u64 = 200;
const BUDGET_CYCLES: u64 = 20_000_000_000;

struct Tenancy {
    workload: &'static str,
    engine: EngineKind,
    source: String,
    expected: String,
}

impl Tenancy {
    fn label(&self) -> String {
        format!("{}/{}/typed", self.workload, self.engine.id())
    }

    fn build(&self) -> Result<Template, String> {
        Template::build(
            self.engine,
            &self.source,
            IsaLevel::Typed,
            CoreConfig::paper(),
        )
        .map_err(|e| format!("{}: {e}", self.label()))
    }

    /// The fleet's result identity with the seed left out: tenants are
    /// identical clones, so shard totals and latencies do not depend on
    /// which tenant went where.
    fn check(&self, cfg: &FleetConfig, out: &FleetOutcome) -> Result<(), String> {
        if out.completed() != cfg.tenants || out.evicted() != 0 {
            return Err(format!(
                "{}: {} of {} tenants completed",
                self.label(),
                out.completed(),
                cfg.tenants
            ));
        }
        if out.output.as_deref() != Some(self.expected.as_str()) {
            return Err(format!(
                "{}: output {:?}, reference {:?}",
                self.label(),
                out.output,
                self.expected
            ));
        }
        let artifact = FleetArtifact {
            created_unix: 0,
            workload: self.workload.to_string(),
            engine: self.engine.id().to_string(),
            level: IsaLevel::Typed.name().to_string(),
            scale: Scale::Test.id().to_string(),
            seed: 0,
            tenants: cfg.tenants,
            budget_cycles: cfg.budget_cycles,
            slice_steps: cfg.slice_steps,
            ctxsw_cycles: cfg.ctxsw_cycles,
            completed: out.completed(),
            evicted: out.evicted(),
            shards: out.summaries(),
            latency: out.latency_percentiles(),
            construct_nanos: 0,
            clone_nanos: 0,
            wall_nanos: 0,
        };
        expected::check(&format!("fleet:{}", self.label()), &artifact.fingerprint())
    }
}

/// One fleet on one worker thread: a call's host time is then one
/// thread's, like a `scripts` op, and the benchmark's threads run calls
/// side by side.
fn config(seed: u64) -> FleetConfig {
    FleetConfig {
        tenants: TENANTS,
        shards: SHARDS,
        budget_cycles: BUDGET_CYCLES,
        slice_steps: SLICE_STEPS,
        ctxsw_cycles: CTXSW_CYCLES,
        seed,
        workers: 1,
    }
}

/// `run_fleet`'s deal: a seeded Fisher–Yates shuffle, then round-robin.
fn deal(cfg: &FleetConfig) -> Vec<Vec<u32>> {
    let mut ids: Vec<u32> = (0..cfg.tenants).collect();
    let mut rng = Rng::new(cfg.seed);
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.range_usize(0, i + 1));
    }
    let mut shards = vec![Vec::new(); cfg.shards as usize];
    for (i, id) in ids.into_iter().enumerate() {
        shards[i % cfg.shards as usize].push(id);
    }
    shards
}

struct Resident {
    tenant: u32,
    guest: Guest,
    typed: TypedState,
    spent: u64,
}

/// One shard of `run_fleet`, with a span around each scheduler call.
fn drive_shard(
    shard: u32,
    ids: &[u32],
    template: &Template,
    cfg: &FleetConfig,
    work: Option<&Mutex<Work>>,
) -> Result<ShardReport, String> {
    trace::new_op();
    span("op.shard", || {
        let mut queue: VecDeque<Resident> = ids
            .iter()
            .map(|&tenant| {
                let guest = span("fleet.clone", || template.spawn(tenant));
                let typed = span("fleet.ctxsw_save", || TypedState::save(guest.cpu()));
                Resident {
                    tenant,
                    guest,
                    typed,
                    spent: 0,
                }
            })
            .collect();
        let mut clock = 0u64;
        let mut done = Vec::with_capacity(ids.len());
        let mut output = None;
        while let Some(mut r) = queue.pop_front() {
            span("fleet.ctxsw_restore", || r.typed.restore(r.guest.cpu_mut()));
            let before = r.guest.cpu().counters().cycles;
            r.guest.cpu_mut().charge(0, cfg.ctxsw_cycles);
            let outcome = span("fleet.slice", || r.guest.run_slice(cfg.slice_steps))
                .map_err(|e| format!("fleet: shard {shard} tenant {}: {e}", r.tenant))?;
            let after = *r.guest.cpu().counters();
            clock += after.cycles - before;
            r.spent += after.cycles - before;
            let status = if matches!(outcome, RunOutcome::Halted) {
                if output.is_none() {
                    output = Some(r.guest.output());
                }
                TenantStatus::Completed {
                    latency_cycles: clock,
                }
            } else if r.spent >= cfg.budget_cycles {
                TenantStatus::Evicted
            } else {
                r.typed = span("fleet.ctxsw_save", || TypedState::save(r.guest.cpu()));
                queue.push_back(r);
                continue;
            };
            if let Some(w) = work {
                w.lock()
                    .expect("work store poisoned by a panicking thread")
                    .add_cpu(r.guest.cpu());
            }
            done.push(TenantOutcome {
                tenant: r.tenant,
                status,
                instructions: after.instructions,
                cycles: r.spent,
            });
        }
        Ok(ShardReport {
            shard,
            clock_cycles: clock,
            tenants: done,
            output,
        })
    })
}

/// `run_fleet` rebuilt from its public calls: same deal, same shard
/// claiming across `cfg.workers` threads, same output agreement check.
fn drive(
    template: &Template,
    cfg: &FleetConfig,
    work: Option<&Mutex<Work>>,
) -> Result<FleetOutcome, String> {
    let deals = deal(cfg);
    let next = AtomicUsize::new(0);
    let workers = cfg.workers.min(deals.len()).max(1);
    let mut slots: Vec<Option<Result<ShardReport, String>>> =
        (0..deals.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let template = template.clone();
                let (next, deals) = (&next, &deals);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= deals.len() {
                            break;
                        }
                        out.push((i, drive_shard(i as u32, &deals[i], &template, cfg, work)));
                    }
                    trace::flush();
                    out
                })
            })
            .collect();
        for h in handles {
            for (i, report) in h.join().expect("fleet worker panicked") {
                slots[i] = Some(report);
            }
        }
    });
    let mut shards = Vec::with_capacity(slots.len());
    for (i, slot) in slots.into_iter().enumerate() {
        shards.push(slot.unwrap_or_else(|| Err(format!("fleet: shard {i} produced no report")))?);
    }
    let mut output: Option<String> = None;
    for s in &shards {
        match (&output, &s.output) {
            (None, Some(text)) => output = Some(text.clone()),
            (Some(first), Some(text)) if first != text => {
                return Err(format!("fleet: shard {} guest output diverged", s.shard))
            }
            _ => {}
        }
    }
    Ok(FleetOutcome { shards, output })
}

struct Pass {
    wall_s: f64,
    tenants: u64,
    /// Each template's `run_fleet` call at its best, per tenant.
    best: BestOf,
    /// Traced only: the first round's fleets, to compare with `run_fleet`.
    first_round: Vec<(usize, FleetConfig, FleetOutcome)>,
}

/// Fleets of every template in turn, each `run_fleet` call on one worker
/// thread, from `ctx.workers` threads at once, until `budget` is spent and
/// every template has served a fleet. With `traced`, tenants are driven
/// here instead of by `run_fleet`, and the first round's work counters
/// are kept.
fn pass(
    ctx: &Ctx,
    r: &mut Report,
    fleets: &[(Tenancy, Template)],
    budget: Duration,
    traced: Option<&Mutex<Work>>,
) -> Pass {
    let next = AtomicUsize::new(0);
    let tenancies: Vec<&Tenancy> = fleets.iter().map(|(t, _)| t).collect();
    let started = Instant::now();
    let calls: Vec<Vec<Call>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.workers)
            .map(|_| {
                // A template is `Send` but not `Sync`: each thread clones.
                let templates: Vec<Template> = fleets.iter().map(|(_, t)| t.clone()).collect();
                let (next, tenancies) = (&next, &tenancies);
                scope.spawn(move || {
                    let mut calls = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= templates.len() && started.elapsed() >= budget {
                            break;
                        }
                        let i = k % templates.len();
                        let first = k < templates.len();
                        let cfg = config(mix(ctx.seed, k as u64));
                        let t = Instant::now();
                        let out = match traced {
                            None => run_fleet(&templates[i], &cfg),
                            Some(work) => drive(&templates[i], &cfg, first.then_some(work)),
                        };
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let out = out.and_then(|out| tenancies[i].check(&cfg, &out).map(|()| out));
                        calls.push(Call {
                            i,
                            first,
                            cfg,
                            out,
                            ms,
                        });
                    }
                    trace::flush();
                    calls
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect()
    });
    let mut p = Pass {
        wall_s: started.elapsed().as_secs_f64(),
        tenants: 0,
        best: BestOf::new(fleets.len()),
        first_round: Vec::new(),
    };
    for c in calls.into_iter().flatten() {
        match c.out {
            Ok(out) => {
                for _ in 0..c.cfg.tenants {
                    r.op(Ok(()));
                }
                p.tenants += u64::from(c.cfg.tenants);
                let instructions: u64 = out.summaries().iter().map(|s| s.instructions).sum();
                p.best.visit(
                    c.i,
                    c.ms / f64::from(c.cfg.tenants),
                    instructions / u64::from(c.cfg.tenants),
                );
                if traced.is_some() && c.first {
                    p.first_round.push((c.i, c.cfg, out));
                }
            }
            Err(e) => {
                for _ in 0..c.cfg.tenants {
                    r.op(Err(e.clone()));
                }
            }
        }
    }
    p
}

/// One `run_fleet` call: which template, whether it was in the first
/// round, its configuration, outcome and host time.
struct Call {
    i: usize,
    first: bool,
    cfg: FleetConfig,
    out: Result<FleetOutcome, String>,
    ms: f64,
}

/// The three tenancies with their reference outputs.
fn tenancies() -> Result<Vec<Tenancy>, String> {
    let mut tenancies = Vec::new();
    for (name, engine) in FLEETS {
        let w = workloads::by_name(name).ok_or_else(|| format!("no workload {name}"))?;
        let source = w.source(Scale::Test);
        let chunk = miniscript::parse(&source).map_err(|e| e.to_string())?;
        let mut interp = miniscript::Interp::new();
        interp
            .run(&chunk)
            .map_err(|e| format!("{name} (reference): {e}"))?;
        tenancies.push(Tenancy {
            workload: name,
            engine,
            source,
            expected: interp.output().to_string(),
        });
    }
    Ok(tenancies)
}

pub fn run(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    // Set-up: the sources and their reference outputs, then the three
    // frozen templates.
    let (setup_s, (tenancies, templates)) = crate::timed_setup(11, |_| {
        let tenancies = tenancies()?;
        let templates = tenancies
            .iter()
            .map(Tenancy::build)
            .collect::<Result<Vec<_>, _>>()?;
        Ok((tenancies, templates))
    })?;
    let fleets: Vec<(Tenancy, Template)> = tenancies.into_iter().zip(templates).collect();

    let plain = pass(ctx, r, &fleets, ctx.budget(), None);
    r.put("setup_s", setup_s, "s");
    r.put("wall_s", plain.wall_s, "s");
    plain.best.report(r, "templates' run_fleet calls");
    r.put("tenants_per_s", plain.tenants as f64 / plain.wall_s, "1/s");
    r.note(format!(
        "op_ms is host time per tenant of one run_fleet call ({TENANTS} tenants); tenants_per_s is over wall_s"
    ));

    if ctx.traced {
        trace::set_enabled(true);
        for (tenancy, _) in &fleets {
            span("fleet.template_build", || tenancy.build())?;
        }
        trace::flush();
        let work = Mutex::new(Work::default());
        let traced = pass(ctx, r, &fleets, ctx.budget(), Some(&work));
        trace::set_enabled(false);
        let summary = Summary::take();
        summary.report_layers(r);
        for (i, cfg, out) in &traced.first_round {
            let (tenancy, template) = &fleets[*i];
            if run_fleet(template, cfg).as_ref() != Ok(out) {
                r.op(Err(format!(
                    "{}: traced driver diverged from run_fleet",
                    tenancy.label()
                )));
            }
        }
        let work = work
            .into_inner()
            .expect("work store poisoned by a panicking thread");
        r.note(format!(
            "work digest {} (first round: {} tenants)",
            work.digest(),
            work.runs
        ));
        work.report_layers(r);
        work.report_counts(r);
        let per_tenant = |n: u64| n as f64 / work.runs.max(1) as f64;
        r.put(
            "fleet.tenant_builds",
            per_tenant(work.blocks.builds),
            "count",
        );
        r.put(
            "fleet.tenant_compiles",
            per_tenant(work.blocks.compiles),
            "count",
        );
        let per_op = |p: &Pass| p.wall_s / p.tenants.max(1) as f64;
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
