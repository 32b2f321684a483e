//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <subcommand> [options]
//!
//! subcommands:
//!   table1..table8   configuration tables / hardware overhead
//!   fig1             baseline vs typed ADD handler disassembly (Figs 1c/3)
//!   fig2a fig2b      bytecode breakdown / instructions per bytecode
//!   fig5 fig6 fig7 fig8 fig9
//!   all              everything (shares one simulation matrix)
//!   selftest         quick 2-workload parallel matrix at test scale
//!   bench            host-throughput measurement: per-cell and aggregate
//!                    simulated MIPS, always simulating (cache bypassed)
//!   trace CELL       run one cell serially with the observability layer
//!                    on and print its hot-PC attribution table; CELL is
//!                    workload/engine/level, e.g. k-nucleotide/lua/typed
//!   fleet [CELL]     clone one frozen guest image for N tenants and run
//!                    them under the sharded multi-tenant scheduler;
//!                    prints per-shard throughput and tenant-latency
//!                    percentiles and writes a BENCH_fleet_*.json
//!                    artifact (default CELL: fibo/lua/typed)
//!   pgo WORKLOAD     the full two-phase profile-guided loop on one
//!                    workload: a profile run records control edges
//!                    into a PGO_<workload>.json
//!                    artifact (default dir pgo-artifacts/), then every
//!                    cell is re-run unguided vs profile-guided on the
//!                    pair engine of `ab`, verifying simulated counters
//!                    stay bit-identical and reporting per-cell and
//!                    pooled median pair ratios; --min-ratio gates the
//!                    pooled median and fails when the profile made no
//!                    decisions (stale/empty profile)
//!   ab [CELL]        each host-side layer's speed gain in one serial
//!                    pass: the execution ladder (naive -> +MRU ->
//!                    +blocks -> +fuse -> +pgo)
//!                    and the shipping config less one layer, interleaved
//!                    ABBA, counters asserted equal; each step a median
//!                    pair ratio with a 95% interval. Any part of CELL may
//!                    be `*` (default */*/*); +pgo needs a --pgo-dir
//!                    profile recorded at the run's scale
//!
//! options:
//!   --full | --test-scale   input scale (default: the paper's scale)
//!   -j N | --jobs N         worker threads (default: one per core)
//!   --no-cache              bypass the persistent result cache
//!   --steps N               per-job step budget (default 2e10)
//!   --workload NAME         restrict `bench` to one workload
//!   --sample-period N       (trace) sampling-profiler period in
//!                           simulated cycles (default 10000)
//!   --profile PATH          (pgo) reuse an existing profile artifact
//!                           instead of running phase 1
//!   --pgo-dir DIR           (bench, ab) load per-workload PGO_*.json
//!                           profiles and run every matching cell
//!                           profile-guided (`ab`: as the +pgo rung;
//!                           default pgo-artifacts/); a profile recorded
//!                           at another scale is skipped, and the count
//!                           of skipped profiles is printed
//!   --tenants N             (fleet) cloned guests to launch (default 1000)
//!   --shards N              (fleet) simulated cores to deal them across
//!                           (default 8)
//!   --budget N              (fleet) per-tenant simulated-cycle budget;
//!                           tenants still running at N are evicted
//!                           (default 2e10)
//!   --slice N               (fleet) preemption quantum in simulated
//!                           instructions (default 10000)
//!   --ctxsw N               (fleet) simulated cycles charged per context
//!                           switch (default 200)
//!   --seed N                (fleet) scheduler shuffle seed (default 42)
//!   --trace-out PATH        (trace) write a Chrome trace_event JSON to
//!                           PATH (open in ui.perfetto.dev) and folded
//!                           flamegraph stacks to PATH with a .folded
//!                           extension
//!   --emit-json PATH        write the run artifact to PATH; for `trace`
//!                           the hot-PC table as JSON, for `pgo` the
//!                           profile artifact path
//!   --out DIR               directory for auto-emitted artifacts
//!                           (default: bench-artifacts/)
//!   --from-json PATH        render figures from a BENCH_*.json artifact
//!                           instead of simulating
//!   --compare PATH          (bench) diff host throughput against a
//!                           baseline artifact, per cell and aggregate;
//!                           the baseline is read before anything runs
//!   --min-ratio R           (bench, with --compare) exit nonzero when
//!                           aggregate MIPS < R x the baseline's; (pgo)
//!                           when the pooled median pair ratio < R
//!   --verbose | -v          progress + run statistics on stderr
//! ```
//!
//! Simulation results are cached under `target/tarch-cache/` keyed by the
//! job's content (program source + configuration); a repeated invocation
//! is served entirely from cache. `repro all` and `repro bench`
//! additionally write a timestamped `BENCH_<unix>.json` artifact into
//! `bench-artifacts/` (override the directory with `--out`, or the exact
//! path with `--emit-json`).

use std::collections::BTreeMap;
use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use tarch_bench::ab::{self, Cell, CellRun, Config, Step, Summary};
use tarch_bench::figures;
use tarch_bench::harness::{self, default_cache_dir, Matrix, MatrixOptions, MAX_STEPS};
use tarch_bench::paper_tables as tables;
use tarch_bench::workloads::{self, Scale};
use tarch_core::{CoreConfig, IsaLevel, TraceConfig};
use tarch_fleet::build_guest;
use tarch_runner::{BenchArtifact, Dispatches, EngineKind, JobKey, PgoSet, RunStats};

struct Opts {
    scale: Scale,
    verbose: bool,
    jobs: usize,
    no_cache: bool,
    step_budget: u64,
    workload: Option<String>,
    sample_period: Option<u64>,
    profile: Option<PathBuf>,
    pgo_dir: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    emit_json: Option<PathBuf>,
    out_dir: Option<PathBuf>,
    from_json: Option<PathBuf>,
    compare: Option<PathBuf>,
    min_ratio: Option<f64>,
    tenants: u32,
    shards: u32,
    budget: u64,
    slice: u64,
    ctxsw: u64,
    seed: u64,
    fleet_opts_seen: bool,
}

const USAGE: &str = "usage: repro <table1..table8|fig1|fig2a|fig2b|fig5..fig9|all|selftest|bench\
                     |trace CELL|fleet [CELL]|pgo WORKLOAD|ab [CELL]> \
                     [--full|--test-scale] [-j N] [--no-cache] [--steps N] [--workload NAME] \
                     [--sample-period N] [--trace-out PATH] [--profile PATH] \
                     [--pgo-dir DIR] \
                     [--tenants N] [--shards N] [--budget N] [--slice N] [--ctxsw N] [--seed N] \
                     [--emit-json PATH] [--out DIR] [--from-json PATH] [--compare PATH] \
                     [--min-ratio R] [--verbose]";

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut opts = Opts {
        scale: Scale::Default,
        verbose: false,
        jobs: 0,
        no_cache: false,
        step_budget: MAX_STEPS,
        workload: None,
        sample_period: None,
        profile: None,
        pgo_dir: None,
        trace_out: None,
        emit_json: None,
        out_dir: None,
        from_json: None,
        compare: None,
        min_ratio: None,
        tenants: 1000,
        shards: 8,
        budget: 20_000_000_000,
        slice: 10_000,
        ctxsw: 200,
        seed: 42,
        fleet_opts_seen: false,
    };
    let mut command = None;
    let mut cell = None;
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        let r: Result<(), String> = (|| {
            match a {
                "--full" => opts.scale = Scale::Full,
                "--test-scale" => opts.scale = Scale::Test,
                "--verbose" | "-v" => opts.verbose = true,
                "--no-cache" => opts.no_cache = true,
                "-j" | "--jobs" => {
                    opts.jobs =
                        value(a)?.parse().map_err(|_| format!("{a} needs a number of workers"))?;
                }
                "--steps" => {
                    opts.step_budget =
                        value(a)?.parse().map_err(|_| format!("{a} needs a step count"))?;
                }
                "--workload" => opts.workload = Some(value(a)?),
                "--sample-period" => {
                    opts.sample_period =
                        Some(value(a)?.parse().map_err(|_| format!("{a} needs a cycle count"))?);
                }
                "--trace-out" => opts.trace_out = Some(PathBuf::from(value(a)?)),
                "--profile" => opts.profile = Some(PathBuf::from(value(a)?)),
                "--pgo-dir" => opts.pgo_dir = Some(PathBuf::from(value(a)?)),
                "--tenants" | "--shards" | "--budget" | "--slice" | "--ctxsw" | "--seed" => {
                    let n: u64 = value(a)?.parse().map_err(|_| format!("{a} needs a number"))?;
                    opts.fleet_opts_seen = true;
                    let count =
                        || u32::try_from(n).map_err(|_| format!("{a} is {n}, above the u32 range"));
                    match a {
                        "--tenants" => opts.tenants = count()?,
                        "--shards" => opts.shards = count()?,
                        "--budget" => opts.budget = n,
                        "--slice" => opts.slice = n,
                        "--ctxsw" => opts.ctxsw = n,
                        _ => opts.seed = n,
                    }
                }
                "--emit-json" => opts.emit_json = Some(PathBuf::from(value(a)?)),
                "--out" => opts.out_dir = Some(PathBuf::from(value(a)?)),
                "--from-json" => opts.from_json = Some(PathBuf::from(value(a)?)),
                "--compare" => opts.compare = Some(PathBuf::from(value(a)?)),
                "--min-ratio" => {
                    opts.min_ratio =
                        Some(value(a)?.parse().map_err(|_| format!("{a} needs a ratio"))?);
                }
                c if command.is_none() && !c.starts_with('-') => command = Some(c.to_string()),
                c if matches!(command.as_deref(), Some("trace" | "fleet" | "pgo" | "ab"))
                    && cell.is_none()
                    && !c.starts_with('-') =>
                {
                    cell = Some(c.to_string());
                }
                other => return Err(format!("unexpected argument `{other}`")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
        i += 1;
    }
    let Some(command) = command else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if opts.compare.is_some() && command != "bench" {
        eprintln!("error: --compare only applies to `bench`\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if opts.min_ratio.is_some() && command != "bench" && command != "pgo" {
        eprintln!("error: --min-ratio only applies to `bench` and `pgo`\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if opts.min_ratio.is_some() && command == "bench" && opts.compare.is_none() {
        eprintln!("error: --min-ratio needs --compare under `bench`\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if opts.pgo_dir.is_some() && command != "bench" && command != "ab" {
        eprintln!("error: --pgo-dir only applies to `bench` and `ab`\n{USAGE}");
        return ExitCode::FAILURE;
    }
    // `ab` runs serially, so both sides of a pair see the same host; it
    // always simulates; its two sets are its configs.
    let ab_rejects = [(opts.jobs != 0, "-j"), (opts.no_cache, "--no-cache")];
    if let Some((_, flag)) = ab_rejects.iter().find(|(given, _)| *given && command == "ab") {
        eprintln!("error: {flag} does not apply to `ab`\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if opts.profile.is_some() && command != "pgo" {
        eprintln!("error: --profile only applies to `pgo`\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if opts.sample_period.is_some() && command != "trace" {
        eprintln!("error: --sample-period only applies to `trace`\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if opts.trace_out.is_some() && command != "trace" {
        eprintln!("error: --trace-out only applies to `trace`\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if command == "trace" && cell.is_none() {
        eprintln!("error: trace needs a cell, e.g. `repro trace k-nucleotide/lua/typed`\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if command == "pgo" && cell.is_none() {
        eprintln!("error: pgo needs a workload, e.g. `repro pgo k-nucleotide`\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if opts.fleet_opts_seen && command != "fleet" {
        eprintln!(
            "error: --tenants/--shards/--budget/--slice/--ctxsw/--seed only apply to \
             `fleet`\n{USAGE}"
        );
        return ExitCode::FAILURE;
    }

    match run(&command, &opts, cell.as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A matrix to render and the artifact it came from or made.
struct Produced {
    matrix: Matrix,
    artifact: BenchArtifact,
    /// Dispatch counts of the profiled jobs a simulated run ran.
    dispatches: BTreeMap<JobKey, Dispatches>,
    /// Pool statistics of a simulated run; `None` for an artifact.
    stats: Option<RunStats>,
}

/// The options of a simulated matrix or of Figure 2(a)'s jobs.
fn matrix_options(opts: &Opts, profiled: bool) -> MatrixOptions {
    MatrixOptions {
        workers: opts.jobs,
        cache_dir: (!opts.no_cache).then(default_cache_dir),
        step_budget: opts.step_budget,
        profiled,
        progress: opts.verbose,
        ..MatrixOptions::default()
    }
}

/// Produces the matrix: reloaded from an artifact when `--from-json` was
/// given, otherwise simulated on the worker pool (with caching unless
/// `--no-cache`). The caller prints the run's summary (see [`summarize`]).
fn matrix(opts: &Opts, profiled: bool) -> Result<Produced, String> {
    if let Some(path) = &opts.from_json {
        let artifact = BenchArtifact::read(path)?;
        if opts.verbose {
            eprintln!(
                "loaded {} job(s) from {} (scale {}, created {})",
                artifact.outcomes.len(),
                path.display(),
                artifact.scale.id(),
                artifact.created_unix,
            );
        }
        let matrix = Matrix::from_artifact(&artifact)?;
        return Ok(Produced { matrix, artifact, dispatches: BTreeMap::new(), stats: None });
    }
    if opts.verbose {
        eprintln!("running the workload x engine x ISA-level simulation matrix...");
    }
    let run = Matrix::run_with(&workloads::all(), opts.scale, &matrix_options(opts, profiled))?;
    let artifact = run.artifact();
    let stats = Some(run.stats);
    Ok(Produced { matrix: run.matrix, artifact, dispatches: run.dispatches, stats })
}

/// Prints a run's summary under `--verbose`.
fn summarize(opts: &Opts, stats: Option<&RunStats>) {
    if let (true, Some(stats)) = (opts.verbose, stats) {
        eprintln!("{}", stats.summary());
    }
}

/// Figure 2(a), from the dispatch counts of each workload's profiled Lua
/// Typed cell: those in `known`, else cached, else simulated now. Returns
/// the statistics of the jobs `known` did not answer.
fn fig2a(opts: &Opts, known: &BTreeMap<JobKey, Dispatches>) -> Result<(String, RunStats), String> {
    let ws = workloads::all();
    let mopts = matrix_options(opts, true);
    let jobs = harness::fig2a_jobs(&ws, opts.scale, &mopts.core);
    let (counts, stats) = harness::dispatch_counts(&jobs, known, &mopts)?;
    let rows: Vec<(&str, Dispatches)> = ws.iter().map(|w| w.name).zip(counts).collect();
    Ok((figures::fig2a(&rows), stats))
}

fn emit(opts: &Opts, command: &str, artifact: &BenchArtifact) -> Result<(), String> {
    // Explicit --emit-json always wins; `all` and `bench` also auto-emit
    // a timestamped artifact next to the working directory unless the
    // matrix itself came from an artifact.
    let path = match (&opts.emit_json, command) {
        (Some(p), _) => Some(p.clone()),
        (None, "all" | "bench") if opts.from_json.is_none() => {
            let dir = opts.out_dir.clone().unwrap_or_else(|| PathBuf::from("bench-artifacts"));
            std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            Some(dir.join(artifact.default_filename()))
        }
        _ => None,
    };
    if let Some(path) = path {
        artifact.write(&path)?;
        eprintln!("wrote run artifact {}", path.display());
    }
    Ok(())
}

fn run(command: &str, opts: &Opts, cell: Option<&str>) -> Result<(), String> {
    match command {
        "table1" => print!("{}", tables::table1()),
        "table2" => print!("{}", tables::table2()),
        "table3" => print!("{}", tables::table3()),
        "table4" => print!("{}", tables::table4()),
        "table5" => print!("{}", tables::table5()),
        "table6" => print!("{}", tables::table6()),
        "table7" => print!("{}", tables::table7()),
        "fig1" | "fig3" => print!("{}", figures::fig1()?),
        "fig2a" => {
            if opts.verbose {
                eprintln!("reading or simulating the profiled Lua Typed cells...");
            }
            let (fig, stats) = fig2a(opts, &BTreeMap::new())?;
            summarize(opts, Some(&stats));
            print!("{fig}");
        }
        "fig2b" => print!("{}", figures::fig2b()?),
        "fig9" => {
            let p = matrix(opts, true)?;
            summarize(opts, p.stats.as_ref());
            print!("{}", figures::fig9(&p.matrix)?);
            emit(opts, command, &p.artifact)?;
        }
        "fig5" | "fig6" | "fig7" | "fig8" | "table8" => {
            let p = matrix(opts, false)?;
            summarize(opts, p.stats.as_ref());
            let m = &p.matrix;
            let s = match command {
                "fig5" => figures::fig5(m)?,
                "fig6" => figures::fig6(m)?,
                "fig7" => figures::fig7(m)?,
                "fig8" => figures::fig8(m)?,
                _ => figures::table8(m)?,
            };
            print!("{s}");
            emit(opts, command, &p.artifact)?;
        }
        "all" => {
            // Every simulation runs before anything prints: Figure 2(a)
            // takes its counts from the matrix's profiled Lua cells.
            let p = matrix(opts, true)?;
            let (fig2a, fig2a_stats) = fig2a(opts, &p.dispatches)?;
            let mut stats = p.stats.unwrap_or_default();
            stats.absorb(&fig2a_stats);
            summarize(opts, Some(&stats));
            let m = &p.matrix;
            print!("{}", tables::table1());
            println!();
            print!("{}", tables::table2());
            println!();
            print!("{}", tables::table3());
            println!();
            print!("{}", tables::table4());
            println!();
            print!("{}", tables::table5());
            println!();
            print!("{}", tables::table6());
            println!();
            print!("{}", tables::table7());
            println!();
            print!("{}", figures::fig1()?);
            println!();
            print!("{fig2a}");
            println!();
            print!("{}", figures::fig2b()?);
            println!();
            print!("{}", figures::fig5(m)?);
            println!();
            print!("{}", figures::fig6(m)?);
            println!();
            print!("{}", figures::fig7(m)?);
            println!();
            print!("{}", figures::fig8(m)?);
            println!();
            print!("{}", figures::fig9(m)?);
            println!();
            print!("{}", figures::table8(m)?);
            emit(opts, command, &p.artifact)?;
        }
        "selftest" => return selftest(opts),
        "bench" => return bench(opts),
        "trace" => return trace_cell(opts, cell.expect("checked in main")),
        "fleet" => return fleet(opts, cell.unwrap_or("fibo/lua/typed")),
        "pgo" => return pgo(opts, cell.expect("checked in main")),
        "ab" => return ab_ladder(opts, cell.unwrap_or("*/*/*")),
        other => return Err(format!("unknown subcommand `{other}`")),
    }
    Ok(())
}

/// Host-throughput measurement: runs the matrix with the cache bypassed
/// (measurement must simulate, not replay) and reports simulated
/// instructions per host second for every cell plus the aggregate that
/// lands in the artifact's `host_mips` field.
fn bench(opts: &Opts) -> Result<(), String> {
    let ws = match &opts.workload {
        Some(name) => {
            vec![workloads::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?]
        }
        None => workloads::all(),
    };
    // Read the baseline first: a missing or malformed one fails before
    // anything is simulated or written.
    let baseline = match &opts.compare {
        Some(path) => Some((path, BenchArtifact::read(path)?)),
        None => None,
    };
    let pgo_set = match &opts.pgo_dir {
        Some(dir) => Some(Arc::new(load_profiles(opts, dir)?)),
        None => None,
    };
    let mopts = MatrixOptions {
        workers: opts.jobs,
        cache_dir: None,
        step_budget: opts.step_budget,
        profiled: false,
        progress: opts.verbose,
        pgo: pgo_set,
        ..MatrixOptions::default()
    };
    let run = Matrix::run_with(&ws, opts.scale, &mopts)?;
    println!(
        "{:<16} {:<6} {:<13} {:>14} {:>10} {:>8}",
        "workload", "engine", "level", "instructions", "wall ms", "MIPS"
    );
    for o in &run.outcomes {
        println!(
            "{:<16} {:<6} {:<13} {:>14} {:>10.1} {:>8.1}",
            o.spec.workload,
            o.spec.engine.id(),
            o.spec.level.name(),
            o.result.counters.instructions,
            o.wall_nanos as f64 / 1e6,
            o.steps_per_sec() / 1e6,
        );
    }
    let artifact = run.artifact();
    println!(
        "aggregate: {:.1} MIPS over {} cells ({})",
        artifact.host_mips,
        run.outcomes.len(),
        run.stats.summary(),
    );
    emit(opts, "bench", &artifact)?;
    match &baseline {
        Some((path, baseline)) => compare_against(path, baseline, &artifact, opts.min_ratio),
        None => Ok(()),
    }
}

/// The cells a `workload/engine/level` spelling names, in matrix order;
/// any part may be `*`. `command` and `example` word the error for a
/// spelling without three parts.
fn parse_cells(spec: &str, command: &str, example: &str) -> Result<Vec<Cell>, String> {
    let parts: Vec<&str> = spec.split('/').collect();
    let [w, e, l] = parts[..] else {
        return Err(format!(
            "{command} needs workload/engine/level, e.g. {example} (got `{spec}`)"
        ));
    };
    if w != "*" && workloads::by_name(w).is_none() {
        return Err(format!("unknown workload `{w}`"));
    }
    if e != "*" && EngineKind::parse(e).is_none() {
        return Err(format!("unknown engine `{e}` (lua|js|wasm)"));
    }
    if l != "*" && IsaLevel::parse(l).is_none() {
        return Err(format!("unknown ISA level `{l}` (baseline|checked-load|typed)"));
    }
    let mut cells = Vec::new();
    for workload in workloads::all().into_iter().filter(|x| w == "*" || x.name == w) {
        for engine in EngineKind::ALL.into_iter().filter(|x| e == "*" || x.id() == e) {
            let levels = IsaLevel::ALL.into_iter().filter(|x| l == "*" || x.name() == l);
            cells.extend(levels.map(|level| Cell { workload, engine, level, profile: None }));
        }
    }
    Ok(cells)
}

/// The one cell `spec` names, for subcommands that run a single cell.
fn one_cell(spec: &str, command: &str, example: &str) -> Result<Cell, String> {
    match &parse_cells(spec, command, example)?[..] {
        [cell] => Ok(cell.clone()),
        cells => Err(format!("{command} needs one cell, and `{spec}` names {}", cells.len())),
    }
}

/// `repro trace CELL`: runs one cell *serially, in process* with the
/// tarch-trace observability layer enabled and renders the result — the
/// hot-PC attribution table on stdout, and (with `--trace-out`) a Chrome
/// trace_event JSON plus flamegraph-folded stacks on disk. Serial
/// because the tracer lives inside the `Cpu`.
fn trace_cell(opts: &Opts, spec: &str) -> Result<(), String> {
    let cell = one_cell(spec, "trace", "k-nucleotide/lua/typed")?;
    let mut tc = TraceConfig::new();
    if let Some(p) = opts.sample_period {
        tc.sample_period = p.max(1);
    }
    let core = CoreConfig { trace: Some(tc), ..CoreConfig::paper() };
    let src = cell.workload.source(opts.scale);
    let label = cell.label();
    if opts.verbose {
        eprintln!("tracing {label} (sample period {} cycles)...", tc.sample_period);
    }
    let mut guest =
        build_guest(cell.engine, &src, cell.level, core).map_err(|e| format!("{label}: {e}"))?;
    guest.run(opts.step_budget).map_err(|e| format!("{label}: {e}"))?;
    let symbols = guest.symbols().clone();
    render_trace(
        guest.cpu_mut(),
        &symbols,
        &label,
        opts.trace_out.as_deref(),
        opts.emit_json.as_deref(),
    )
}

/// Flushes the finished cell's tracer and renders/writes its artifacts.
fn render_trace(
    cpu: &mut tarch_core::Cpu,
    symbols: &std::collections::BTreeMap<String, u64>,
    label: &str,
    out: Option<&Path>,
    emit_json: Option<&Path>,
) -> Result<(), String> {
    use tarch_core::trace::{chrome, report};
    let summary = cpu
        .finish_trace()
        .ok_or_else(|| format!("{label}: tracing was not enabled on the core"))?;
    let syms = report::SymbolTable::new(symbols.iter().map(|(n, a)| (n.clone(), *a)));
    println!("trace of {label}:");
    print!("{}", report::hot_pc_table(&summary, &syms));
    println!("{} metric window(s) captured", summary.windows.len());
    if let Some(path) = emit_json {
        // Machine-readable hot-PC table: the same rows the text report
        // prints, in the shape profile tooling consumes.
        use tarch_runner::Json;
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str("tarch-trace/v1")),
            ("cell".into(), Json::str(label)),
            ("sample_period".into(), Json::num(summary.sample_period)),
            ("total_samples".into(), Json::num(summary.total_samples)),
            (
                "hot_pcs".into(),
                Json::Arr(
                    summary
                        .hot_pcs
                        .iter()
                        .map(|h| {
                            Json::Obj(vec![
                                ("pc".into(), Json::num(h.pc)),
                                ("samples".into(), Json::num(h.samples)),
                                ("icache".into(), Json::num(h.misses.icache)),
                                ("dcache".into(), Json::num(h.misses.dcache)),
                                ("itlb".into(), Json::num(h.misses.itlb)),
                                ("dtlb".into(), Json::num(h.misses.dtlb)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, doc.to_pretty_string())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("wrote hot-PC table {}", path.display());
    }
    if let Some(path) = out {
        let tracer = cpu.tracer().expect("tracer present after finish_trace");
        let json = chrome::chrome_trace(tracer);
        std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
        let folded = path.with_extension("folded");
        std::fs::write(&folded, report::folded_stacks(&summary, &syms))
            .map_err(|e| format!("write {}: {e}", folded.display()))?;
        eprintln!(
            "wrote Chrome trace {} (load in ui.perfetto.dev) and folded stacks {}",
            path.display(),
            folded.display(),
        );
    }
    Ok(())
}

/// `repro fleet CELL`: freezes one fully constructed guest image, stamps
/// out `--tenants` clones, runs them under the sharded preemptive
/// scheduler, and reports per-shard throughput plus tenant-latency
/// percentiles in simulated cycles — the paper's "many small guests on
/// shared hardware" deployment shape. Also measures how much cheaper a
/// clone is than full construction (the point of snapshotting) and
/// writes a `BENCH_fleet_*.json` artifact.
fn fleet(opts: &Opts, spec: &str) -> Result<(), String> {
    let cell = one_cell(spec, "fleet", "fibo/lua/typed")?;
    let (w, engine, level) = (cell.workload, cell.engine, cell.level);
    let src = w.source(opts.scale);
    let core = CoreConfig::paper();
    let label = cell.label();

    if opts.verbose {
        eprintln!("measuring construction vs clone cost for {label}...");
    }
    let costs = tarch_fleet::measure_costs(engine, &src, level, core.clone(), 16)?;
    let template = tarch_fleet::Template::build(engine, &src, level, core)?;

    let workers = if opts.jobs == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        opts.jobs
    };
    let cfg = tarch_fleet::FleetConfig {
        tenants: opts.tenants,
        shards: opts.shards,
        budget_cycles: opts.budget,
        slice_steps: opts.slice,
        ctxsw_cycles: opts.ctxsw,
        seed: opts.seed,
        workers,
    };
    if opts.verbose {
        eprintln!(
            "running {} tenant(s) across {} shard(s) on {workers} worker(s)...",
            cfg.tenants, cfg.shards
        );
    }
    let t0 = std::time::Instant::now();
    let outcome = tarch_fleet::run_fleet(&template, &cfg)?;
    let wall_nanos = t0.elapsed().as_nanos() as u64;

    println!(
        "fleet: {} tenant(s) of {label} across {} shard(s), seed {}",
        cfg.tenants, cfg.shards, cfg.seed
    );
    println!(
        "snapshot: construct {:.1} us/VM, clone {:.1} us/VM ({:.1}x cheaper)",
        costs.construct_nanos as f64 / 1e3,
        costs.clone_nanos as f64 / 1e3,
        costs.speedup(),
    );
    println!(
        "{:<6} {:>8} {:>10} {:>14} {:>14} {:>7}",
        "shard", "tenants", "completed", "instructions", "cycles", "IPC"
    );
    let summaries = outcome.summaries();
    for s in &summaries {
        println!(
            "{:<6} {:>8} {:>10} {:>14} {:>14} {:>7.3}",
            s.shard,
            s.tenants,
            s.completed,
            s.instructions,
            s.cycles,
            s.ipc()
        );
    }
    let completed = outcome.completed();
    let evicted = outcome.evicted();
    println!("completed {completed}/{} ({evicted} evicted)", cfg.tenants);
    let latency = outcome.latency_percentiles();
    match &latency {
        Some(p) => println!(
            "tenant latency (simulated cycles): p50 {:.0}  p95 {:.0}  p99 {:.0}",
            p.p50, p.p95, p.p99
        ),
        None => println!("tenant latency: no tenant completed"),
    }
    println!("wall {:.2} s on {workers} worker(s)", wall_nanos as f64 / 1e9);

    let mut artifact = tarch_runner::FleetArtifact {
        created_unix: 0,
        workload: w.name.to_string(),
        engine: engine.id().to_string(),
        level: level.name().to_string(),
        scale: opts.scale.id().to_string(),
        seed: cfg.seed,
        tenants: cfg.tenants,
        budget_cycles: cfg.budget_cycles,
        slice_steps: cfg.slice_steps,
        ctxsw_cycles: cfg.ctxsw_cycles,
        completed,
        evicted,
        shards: summaries,
        latency,
        construct_nanos: costs.construct_nanos,
        clone_nanos: costs.clone_nanos,
        wall_nanos,
    };
    artifact.stamp_created();
    let path = match &opts.emit_json {
        Some(p) => p.clone(),
        None => {
            let dir = opts.out_dir.clone().unwrap_or_else(|| PathBuf::from("bench-artifacts"));
            std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            dir.join(artifact.default_filename())
        }
    };
    artifact.write(&path)?;
    eprintln!("wrote fleet artifact {}", path.display());
    Ok(())
}

/// `repro pgo WORKLOAD`: the two-phase profile-guided loop on one
/// workload, end to end.
///
/// **Phase 1 (profile run)** — unless `--profile PATH` reuses an
/// existing artifact — runs every (engine × ISA level) cell serially,
/// in process, on the shipping core with the control-edge recorder
/// enabled, and writes the edges into a `PGO_<workload>.json` artifact
/// (see `tarch_runner::pgo`).
///
/// **Phase 2 (A/B)** measures every cell unguided against profile-guided
/// on the pair engine ([`ab::measure`]), which fails if the sides'
/// simulated counters, branch statistics or output differ (PGO may only
/// change host speed), and reports each cell's median pair ratio and the
/// pooled median with its 95% interval. `--min-ratio R` gates the pooled
/// median, and also fails when the profile produced no superblocks at
/// all: a stale or empty profile should be reported, not tolerated.
fn pgo(opts: &Opts, wname: &str) -> Result<(), String> {
    let w = workloads::by_name(wname).ok_or_else(|| format!("unknown workload `{wname}`"))?;
    let src = w.source(opts.scale);

    // Phase 1: record or reload the profile.
    let artifact = match &opts.profile {
        Some(path) => {
            let a = tarch_runner::PgoArtifact::read(path)?;
            if a.workload != w.name {
                eprintln!(
                    "warning: profile {} was recorded for workload `{}`",
                    path.display(),
                    a.workload
                );
            }
            if a.scale != opts.scale {
                eprintln!(
                    "warning: profile {} was recorded at scale {}, optimizing at {} \
                     (stale hot set; decisions degrade to baseline behavior)",
                    path.display(),
                    a.scale.id(),
                    opts.scale.id()
                );
            }
            a
        }
        None => {
            let mut cells = Vec::new();
            for engine in EngineKind::ALL {
                for level in IsaLevel::ALL {
                    let label = format!("{}/{}/{}", w.name, engine.id(), level.name());
                    if opts.verbose {
                        eprintln!("profiling {label}...");
                    }
                    let mut guest = build_guest(engine, &src, level, CoreConfig::paper())
                        .map_err(|e| format!("{label}: {e}"))?;
                    guest.cpu_mut().enable_edge_profile();
                    guest.run_slice(opts.step_budget).map_err(|e| format!("{label}: {e}"))?;
                    if !guest.is_halted() {
                        return Err(format!("{label}: step budget exhausted while profiling"));
                    }
                    let edges = guest.cpu().edge_profile().cloned().unwrap_or_default();
                    cells.push(tarch_runner::PgoCell::new(engine, level, &edges));
                }
            }
            let artifact =
                tarch_runner::PgoArtifact::new(w.name, opts.scale, opts.step_budget, cells);
            let path = match &opts.emit_json {
                Some(p) => p.clone(),
                None => {
                    let dir =
                        opts.out_dir.clone().unwrap_or_else(|| PathBuf::from("pgo-artifacts"));
                    std::fs::create_dir_all(&dir)
                        .map_err(|e| format!("create {}: {e}", dir.display()))?;
                    dir.join(artifact.default_filename())
                }
            };
            artifact.write(&path)?;
            eprintln!("wrote profile artifact {}", path.display());
            artifact
        }
    };

    // Phase 2: unguided against profile-guided on the pair engine.
    let cells: Vec<Cell> = parse_cells(&format!("{}/*/*", w.name), "pgo", "fibo")?
        .into_iter()
        .map(|c| Cell { profile: artifact.profile(c.engine, c.level).map(Arc::new), ..c })
        .collect();
    let configs = [
        Config { name: "unguided".into(), core: CoreConfig::paper(), guided: false },
        Config { name: "guided".into(), core: CoreConfig::paper(), guided: true },
    ];
    let step = Step { label: "unguided -> guided".into(), base: 0, other: 1 };
    let runs = ab::measure(&cells, opts.scale, &configs, PAIRS, opts.step_budget, opts.verbose)?;
    println!(
        "{:<16} {:<6} {:<13} {:>14} {:>7} {:>7} {:>10} {:>10} {:>8}",
        "workload",
        "engine",
        "level",
        "instructions",
        "sblocks",
        "deopts",
        "base MIPS",
        "pgo MIPS",
        "median"
    );
    let mut superblocks = 0u64;
    for run in &runs {
        let (sblocks, deopts, median) = match run.blocks[1].zip(Summary::of(run.ratios(&step))) {
            Some((b, s)) => {
                superblocks += b.superblocks;
                (b.superblocks.to_string(), b.tier_deopts.to_string(), format!("{:.3}x", s.median))
            }
            None => ("-".into(), "-".into(), "-".into()),
        };
        let mips = |i| run.mips(i).map_or_else(|| "-".into(), |m| format!("{m:.1}"));
        println!(
            "{:<16} {:<6} {:<13} {:>14} {sblocks:>7} {deopts:>7} {:>10} {:>10} {median:>8}",
            w.name,
            run.cell.engine.id(),
            run.cell.level.name(),
            run.instructions,
            mips(0),
            mips(1),
        );
        if opts.verbose {
            print_block_stats(run, &configs);
        }
    }
    let pooled = Summary::pooled(&runs, &step);
    if let Some(p) = &pooled {
        let (n, median) = (p.pairs, p.median);
        println!("pooled over {n} pairs: median {median:.3}x, 95% interval {}", interval(p));
    }
    println!(
        "{superblocks} superblock(s) formed; counters, branch statistics and output equal \
         across all cells"
    );
    let Some(min) = opts.min_ratio else { return Ok(()) };
    let Some(pooled) = pooled.filter(|_| superblocks > 0) else {
        return Err(format!(
            "PGO gate: the profile produced no superblocks — stale or empty profile \
             for `{}` at scale {}",
            w.name,
            opts.scale.id()
        ));
    };
    if pooled.median < min {
        return Err(format!(
            "PGO gate: pooled median ratio {:.3} is below {min} — the profile stopped \
             paying for `{}`",
            pooled.median, w.name
        ));
    }
    println!("PGO gate: pooled median {:.3} >= {min} (ok)", pooled.median);
    Ok(())
}

/// Loads the profiles in `dir` for a run at `opts.scale`, and says on
/// stderr how many of them that scale skips ([`PgoSet::profile`]).
fn load_profiles(opts: &Opts, dir: &Path) -> Result<PgoSet, String> {
    let set = PgoSet::load(dir)?;
    if set.is_empty() {
        eprintln!("warning: no PGO_*.json profiles in {}", dir.display());
    } else if opts.verbose {
        eprintln!("loaded {} PGO profile(s) from {}", set.len(), dir.display());
    }
    let skipped = set.skipped(opts.scale);
    if skipped > 0 {
        eprintln!(
            "warning: skipped {skipped} of {} PGO profile(s) in {}: recorded at a scale other \
             than {}",
            set.len(),
            dir.display(),
            opts.scale.id()
        );
    }
    Ok(set)
}

/// Measurement rounds under `ab` and `pgo`: each gives every cell one
/// pair ratio per step, and six is the fewest with a 95% interval.
const PAIRS: usize = 6;

/// A summary's 95% interval, or `n/a` under six pairs.
fn interval(s: &Summary) -> String {
    s.interval.map_or_else(|| "n/a".into(), |(lo, hi)| format!("[{lo:.3}x, {hi:.3}x]"))
}

/// `repro ab [CELL]`: the execution ladder and the leave-one-out set
/// ([`ab::ladder`]) over the named cells, in one serial pass.
fn ab_ladder(opts: &Opts, spec: &str) -> Result<(), String> {
    let dir = opts.pgo_dir.clone().unwrap_or_else(|| PathBuf::from("pgo-artifacts"));
    // Without profiles in the default directory +pgo is skipped; a named
    // directory must load.
    let load = opts.pgo_dir.is_some() || dir.is_dir();
    let profiles = if load { load_profiles(opts, &dir)? } else { PgoSet::default() };
    let cells: Vec<Cell> = parse_cells(spec, "ab", "'*/*/typed'")?
        .into_iter()
        .map(|c| {
            let profile = profiles.profile(c.workload.name, opts.scale, c.engine, c.level);
            Cell { profile: profile.map(Arc::new), ..c }
        })
        .collect();
    let (configs, steps) = ab::ladder();
    let runs = ab::measure(&cells, opts.scale, &configs, PAIRS, opts.step_budget, opts.verbose)?;
    let (scale, dir) = (opts.scale.id(), dir.display());
    println!(
        "{} cell(s) at scale {scale}, {PAIRS} rounds, each over every cell; every config of a \
         cell retired the same counters, branch statistics and output",
        cells.len()
    );
    println!("pair ratio: run time of the first config / run time of the second (above 1: faster)");
    println!("{:<28} {:>6} {:>8}  95% interval", "step", "pairs", "median");
    for step in &steps {
        let row = match Summary::pooled(&runs, step) {
            Some(s) => format!("{:>6} {:>7.3}x  {}", s.pairs, s.median, interval(&s)),
            None => format!("skipped: no cell has a profile recorded at scale {scale} in {dir}"),
        };
        println!("{:<28} {row}", step.label);
    }
    if !opts.verbose {
        return Ok(());
    }
    // Per cell, each step's median, named by the step's second config.
    let names: String = steps.iter().map(|s| format!(" {:>13}", configs[s.other].name)).collect();
    for run in &runs {
        let medians = steps.iter().map(|step| match Summary::of(run.ratios(step)) {
            Some(s) => format!(" {:>12.3}x", s.median),
            None => format!(" {:>13}", "-"),
        });
        eprintln!("{:<30}{names}\n{:<30}{}", "cell", run.cell.label(), medians.collect::<String>());
        print_block_stats(run, &configs);
    }
    Ok(())
}

/// Each config's block statistics after its last run on the cell (`-v`).
fn print_block_stats(run: &CellRun, configs: &[Config]) {
    for (config, stats) in configs.iter().zip(&run.blocks) {
        if let Some(stats) = stats {
            eprintln!("{} ({}): {stats:?}", run.cell.label(), config.name);
        }
    }
}

/// Renders the per-cell and aggregate host-throughput diff of `current`
/// against `baseline`, read from `path`, and applies the `--min-ratio`
/// regression gate when one was requested.
fn compare_against(
    path: &Path,
    baseline: &BenchArtifact,
    current: &BenchArtifact,
    min_ratio: Option<f64>,
) -> Result<(), String> {
    let cmp = tarch_runner::compare(baseline, current);
    println!("\ncomparison against {}:", path.display());
    println!(
        "{:<16} {:<6} {:<13} {:>8} {:>11} {:>10} {:>10} {:>7}",
        "workload", "engine", "level", "tier", "deopts", "base MIPS", "cur MIPS", "ratio"
    );
    for c in &cmp.cells {
        // The per-job `tier` flag each artifact recorded: `on` for
        // every run since every block compiles when it is built, `off`
        // only in an older artifact that ran with tier-3 compilation
        // off. The deopt column gives context for PGO A/B runs: a ratio
        // below 1.0 next to a deopt jump points at a stale profile.
        let tier = |t: bool| if t { "on" } else { "off" };
        println!(
            "{:<16} {:<6} {:<13} {:>8} {:>11} {:>10.1} {:>10.1} {:>6.2}x",
            c.workload,
            c.engine,
            c.level,
            format!("{}->{}", tier(c.base_tier), tier(c.cur_tier)),
            format!("{}->{}", c.base_deopts, c.cur_deopts),
            c.base_mips,
            c.cur_mips,
            c.ratio(),
        );
    }
    for name in &cmp.only_base {
        println!("only in baseline: {name}");
    }
    for name in &cmp.only_current {
        println!("only in current run: {name}");
    }
    println!(
        "aggregate: {:.1} -> {:.1} MIPS ({:.2}x)",
        cmp.base_aggregate,
        cmp.cur_aggregate,
        cmp.aggregate_ratio(),
    );
    if let (Some(b), Some(c)) = (&cmp.base_percentiles, &cmp.cur_percentiles) {
        println!(
            "per-cell MIPS: base p50 {:.1} p95 {:.1} p99 {:.1} | \
             current p50 {:.1} p95 {:.1} p99 {:.1}",
            b.p50, b.p95, b.p99, c.p50, c.p95, c.p99,
        );
    }
    if let Some(min) = min_ratio {
        if !cmp.passes(min) {
            return Err(format!(
                "host throughput regression: aggregate {:.1} MIPS is below {min} x baseline \
                 {:.1} MIPS (ratio {:.2})",
                cmp.cur_aggregate,
                cmp.base_aggregate,
                cmp.aggregate_ratio(),
            ));
        }
        println!("throughput gate: ratio {:.2} >= {min} (ok)", cmp.aggregate_ratio());
    }
    Ok(())
}

/// Quick end-to-end check of the parallel pipeline: a 2-workload matrix
/// at test scale, profiled, on multiple workers, rendered through the
/// figure code. Used by CI; finishes in seconds.
fn selftest(opts: &Opts) -> Result<(), String> {
    let ws: Vec<_> = ["fibo", "n-sieve"]
        .iter()
        .map(|n| workloads::by_name(n).expect("known workload"))
        .collect();
    let workers = if opts.jobs == 0 { 4 } else { opts.jobs };
    let mopts = MatrixOptions {
        workers,
        // Always simulate: the selftest must exercise the engines, not
        // the cache.
        cache_dir: None,
        step_budget: opts.step_budget,
        profiled: true,
        progress: opts.verbose,
        ..MatrixOptions::default()
    };
    let run = Matrix::run_with(&ws, Scale::Test, &mopts)?;
    // engines × levels cells per workload, plus one profiled Typed-level
    // cell per workload × engine (whose run also stands for the plain
    // Typed cell).
    let n_engines = EngineKind::ALL.len();
    let expected = ws.len() * n_engines * 3 + ws.len() * n_engines;
    if run.outcomes.len() != expected {
        return Err(format!("selftest: expected {expected} outcomes, got {}", run.outcomes.len()));
    }
    let f5 = figures::fig5(&run.matrix)?;
    let f9 = figures::fig9(&run.matrix)?;
    if !f5.contains("geomean") || !f9.contains("hits/bc") {
        return Err("selftest: figure output malformed".to_string());
    }
    eprintln!("{}", run.stats.summary());
    println!(
        "selftest ok: {} cells from {} jobs on {} workers, figures render",
        run.outcomes.len(),
        run.stats.jobs,
        workers
    );
    Ok(())
}
