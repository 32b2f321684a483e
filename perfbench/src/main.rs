//! The repository's benchmark: three workloads driven through the public
//! API of the workspace crates, measured end to end (untraced) or layer
//! by layer (traced), with every output checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload scripts --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines above it,
//! each starting with `#`, list every metric of the run with its unit.
//! See `README.md` beside this file for the workloads and metrics.

mod cached;
mod expected;
mod fleet;
mod gen;
mod matrix;
mod report;
mod scripts;
mod stats;
mod trace;
mod vm;
mod work;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: perfbench --workload <fleet|scripts|cached> --seed <n> --seconds <s> --trace <0|1>";

/// What every workload gets: its inputs' seed, how long to measure, the
/// thread budget and a scratch directory inside the checkout.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub workers: usize,
    pub dir: PathBuf,
}

impl Ctx {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Repeats `f` and returns the median wall time in seconds with the
/// last result: set-up is measured several times so one slow repeat
/// does not decide `setup_s`.
pub fn timed_setup<T>(
    repeats: usize,
    mut f: impl FnMut(usize) -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for i in 0..repeats {
        let t = Instant::now();
        let v = f(i)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((
        stats::median(&times),
        last.expect("at least one set-up repeat"),
    ))
}

/// splitmix64: a well-mixed 64-bit value from a seed and a stream index.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn parse_args() -> Result<(String, Ctx), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value}: out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let dir = PathBuf::from(".perfbench-work").join(format!("{workload}-{}", std::process::id()));
    Ok((
        workload,
        Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            traced: traced.ok_or("--trace is required")?,
            workers,
            dir,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Ctx, &mut Report) -> Result<(), String> = match workload.as_str() {
        "fleet" => fleet::run,
        "scripts" => scripts::run,
        "cached" => cached::run,
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.dir) {
        eprintln!("perfbench: create {}: {e}", ctx.dir.display());
        return ExitCode::from(1);
    }
    let mut report = Report::default();
    report.note(format!(
        "workload {workload} seed {} seconds {} trace {} workers {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced),
        ctx.workers
    ));
    trace::set_enabled(false);
    let result = run(&ctx, &mut report);
    let _ = std::fs::remove_dir_all(&ctx.dir);
    if let Some(parent) = ctx.dir.parent() {
        // Only removes the directory once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    match result {
        Ok(()) => {
            report.put("peak_rss_mb", report::peak_rss_mb(), "MiB");
            report.print(ctx.traced);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::from(1)
        }
    }
}
