//! Block-engine effectiveness stats and in-process A/B timing for one
//! workload cell — or the whole matrix.
//!
//! The default `repro bench` cells run for tens of milliseconds each, so
//! process-level wall-clock noise swamps engine-level effects on a busy
//! box. This probe runs cells repeatedly in a single process, alternating
//! fusion+chaining on and off, and reports per-config medians plus the
//! block-table statistics for the fast config (chained-transfer fraction,
//! revalidation count, average retired block length).
//!
//! Usage:
//!   `cargo run --release -p tarch-bench --example blockprobe \
//!      [workload] [lua|js|wasm] [reps]`  one cell at the Typed level
//!   `cargo run --release -p tarch-bench --example blockprobe \
//!      --all [reps]`                     every (workload, engine, level)
//!                                        cell; per-cell median ratios and
//!                                        the aggregate-MIPS ratio

use std::time::Instant;

use tarch_bench::workloads;
use tarch_core::{BlockStats, CoreConfig, IsaLevel, PerfCounters};
use tarch_fleet::build_guest;
use tarch_runner::{EngineKind, Scale};

fn run_cell(
    src: &str,
    engine: EngineKind,
    level: IsaLevel,
    core: CoreConfig,
) -> (f64, PerfCounters, BlockStats) {
    let mut guest = build_guest(engine, src, level, core).expect("compiles");
    let start = Instant::now();
    guest.run(u64::MAX).expect("halts");
    let secs = start.elapsed().as_secs_f64();
    let c = *guest.cpu().counters();
    (c.instructions as f64 / secs / 1e6, c, guest.cpu().block_stats())
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    xs[xs.len() / 2]
}

fn fast() -> CoreConfig {
    CoreConfig::paper()
}

fn slow() -> CoreConfig {
    CoreConfig { fuse: false, chain_blocks: false, ..CoreConfig::paper() }
}

/// In-process A/B over every matrix cell: alternates configs within each
/// cell, takes per-cell median MIPS, and aggregates as total instructions
/// over total median time — the same definition as the artifact's
/// `host_mips`, minus the process-level noise.
fn probe_all(reps: usize) {
    let mut tot_instr = 0u64;
    let mut tot_on = 0.0f64;
    let mut tot_off = 0.0f64;
    println!("{:-38} {:>7} {:>7} {:>7}", "cell", "off", "on", "ratio");
    for w in workloads::all() {
        let src = w.source(Scale::Default);
        for engine in EngineKind::ALL {
            for level in IsaLevel::ALL {
                run_cell(&src, engine, level, fast()); // warm-up
                let mut on = Vec::new();
                let mut off = Vec::new();
                let mut instrs = 0;
                for _ in 0..reps {
                    let (m_on, c_on, _) = run_cell(&src, engine, level, fast());
                    let (m_off, c_off, _) = run_cell(&src, engine, level, slow());
                    assert_eq!(c_on, c_off, "fused/chained counters must match");
                    instrs = c_on.instructions;
                    on.push(m_on);
                    off.push(m_off);
                }
                let (m_on, m_off) = (median(&mut on), median(&mut off));
                println!(
                    "{:-28} {:>4} {:>5} {m_off:7.1} {m_on:7.1} {:7.3}",
                    w.name,
                    engine.id(),
                    level.name(),
                    m_on / m_off
                );
                tot_instr += instrs;
                tot_on += instrs as f64 / (m_on * 1e6);
                tot_off += instrs as f64 / (m_off * 1e6);
            }
        }
    }
    println!(
        "aggregate ({tot_instr} instrs): off {:.1} MIPS, on {:.1} MIPS, ratio {:.3}x",
        tot_instr as f64 / tot_off / 1e6,
        tot_instr as f64 / tot_on / 1e6,
        tot_off / tot_on
    );
}

fn probe_one(name: &str, engine: EngineKind, reps: usize) {
    let w = workloads::by_name(name).expect("known workload");
    let src = w.source(Scale::Default);

    // Warm-up (page faults, first-touch, frequency scaling).
    run_cell(&src, engine, IsaLevel::Typed, fast());
    run_cell(&src, engine, IsaLevel::Typed, slow());

    let mut on = Vec::new();
    let mut off = Vec::new();
    let mut kept: Option<(PerfCounters, BlockStats)> = None;
    for _ in 0..reps {
        let (m_on, c_on, stats) = run_cell(&src, engine, IsaLevel::Typed, fast());
        let (m_off, c_off, _) = run_cell(&src, engine, IsaLevel::Typed, slow());
        assert_eq!(c_on, c_off, "fused/chained counters must match plain blocks");
        kept = Some((c_on, stats));
        on.push(m_on);
        off.push(m_off);
        println!("  on {m_on:7.1} MIPS   off {m_off:7.1} MIPS");
    }
    let (counters, stats) = kept.expect("reps > 0");
    let entries = stats.hits + stats.builds + stats.chained_transfers;
    println!("{name} ({}): {} instrs", engine.id(), counters.instructions);
    println!("{stats:#?}");
    println!(
        "block entries: {entries} (avg len {:.2}), chained {:.1}%",
        counters.instructions as f64 / entries as f64,
        100.0 * stats.chained_transfers as f64 / entries as f64
    );
    let (m_on, m_off) = (median(&mut on), median(&mut off));
    println!("median: on {m_on:.1} MIPS, off {m_off:.1} MIPS, ratio {:.3}x", m_on / m_off);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let first = args.next().unwrap_or_else(|| "k-nucleotide".into());
    if first == "--all" {
        let reps: usize = args.next().map_or(3, |s| s.parse().expect("reps"));
        probe_all(reps);
    } else {
        let engine = args.next().unwrap_or_else(|| "lua".into());
        let engine = EngineKind::parse(&engine)
            .unwrap_or_else(|| panic!("unknown engine `{engine}` (expected lua, js or wasm)"));
        let reps: usize = args.next().map_or(7, |s| s.parse().expect("reps"));
        probe_one(&first, engine, reps);
    }
}
