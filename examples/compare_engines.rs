//! Compare the three scripting engines across the three ISA levels on
//! two representative workloads — the core experiment of the paper in
//! miniature.
//!
//! ```text
//! cargo run --release --example compare_engines
//! ```

use tarch_bench::workloads::{by_name, Scale};
use tarch_core::{CoreConfig, IsaLevel};
use tarch_fleet::build_guest;
use tarch_runner::EngineKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for name in ["fibo", "n-sieve"] {
        let w = by_name(name).expect("known workload");
        let src = w.source(Scale::Default);
        println!("=== {name} (paper input: {}) ===", w.paper_input);
        println!(
            "{:<24} {:>12} {:>12} {:>9} {:>9} {:>9}",
            "engine/level", "instructions", "cycles", "speedup", "type-hit", "chklb"
        );
        for engine in EngineKind::ALL {
            let mut base_cycles = 0u64;
            for level in IsaLevel::ALL {
                let mut guest = build_guest(engine, &src, level, CoreConfig::paper())?;
                let r = guest.run(2_000_000_000)?;
                if level == IsaLevel::Baseline {
                    base_cycles = r.counters.cycles;
                }
                print_row(engine.id(), level, &r.counters, base_cycles);
            }
        }
        println!();
    }
    Ok(())
}

fn print_row(engine: &str, level: IsaLevel, c: &tarch_core::PerfCounters, base: u64) {
    println!(
        "{:<24} {:>12} {:>12} {:>8.1}% {:>9} {:>9}",
        format!("{engine}/{level}"),
        c.instructions,
        c.cycles,
        (base as f64 / c.cycles as f64 - 1.0) * 100.0,
        c.type_hits,
        c.chklb_checks,
    );
}
