//! `CoreConfig::{predecode, chain_blocks, tier, tier_threshold}` have no
//! effect.
//!
//! The core keeps no predecoded copy of the text, enters every block
//! through the block table, and compiles every block when it builds it,
//! so none of these fields changes anything the core does. They stay in
//! `CoreConfig` only because the runner's job key hashes its `Debug`
//! text. This test runs one Typed cell per engine with all four fields
//! changed and with the shipping config, and demands the same simulated
//! counters, branch statistics and output, and the same host-side block
//! statistics: no block may be entered, built or compiled any other way.

use tarch_bench::workloads::{self, Scale};
use tarch_core::{CoreConfig, IsaLevel};
use tarch_fleet::build_guest;
use tarch_runner::EngineKind;

#[test]
fn predecode_and_chain_blocks_change_nothing() {
    let src = workloads::by_name("fibo").expect("known workload").source(Scale::Test);
    let retired = CoreConfig {
        predecode: false,
        chain_blocks: false,
        tier: false,
        tier_threshold: 1,
        ..CoreConfig::paper()
    };
    for engine in EngineKind::ALL {
        let run = |core: CoreConfig| {
            let mut guest = build_guest(engine, &src, IsaLevel::Typed, core).expect("builds");
            let report = guest.run(2_000_000_000).expect("runs to halt");
            (report, guest.cpu().block_stats())
        };
        let (off, off_blocks) = run(retired.clone());
        let (paper, paper_blocks) = run(CoreConfig::paper());
        let tag = engine.id();
        assert_eq!(off.counters, paper.counters, "{tag}: counters");
        assert_eq!(off.branch, paper.branch, "{tag}: branch statistics");
        assert_eq!(off.output, paper.output, "{tag}: output");
        assert_eq!(off_blocks, paper_blocks, "{tag}: block statistics");
        assert!(paper_blocks.hits > 0, "{tag}: the cell must run on the block engine");
        assert_eq!(paper_blocks.chained_transfers, 0, "{tag}: no block is entered by a link");
        assert_eq!(paper_blocks.compiles, paper_blocks.builds, "{tag}: every build compiles");
    }
}
