//! Golden JSON bytes: every document the runner writes must stay
//! byte-identical unless a change means to move it.
//!
//! Cache entries, `BENCH_*.json`, fleet and PGO artifacts are read back by
//! later runs and compared across commits by their fingerprints, so a
//! writer that moved one byte would orphan every existing cache and make
//! every recorded fingerprint disagree. The documents below are built
//! from fixed inputs with every field set directly (no clock is read) and
//! cover what real cells do not: a traced cell with hot PCs and windows,
//! `bytecodes` present and absent, `tier` and `cached` both ways, zero and
//! fractional throughputs, the escaped and multi-byte characters of an
//! output string, and a `u64::MAX` counter. Each digest is FNV-1a 64 over
//! the bytes a `write` put on disk, or over a fingerprint string.

use std::path::PathBuf;
use tarch_core::trace::{HotPc, MetricWindow, Occupancy, PcMisses, WindowStats};
use tarch_core::{BranchStats, CoreConfig, IsaLevel, PerfCounters, TraceSummary};
use tarch_runner::{
    BenchArtifact, CellResult, EngineKind, FleetArtifact, JobKey, JobOutcome, JobSpec, Percentiles,
    PgoArtifact, PgoCell, ResultCache, Scale, ShardSummary,
};

fn fnv64(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tarch-json-digests-{}-{tag}", std::process::id()))
}

/// The bytes `write` puts at a fresh temporary path.
fn written(tag: &str, write: impl FnOnce(&std::path::Path) -> Result<(), String>) -> String {
    let path = temp(tag);
    write(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    fnv64(&bytes)
}

fn traced_cell() -> CellResult {
    CellResult {
        counters: PerfCounters {
            cycles: u64::MAX,
            instructions: 7_654_321,
            helper_instructions: 12_345,
            helper_cycles: 23_456,
            icache_accesses: 7_000_000,
            icache_misses: 321,
            dcache_accesses: 2_000_000,
            dcache_misses: 4_567,
            itlb_misses: 8,
            dtlb_misses: 9,
            type_checks: 100_000,
            type_hits: 99_000,
            type_misses: 1_000,
            overflow_misses: 2,
            chklb_checks: 50_000,
            chklb_misses: 17,
            loads: 1_500_000,
            stores: 600_000,
            tagged_mem: 400_000,
            typed_alu: 300_000,
            fp_ops: 0,
            ecalls: 42,
        },
        branch: BranchStats {
            branches: 900_000,
            branch_misses: 12_000,
            jumps: 80_000,
            jump_misses: 700,
        },
        output: "quote \" backslash \\ newline \n tab \t ctrl \u{1} é 😀\n".into(),
        bytecodes: Some(123_456_789),
        sim_nanos: 987_654_321,
        tier_deopts: 3,
        trace: Some(TraceSummary {
            sample_period: 500,
            total_samples: 15_308,
            hot_pcs: vec![
                HotPc {
                    pc: 0x1_0040,
                    samples: 9_000,
                    misses: PcMisses { icache: 4, dcache: 70, itlb: 1, dtlb: 2 },
                },
                HotPc { pc: 0x1_0100, samples: 6_308, misses: PcMisses::default() },
            ],
            events_recorded: 77,
            events_dropped: 5,
            windows: vec![
                MetricWindow {
                    start: 0,
                    end: 500_000,
                    stats: WindowStats {
                        cycles: 500_000,
                        instructions: 410_000,
                        icache_accesses: 410_000,
                        icache_misses: 300,
                        dcache_accesses: 120_000,
                        dcache_misses: 2_000,
                        itlb_misses: 6,
                        dtlb_misses: 7,
                        branches: 50_000,
                        mispredicts: 600,
                    },
                    occupancy: Occupancy {
                        icache_lines: 200,
                        dcache_lines: 300,
                        itlb_entries: 8,
                        dtlb_entries: 16,
                        trt_rules: 8,
                        blocks: 120,
                        compiled: 30,
                    },
                },
                MetricWindow {
                    start: 500_000,
                    end: 600_000,
                    stats: WindowStats::default(),
                    occupancy: Occupancy::default(),
                },
            ],
        }),
    }
}

fn plain_cell(instructions: u64, sim_nanos: u64) -> CellResult {
    CellResult {
        counters: PerfCounters {
            cycles: 2 * instructions,
            instructions,
            ..PerfCounters::default()
        },
        branch: BranchStats::default(),
        output: "144\n".into(),
        bytecodes: None,
        sim_nanos,
        tier_deopts: 0,
        trace: None,
    }
}

fn spec(
    workload: &str,
    engine: EngineKind,
    level: IsaLevel,
    profiled: bool,
    tier: bool,
    key: JobKey,
) -> JobSpec {
    JobSpec {
        workload: workload.into(),
        engine,
        level,
        scale: Scale::Test,
        profiled,
        source: String::new(),
        core: CoreConfig { tier, ..CoreConfig::paper() },
        key,
    }
}

fn outcomes() -> Vec<JobOutcome> {
    vec![
        // Traced and profiled; host MIPS from `sim_nanos`, fractional.
        JobOutcome {
            spec: spec(
                "fibo",
                EngineKind::Lua,
                IsaLevel::Typed,
                true,
                true,
                JobKey(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210),
            ),
            result: traced_cell(),
            cached: false,
            wall_nanos: 1_234_567,
        },
        // A cache hit: host MIPS 0.
        JobOutcome {
            spec: spec(
                "n-sieve",
                EngineKind::Js,
                IsaLevel::CheckedLoad,
                false,
                false,
                JobKey(1, u64::MAX),
            ),
            result: plain_cell(1_000, 0),
            cached: true,
            wall_nanos: 4_321,
        },
        // No `sim_nanos`: host MIPS from the wall time, 333.33….
        JobOutcome {
            spec: spec(
                "k-nucleotide",
                EngineKind::Wasm,
                IsaLevel::Baseline,
                false,
                true,
                JobKey(0, 0),
            ),
            result: plain_cell(1_000, 0),
            cached: false,
            wall_nanos: 3_000,
        },
    ]
}

fn bench_artifact() -> BenchArtifact {
    BenchArtifact {
        created_unix: 1_700_000_000,
        scale: Scale::Test,
        step_budget: 20_000_000_000,
        host_mips: 57.123_456_789,
        outcomes: outcomes(),
    }
}

fn fleet_artifact() -> FleetArtifact {
    FleetArtifact {
        created_unix: 1_700_000_001,
        workload: "fibo".into(),
        engine: "lua".into(),
        level: "typed".into(),
        scale: "test".into(),
        seed: 42,
        tenants: 64,
        budget_cycles: 1_000_000,
        slice_steps: 10_000,
        ctxsw_cycles: 200,
        completed: 60,
        evicted: 4,
        shards: vec![
            ShardSummary {
                shard: 0,
                tenants: 32,
                completed: 30,
                instructions: 5_000,
                cycles: 9_000,
            },
            ShardSummary { shard: 1, tenants: 32, completed: 30, instructions: 5_500, cycles: 0 },
        ],
        latency: Some(Percentiles { p50: 4_000.5, p95: 8_000.25, p99: 9_000.0 }),
        construct_nanos: 800_001,
        clone_nanos: 20_000,
        wall_nanos: 123_456_789,
    }
}

fn pgo_artifact() -> PgoArtifact {
    PgoArtifact {
        workload: "fibo".into(),
        scale: Scale::Test,
        step_budget: 100_000,
        cells: vec![
            PgoCell { engine: EngineKind::Js, level: IsaLevel::Baseline, edges: vec![] },
            // A cell's counts must sum within `u64` to be read back.
            PgoCell {
                engine: EngineKind::Js,
                level: IsaLevel::Typed,
                edges: vec![(0x200, 0x240, u64::MAX)],
            },
            PgoCell {
                engine: EngineKind::Lua,
                level: IsaLevel::Typed,
                edges: vec![(0x100, 0x104, 1), (0x100, 0x140, 199)],
            },
        ],
    }
}

#[test]
fn bench_artifact_bytes_are_unchanged() {
    let a = bench_artifact();
    assert_eq!(written("bench.json", |p| a.write(p)), "44b57fec2cdf6eac");
    assert_eq!(fnv64(a.fingerprint().as_bytes()), "1e1e11a06687c6a2");
    // A zero aggregate throughput, a lone cached job, another scale.
    let b = BenchArtifact {
        scale: Scale::Default,
        host_mips: 0.0,
        outcomes: outcomes().into_iter().skip(1).take(1).collect(),
        ..bench_artifact()
    };
    assert_eq!(written("bench-zero.json", |p| b.write(p)), "2ad3bac8a83c5be2");
}

#[test]
fn cache_entry_bytes_are_unchanged() {
    let dir = temp("cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).unwrap();
    let key = JobKey(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
    cache.store(&key, &traced_cell()).unwrap();
    let bytes = std::fs::read(dir.join(format!("{}.json", key.hex()))).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(fnv64(&bytes), "112b4c1a3c6df051");
}

#[test]
fn fleet_artifact_bytes_are_unchanged() {
    let a = fleet_artifact();
    assert_eq!(written("fleet.json", |p| a.write(p)), "635fb4980931e86b");
    assert_eq!(fnv64(a.fingerprint().as_bytes()), "dbb2d746fd691ad6");
}

#[test]
fn pgo_artifact_bytes_are_unchanged() {
    let a = pgo_artifact();
    assert_eq!(written("pgo.json", |p| a.write(p)), "607aef3c4fb036e8");
}
