//! Core configuration: structural parameters and operation latencies.

use crate::pgo::PgoProfile;
use std::sync::Arc;
use tarch_mem::{CacheConfig, DramConfig};
use tarch_trace::TraceConfig;

/// Which ISA variant the *software* is compiled for.
///
/// All three run on the same core model; the level selects which extension
/// instructions the scripting-engine code generators emit (Section 4 of the
/// paper) and labels results in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IsaLevel {
    /// Software type guards only (Figure 1(c) style code).
    Baseline,
    /// Checked Load (Anderson et al.): `settype` + `chklb` fused
    /// load-compare-branch; fast-path type fixed at build time.
    CheckedLoad,
    /// The paper's Typed Architecture extension: `tld`/`tsd`, polymorphic
    /// `xadd`/`xsub`/`xmul`, `tchk` and friends.
    Typed,
}

impl IsaLevel {
    /// All levels, in comparison order used by the evaluation figures.
    pub const ALL: [IsaLevel; 3] = [IsaLevel::Baseline, IsaLevel::CheckedLoad, IsaLevel::Typed];

    /// Short display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            IsaLevel::Baseline => "baseline",
            IsaLevel::CheckedLoad => "checked-load",
            IsaLevel::Typed => "typed",
        }
    }

    /// Parses a [`IsaLevel::name`] spelling (used by run artifacts).
    pub fn parse(s: &str) -> Option<IsaLevel> {
        IsaLevel::ALL.into_iter().find(|l| l.name() == s)
    }
}

impl std::fmt::Display for IsaLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Branch prediction structures (paper Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchConfig {
    /// Number of 2-bit gshare counters.
    pub gshare_entries: usize,
    /// Global history length in bits.
    pub history_bits: u32,
    /// Fully-associative BTB entries.
    pub btb_entries: usize,
    /// Return-address-stack depth.
    pub ras_entries: usize,
    /// Pipeline refill penalty on a mispredicted branch, in cycles.
    pub miss_penalty: u64,
}

impl BranchConfig {
    /// The paper's predictor: 32 B gshare (128 2-bit entries), 62-entry
    /// fully-associative BTB, 2-entry RAS, 2-cycle miss penalty.
    pub fn paper() -> BranchConfig {
        BranchConfig {
            gshare_entries: 128,
            history_bits: 7,
            btb_entries: 62,
            ras_entries: 2,
            miss_penalty: 2,
        }
    }
}

/// Per-operation latencies of the in-order pipeline, in cycles.
///
/// These model a Rocket-class single-issue core: full forwarding (1-cycle
/// ALU), a 1-cycle load-use bubble, a pipelined multiplier/FPU and blocking
/// dividers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Result latency of a pipelined multiply.
    pub mul: u64,
    /// Occupancy of the blocking integer divider.
    pub div: u64,
    /// Result latency of pipelined FP add/sub/mul and comparisons.
    pub fp: u64,
    /// Occupancy of the blocking FP divider / square root.
    pub fp_div: u64,
    /// Result latency of FP converts and moves.
    pub fp_mv: u64,
    /// Extra cycles before a loaded value can be consumed (load-use bubble).
    pub load_use: u64,
    /// TLB refill (page walk) penalty.
    pub tlb_miss: u64,
    /// Redirect penalty on a type misprediction (TRT miss, overflow, or
    /// `chklb` mismatch); the pipeline flush is the same as a branch miss.
    pub type_miss_penalty: u64,
}

impl LatencyConfig {
    /// Rocket-class defaults matching the paper's evaluation platform.
    pub fn paper() -> LatencyConfig {
        LatencyConfig {
            mul: 4,
            div: 33,
            fp: 4,
            fp_div: 20,
            fp_mv: 2,
            load_use: 1,
            tlb_miss: 30,
            type_miss_penalty: 2,
        }
    }
}

/// Full structural configuration of the simulated core (paper Table 6).
///
/// Not `Copy`: the optional [`CoreConfig::pgo`] profile is shared by
/// `Arc`, so clones are cheap but must be explicit.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Branch prediction structures.
    pub branch: BranchConfig,
    /// L1 instruction cache geometry.
    pub icache: CacheConfig,
    /// L1 data cache geometry.
    pub dcache: CacheConfig,
    /// Instruction TLB entries.
    pub itlb_entries: usize,
    /// Data TLB entries.
    pub dtlb_entries: usize,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Operation latencies.
    pub latency: LatencyConfig,
    /// Type Rule Table capacity (the paper synthesises 8 entries).
    pub trt_entries: usize,
    /// Has no effect: the core keeps no predecoded copy of the text, and
    /// a word is decoded where it is fetched (once per block build, or
    /// per step on the stepwise path). Kept, `true` in
    /// [`CoreConfig::paper`], because the runner's job key hashes this
    /// struct's `Debug` text and cached results must keep their keys.
    pub predecode: bool,
    /// Execute straight-line runs through the basic-block engine
    /// (host-side fast path; simulated counters are identical either way).
    pub blocks: bool,
    /// Has no effect: every block entry probes the block table. Kept,
    /// `true` in [`CoreConfig::paper`], for the same job-key reason as
    /// [`CoreConfig::predecode`].
    pub chain_blocks: bool,
    /// Fuse common adjacent instruction pairs into superinstructions at
    /// block-build time (host-side fast path; the fused handlers apply
    /// both instructions' architectural charges exactly, so simulated
    /// counters are identical either way). Only meaningful with `blocks`.
    pub fuse: bool,
    /// Memoize the last-hit cache line / TLB page so same-line repeat
    /// accesses skip the way/entry scan (host-side fast path; simulated
    /// counters are identical either way).
    pub mem_fast_paths: bool,
    /// Has no effect: the block engine compiles every block when it
    /// builds it, and runs nothing else. Kept, `true` in
    /// [`CoreConfig::paper`], for the same job-key reason as
    /// [`CoreConfig::predecode`]; the run artifact still records it per
    /// job.
    pub tier: bool,
    /// Has no effect (see [`CoreConfig::tier`]). Kept, 16 in
    /// [`CoreConfig::paper`], for the same job-key reason as
    /// [`CoreConfig::predecode`].
    pub tier_threshold: u32,
    /// Observability: `Some` attaches a `tarch_trace::Tracer` to the
    /// core — simulated-time PC sampling, a structured event ring, and
    /// windowed metric snapshots. `None` (the default) allocates
    /// nothing; every hook is a single predictable branch and the
    /// architectural counters are bit-identical either way (pinned by
    /// `tests/predecode_equiv.rs`). Participates in the runner's job
    /// key like every other field, so traced and untraced runs never
    /// share a cache entry.
    pub trace: Option<TraceConfig>,
    /// Profile-guided optimization: `Some` feeds a recorded
    /// [`PgoProfile`] back into the engine, which forms superblocks
    /// across its measured hot edges. That is host-side only; simulated
    /// counters are bit-identical with any profile loaded, stale or
    /// empty included (pinned by `tests/predecode_equiv.rs`).
    /// Participates in the runner's job key like every other field, so
    /// differently-profiled runs never share a cache entry. Only
    /// meaningful with `blocks`.
    pub pgo: Option<Arc<PgoProfile>>,
}

impl CoreConfig {
    /// The paper's evaluated configuration (Table 6).
    pub fn paper() -> CoreConfig {
        CoreConfig {
            branch: BranchConfig::paper(),
            icache: CacheConfig::paper_l1(),
            dcache: CacheConfig::paper_l1(),
            itlb_entries: 8,
            dtlb_entries: 8,
            dram: DramConfig::paper(),
            latency: LatencyConfig::paper(),
            trt_entries: 8,
            predecode: true,
            blocks: true,
            chain_blocks: true,
            fuse: true,
            mem_fast_paths: true,
            tier: true,
            tier_threshold: 16,
            trace: None,
            pgo: None,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_match_table6() {
        let c = CoreConfig::paper();
        assert_eq!(c.branch.gshare_entries, 128);
        assert_eq!(c.branch.btb_entries, 62);
        assert_eq!(c.branch.ras_entries, 2);
        assert_eq!(c.branch.miss_penalty, 2);
        assert_eq!(c.icache.size_bytes, 16 * 1024);
        assert_eq!(c.icache.ways, 4);
        assert_eq!(c.icache.line_bytes, 64);
        assert_eq!(c.itlb_entries, 8);
        assert_eq!(c.trt_entries, 8);
    }

    #[test]
    fn isa_level_ordering() {
        assert!(IsaLevel::Baseline < IsaLevel::CheckedLoad);
        assert!(IsaLevel::CheckedLoad < IsaLevel::Typed);
        assert_eq!(IsaLevel::Typed.to_string(), "typed");
    }
}
