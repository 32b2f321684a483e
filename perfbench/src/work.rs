//! Exact work counters summed over a workload: the host-side
//! `BlockStats` and `PredecodeStats`, and the simulated `PerfCounters`
//! and branch statistics. They are deterministic, so two runs of one
//! seed must agree on every field.

use crate::report::Report;
use tarch_core::{BlockStats, Cpu, PerfCounters, PredecodeStats};

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    pub runs: u64,
    pub instructions: u64,
    pub cycles: u64,
    pub ecalls: u64,
    pub dcache_misses: u64,
    pub branch_misses: u64,
    pub type_checks: u64,
    pub type_hits: u64,
    pub blocks: BlockStats,
    pub predecode: PredecodeStats,
}

impl Work {
    /// Adds one guest's counters as they stand now.
    pub fn add_cpu(&mut self, cpu: &Cpu) {
        let mut w = Work {
            blocks: cpu.block_stats(),
            predecode: cpu.predecode_stats(),
            ..Work::default()
        };
        w.add_counters(cpu.counters(), cpu.branch_stats().total_misses());
        self.merge(&w);
    }

    pub fn merge(&mut self, w: &Work) {
        self.runs += w.runs;
        self.instructions += w.instructions;
        self.cycles += w.cycles;
        self.ecalls += w.ecalls;
        self.dcache_misses += w.dcache_misses;
        self.branch_misses += w.branch_misses;
        self.type_checks += w.type_checks;
        self.type_hits += w.type_hits;
        let (s, b) = (&mut self.blocks, &w.blocks);
        s.hits += b.hits;
        s.builds += b.builds;
        s.revalidations += b.revalidations;
        s.rebuilds += b.rebuilds;
        s.store_invalidations += b.store_invalidations;
        s.links_formed += b.links_formed;
        s.chained_transfers += b.chained_transfers;
        s.compiles += b.compiles;
        s.tier_deopts += b.tier_deopts;
        s.superblocks += b.superblocks;
        let (s, p) = (&mut self.predecode, &w.predecode);
        s.hits += p.hits;
        s.fills += p.fills;
        s.invalidations += p.invalidations;
        s.revalidations += p.revalidations;
    }

    /// The `work.*` counts.
    pub fn report_counts(&self, r: &mut Report) {
        r.put("work.instructions", self.instructions as f64, "count");
        r.put("work.block_builds", self.blocks.builds as f64, "count");
        r.put("work.block_compiles", self.blocks.compiles as f64, "count");
        r.put(
            "work.chained_transfers",
            self.blocks.chained_transfers as f64,
            "count",
        );
        r.put("work.ecalls", self.ecalls as f64, "count");
    }

    /// Adds the simulated counters of one run (no host-side stats).
    pub fn add_counters(&mut self, c: &PerfCounters, branch_misses: u64) {
        self.runs += 1;
        self.instructions += c.instructions;
        self.cycles += c.cycles;
        self.ecalls += c.ecalls;
        self.dcache_misses += c.dcache_misses;
        self.branch_misses += branch_misses;
        self.type_checks += c.type_checks;
        self.type_hits += c.type_hits;
    }

    /// The simulated part alone (what an untraced pass can see).
    pub fn simulated(&self) -> Work {
        Work {
            blocks: BlockStats::default(),
            predecode: PredecodeStats::default(),
            ..*self
        }
    }

    /// FNV-1a digest of every field, for comparing runs at a glance.
    pub fn digest(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in format!("{self:?}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// The per-layer metrics derived from exact counts.
    pub fn report_layers(&self, r: &mut Report) {
        let per_m = |n: u64| {
            if self.instructions == 0 {
                0.0
            } else {
                n as f64 * 1e6 / self.instructions as f64
            }
        };
        let per_k = |n: u64| per_m(n) / 1000.0;
        let b = &self.blocks;
        let entries = b.hits + b.builds + b.chained_transfers;
        let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        r.put("blocks.builds_per_minstr", per_m(b.builds), "1/Minstr");
        r.put("blocks.compiles_per_minstr", per_m(b.compiles), "1/Minstr");
        r.put(
            "blocks.chain_rate",
            ratio(b.chained_transfers, entries),
            "fraction",
        );
        r.put("blocks.avg_len", ratio(self.instructions, entries), "instr");
        r.put("blocks.tier_deopts", b.tier_deopts as f64, "count");
        r.put("blocks.revalidations", b.revalidations as f64, "count");
        r.put("blocks.rebuilds", b.rebuilds as f64, "count");
        r.put("predecode.fills", self.predecode.fills as f64, "count");
        r.put("predecode.hits", self.predecode.hits as f64, "count");
        r.put("runtime.ecalls_per_minstr", per_m(self.ecalls), "1/Minstr");
        r.put(
            "model.ipc",
            ratio(self.instructions, self.cycles),
            "instr/cycle",
        );
        r.put("model.dcache_mpki", per_k(self.dcache_misses), "1/Kinstr");
        r.put("model.branch_mpki", per_k(self.branch_misses), "1/Kinstr");
        r.put(
            "model.type_hit_rate",
            ratio(self.type_hits, self.type_checks),
            "fraction",
        );
    }
}
