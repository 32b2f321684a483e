//! The result of one simulated cell, and its JSON encoding (shared by
//! the on-disk cache and the `BENCH_*.json` artifacts).

use crate::json::{Json, JsonWriter};
use std::collections::BTreeMap;
use tarch_core::trace::{HotPc, MetricWindow, Occupancy, PcMisses, WindowStats};
use tarch_core::{BranchStats, PerfCounters, TraceSummary};

/// How many times a profiled run dispatched each opcode's handler, keyed
/// by opcode name; only opcodes that ran appear. Kept beside the
/// [`CellResult`], not in it (see `ResultCache::load_dispatches`): only
/// Figure 2(a) reads it.
pub type Dispatches = BTreeMap<String, u64>;

/// Result of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Hardware counters.
    pub counters: PerfCounters,
    /// Branch statistics.
    pub branch: BranchStats,
    /// Printed output (checked for cross-config equality).
    pub output: String,
    /// Dynamic bytecode count (only present for profiled runs).
    pub bytecodes: Option<u64>,
    /// Wall-clock nanoseconds of the simulation loop itself (the
    /// engine's `run` call), excluding VM construction and guest
    /// compilation. `0` when unrecorded (legacy cache entries and
    /// artifacts). Host-MIPS figures use this, so they measure simulator
    /// throughput rather than per-cell setup cost.
    pub sim_nanos: u64,
    /// Tier-3 deopts observed during the run (a compiled block exiting
    /// on an invalidation; host-side metric, not an architectural
    /// counter). `0` when unrecorded (pre-PGO cache entries and
    /// artifacts, and engines without tiering). Surfaced by
    /// `repro bench --compare` so PGO-induced deopt regressions are
    /// visible next to the throughput ratio they explain.
    pub tier_deopts: u64,
    /// Observability summary when the cell ran with
    /// `CoreConfig::trace` set: hot-PC histogram, event-ring totals, and
    /// metric windows. `None` for untraced runs (the default) and for
    /// entries/artifacts written before the trace layer existed.
    pub trace: Option<TraceSummary>,
}

impl CellResult {
    /// Branch misses per kilo-instruction.
    pub fn branch_mpki(&self) -> f64 {
        self.counters.per_kilo_instr(self.branch.total_misses())
    }

    /// Writes the JSON encoding, field by field, lossless for every
    /// `u64` counter. `volatile: false` leaves out `sim_nanos`, the
    /// wall-clock measurement, for result fingerprints.
    pub(crate) fn write_json(&self, w: &mut JsonWriter, volatile: bool) {
        w.obj(|o| {
            let c = &self.counters;
            o.key("counters").obj(|o| {
                o.key("cycles").u64(c.cycles);
                o.key("instructions").u64(c.instructions);
                o.key("helper_instructions").u64(c.helper_instructions);
                o.key("helper_cycles").u64(c.helper_cycles);
                o.key("icache_accesses").u64(c.icache_accesses);
                o.key("icache_misses").u64(c.icache_misses);
                o.key("dcache_accesses").u64(c.dcache_accesses);
                o.key("dcache_misses").u64(c.dcache_misses);
                o.key("itlb_misses").u64(c.itlb_misses);
                o.key("dtlb_misses").u64(c.dtlb_misses);
                o.key("type_checks").u64(c.type_checks);
                o.key("type_hits").u64(c.type_hits);
                o.key("type_misses").u64(c.type_misses);
                o.key("overflow_misses").u64(c.overflow_misses);
                o.key("chklb_checks").u64(c.chklb_checks);
                o.key("chklb_misses").u64(c.chklb_misses);
                o.key("loads").u64(c.loads);
                o.key("stores").u64(c.stores);
                o.key("tagged_mem").u64(c.tagged_mem);
                o.key("typed_alu").u64(c.typed_alu);
                o.key("fp_ops").u64(c.fp_ops);
                o.key("ecalls").u64(c.ecalls);
            });
            let b = &self.branch;
            o.key("branch").obj(|o| {
                o.key("branches").u64(b.branches);
                o.key("branch_misses").u64(b.branch_misses);
                o.key("jumps").u64(b.jumps);
                o.key("jump_misses").u64(b.jump_misses);
            });
            o.key("output").str(&self.output);
            match self.bytecodes {
                Some(n) => o.key("bytecodes").u64(n),
                None => o.key("bytecodes").null(),
            }
            if volatile {
                o.key("sim_nanos").u64(self.sim_nanos);
            }
            o.key("tier_deopts").u64(self.tier_deopts);
            match &self.trace {
                Some(t) => write_trace(o.key("trace"), t),
                None => o.key("trace").null(),
            }
        });
    }

    /// Decodes the JSON encoding.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<CellResult, String> {
        let c = v.get("counters").ok_or("missing `counters`")?;
        let counters = PerfCounters {
            cycles: c.req_u64("cycles")?,
            instructions: c.req_u64("instructions")?,
            helper_instructions: c.req_u64("helper_instructions")?,
            helper_cycles: c.req_u64("helper_cycles")?,
            icache_accesses: c.req_u64("icache_accesses")?,
            icache_misses: c.req_u64("icache_misses")?,
            dcache_accesses: c.req_u64("dcache_accesses")?,
            dcache_misses: c.req_u64("dcache_misses")?,
            itlb_misses: c.req_u64("itlb_misses")?,
            dtlb_misses: c.req_u64("dtlb_misses")?,
            type_checks: c.req_u64("type_checks")?,
            type_hits: c.req_u64("type_hits")?,
            type_misses: c.req_u64("type_misses")?,
            overflow_misses: c.req_u64("overflow_misses")?,
            chklb_checks: c.req_u64("chklb_checks")?,
            chklb_misses: c.req_u64("chklb_misses")?,
            loads: c.req_u64("loads")?,
            stores: c.req_u64("stores")?,
            tagged_mem: c.req_u64("tagged_mem")?,
            typed_alu: c.req_u64("typed_alu")?,
            fp_ops: c.req_u64("fp_ops")?,
            ecalls: c.req_u64("ecalls")?,
        };
        let b = v.get("branch").ok_or("missing `branch`")?;
        let branch = BranchStats {
            branches: b.req_u64("branches")?,
            branch_misses: b.req_u64("branch_misses")?,
            jumps: b.req_u64("jumps")?,
            jump_misses: b.req_u64("jump_misses")?,
        };
        let output = v.req_str("output")?.to_string();
        let bytecodes = match v.get("bytecodes") {
            None | Some(Json::Null) => None,
            Some(n) => Some(n.as_u64().ok_or("non-integer `bytecodes`")?),
        };
        // Absent in pre-sim_nanos cache entries/artifacts; report zero.
        let sim_nanos = v.get("sim_nanos").and_then(Json::as_u64).unwrap_or(0);
        // Same tolerance for the tier-deopt count (added alongside PGO).
        let tier_deopts = v.get("tier_deopts").and_then(Json::as_u64).unwrap_or(0);
        // Absent in pre-trace entries/artifacts and untraced runs.
        let trace = match v.get("trace") {
            None | Some(Json::Null) => None,
            Some(t) => Some(trace_from_json(t)?),
        };
        Ok(CellResult { counters, branch, output, bytecodes, sim_nanos, tier_deopts, trace })
    }
}

/// Writes a [`TraceSummary`] (lossless; every field is a `u64`).
fn write_trace(w: &mut JsonWriter, t: &TraceSummary) {
    w.obj(|o| {
        o.key("sample_period").u64(t.sample_period);
        o.key("total_samples").u64(t.total_samples);
        o.key("events_recorded").u64(t.events_recorded);
        o.key("events_dropped").u64(t.events_dropped);
        o.key("hot_pcs").arr(|a| {
            for h in &t.hot_pcs {
                a.item().obj(|o| {
                    o.key("pc").u64(h.pc);
                    o.key("samples").u64(h.samples);
                    o.key("icache_misses").u64(h.misses.icache);
                    o.key("dcache_misses").u64(h.misses.dcache);
                    o.key("itlb_misses").u64(h.misses.itlb);
                    o.key("dtlb_misses").u64(h.misses.dtlb);
                });
            }
        });
        o.key("windows").arr(|a| {
            for win in &t.windows {
                let s = &win.stats;
                let c = &win.occupancy;
                a.item().obj(|o| {
                    o.key("start").u64(win.start);
                    o.key("end").u64(win.end);
                    o.key("cycles").u64(s.cycles);
                    o.key("instructions").u64(s.instructions);
                    o.key("icache_accesses").u64(s.icache_accesses);
                    o.key("icache_misses").u64(s.icache_misses);
                    o.key("dcache_accesses").u64(s.dcache_accesses);
                    o.key("dcache_misses").u64(s.dcache_misses);
                    o.key("itlb_misses").u64(s.itlb_misses);
                    o.key("dtlb_misses").u64(s.dtlb_misses);
                    o.key("branches").u64(s.branches);
                    o.key("mispredicts").u64(s.mispredicts);
                    o.key("icache_lines").u64(c.icache_lines);
                    o.key("dcache_lines").u64(c.dcache_lines);
                    o.key("itlb_entries").u64(c.itlb_entries);
                    o.key("dtlb_entries").u64(c.dtlb_entries);
                    o.key("trt_rules").u64(c.trt_rules);
                    o.key("blocks").u64(c.blocks);
                    o.key("compiled").u64(c.compiled);
                });
            }
        });
    });
}

/// Decodes [`write_trace`] output.
fn trace_from_json(v: &Json) -> Result<TraceSummary, String> {
    let hot_pcs = v
        .get("hot_pcs")
        .and_then(Json::as_arr)
        .ok_or("missing `trace.hot_pcs`")?
        .iter()
        .map(|h| {
            Ok(HotPc {
                pc: h.req_u64("pc")?,
                samples: h.req_u64("samples")?,
                misses: PcMisses {
                    icache: h.req_u64("icache_misses")?,
                    dcache: h.req_u64("dcache_misses")?,
                    itlb: h.req_u64("itlb_misses")?,
                    dtlb: h.req_u64("dtlb_misses")?,
                },
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let windows = v
        .get("windows")
        .and_then(Json::as_arr)
        .ok_or("missing `trace.windows`")?
        .iter()
        .map(|w| {
            Ok(MetricWindow {
                start: w.req_u64("start")?,
                end: w.req_u64("end")?,
                stats: WindowStats {
                    cycles: w.req_u64("cycles")?,
                    instructions: w.req_u64("instructions")?,
                    icache_accesses: w.req_u64("icache_accesses")?,
                    icache_misses: w.req_u64("icache_misses")?,
                    dcache_accesses: w.req_u64("dcache_accesses")?,
                    dcache_misses: w.req_u64("dcache_misses")?,
                    itlb_misses: w.req_u64("itlb_misses")?,
                    dtlb_misses: w.req_u64("dtlb_misses")?,
                    branches: w.req_u64("branches")?,
                    mispredicts: w.req_u64("mispredicts")?,
                },
                occupancy: Occupancy {
                    icache_lines: w.req_u64("icache_lines")?,
                    dcache_lines: w.req_u64("dcache_lines")?,
                    itlb_entries: w.req_u64("itlb_entries")?,
                    dtlb_entries: w.req_u64("dtlb_entries")?,
                    trt_rules: w.req_u64("trt_rules")?,
                    blocks: w.req_u64("blocks")?,
                    compiled: w.req_u64("compiled")?,
                },
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(TraceSummary {
        sample_period: v.req_u64("sample_period")?,
        total_samples: v.req_u64("total_samples")?,
        hot_pcs,
        events_recorded: v.req_u64("events_recorded")?,
        events_dropped: v.req_u64("events_dropped")?,
        windows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample(seed: u64) -> CellResult {
        let counters = PerfCounters {
            cycles: 1000 + seed,
            instructions: 700 + seed,
            type_checks: 10,
            type_hits: 9,
            ..PerfCounters::default()
        };
        CellResult {
            counters,
            branch: BranchStats {
                branches: 100,
                branch_misses: 7,
                jumps: 20,
                jump_misses: seed,
            },
            output: format!("line one\nweird \"chars\" \t{seed}\n"),
            bytecodes: if seed.is_multiple_of(2) { Some(12345 + seed) } else { None },
            sim_nanos: seed * 1_000_000,
            tier_deopts: seed % 7,
            trace: if seed.is_multiple_of(2) {
                None
            } else {
                Some(TraceSummary {
                    sample_period: 1000,
                    total_samples: 40 + seed,
                    hot_pcs: vec![HotPc {
                        pc: 0x1000 + seed,
                        samples: 40 + seed,
                        misses: PcMisses { icache: 1, dcache: 2, itlb: 0, dtlb: seed },
                    }],
                    events_recorded: 9,
                    events_dropped: 3,
                    windows: vec![MetricWindow {
                        start: 0,
                        end: 500_000,
                        stats: WindowStats {
                            cycles: 500_000,
                            instructions: 400_000,
                            icache_misses: 12,
                            ..WindowStats::default()
                        },
                        occupancy: Occupancy {
                            icache_lines: 200,
                            trt_rules: 8,
                            ..Occupancy::default()
                        },
                    }],
                })
            },
        }
    }

    fn text(r: &CellResult) -> String {
        JsonWriter::print(|w| r.write_json(w, true))
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        for seed in 0..4 {
            let r = sample(seed);
            let text = text(&r);
            let back = CellResult::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn missing_field_is_an_error_not_a_default() {
        let text = text(&sample(0));
        let mut json = Json::parse(&text).unwrap();
        if let Json::Obj(fields) = &mut json {
            if let Json::Obj(counters) = &mut fields[0].1 {
                counters.retain(|(k, _)| k != "cycles");
            }
        }
        let err = CellResult::from_json(&json).unwrap_err();
        assert!(err.contains("cycles"), "{err}");
    }

    #[test]
    fn branch_mpki_matches_counters() {
        let r = sample(3);
        let expect = (7 + 3) as f64 * 1000.0 / r.counters.instructions as f64;
        assert!((r.branch_mpki() - expect).abs() < 1e-12);
    }
}
