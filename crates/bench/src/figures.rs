//! Renderers: one function per paper figure/table, producing the same
//! rows/series the paper reports.
//!
//! Every matrix-driven renderer is fallible: a partial matrix (e.g. a
//! truncated or hand-filtered `BENCH_*.json` artifact) produces a clean
//! error naming the missing cell instead of a panic.

use crate::harness::{geomean, CellResult, Dispatches, EngineKind, Matrix, MAX_STEPS};
use std::fmt::Write as _;
use tarch_core::{CoreConfig, IsaLevel};

/// Fallible cell lookup with a figure-quality error message.
fn require<'m>(
    m: &'m Matrix,
    workload: &str,
    engine: EngineKind,
    level: IsaLevel,
) -> Result<&'m CellResult, String> {
    m.try_cell(workload, engine, level).ok_or_else(|| {
        format!(
            "matrix is missing cell {workload}/{engine:?}/{level} \
             (incomplete run or truncated artifact)"
        )
    })
}

/// Figure 5: overall speedups (baseline / Checked Load / Typed), per
/// engine, with geomean.
///
/// # Errors
///
/// Returns a descriptive string if the matrix lacks a needed cell.
pub fn fig5(m: &Matrix) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 5: overall speedups over baseline (higher is better)");
    for engine in EngineKind::ALL {
        let _ = writeln!(out, "\n[{engine}]");
        let _ = writeln!(out, "{:<16} {:>12} {:>12}", "benchmark", "checked-load", "typed");
        let mut cls = Vec::new();
        let mut tys = Vec::new();
        for w in m.workloads() {
            let base = require(m, &w, engine, IsaLevel::Baseline)?.counters.cycles as f64;
            let cl = base / require(m, &w, engine, IsaLevel::CheckedLoad)?.counters.cycles as f64;
            let ty = base / require(m, &w, engine, IsaLevel::Typed)?.counters.cycles as f64;
            cls.push(cl);
            tys.push(ty);
            let _ = writeln!(out, "{w:<16} {:>11.1}% {:>11.1}%", (cl - 1.0) * 100.0, (ty - 1.0) * 100.0);
        }
        let cl = geomean(cls.into_iter());
        let ty = geomean(tys.into_iter());
        let _ = writeln!(out, "{:<16} {:>11.1}% {:>11.1}%", "geomean", (cl - 1.0) * 100.0, (ty - 1.0) * 100.0);
    }
    Ok(out)
}

/// Figure 6: reduction of dynamic instruction count (higher is better).
///
/// # Errors
///
/// Returns a descriptive string if the matrix lacks a needed cell.
pub fn fig6(m: &Matrix) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 6: reduction of dynamic instruction count vs baseline");
    for engine in EngineKind::ALL {
        let _ = writeln!(out, "\n[{engine}]");
        let _ = writeln!(out, "{:<16} {:>12} {:>12}", "benchmark", "checked-load", "typed");
        let mut cls = Vec::new();
        let mut tys = Vec::new();
        for w in m.workloads() {
            let base = require(m, &w, engine, IsaLevel::Baseline)?.counters.instructions as f64;
            let cl =
                1.0 - require(m, &w, engine, IsaLevel::CheckedLoad)?.counters.instructions as f64 / base;
            let ty =
                1.0 - require(m, &w, engine, IsaLevel::Typed)?.counters.instructions as f64 / base;
            cls.push(1.0 - cl);
            tys.push(1.0 - ty);
            let _ = writeln!(out, "{w:<16} {:>11.1}% {:>11.1}%", cl * 100.0, ty * 100.0);
        }
        let cl = 1.0 - geomean(cls.into_iter());
        let ty = 1.0 - geomean(tys.into_iter());
        let _ = writeln!(out, "{:<16} {:>11.1}% {:>11.1}%", "geomean", cl * 100.0, ty * 100.0);
    }
    Ok(out)
}

/// Figure 7: branch miss rates in MPKI (lower is better).
///
/// # Errors
///
/// Returns a descriptive string if the matrix lacks a needed cell.
pub fn fig7(m: &Matrix) -> Result<String, String> {
    per_level_metric(
        m,
        "Figure 7: branch miss rates in misses per kilo-instruction (lower is better)",
        |c| c.branch_mpki(),
    )
}

/// Figure 8: instruction-cache miss rates in MPKI (lower is better).
///
/// # Errors
///
/// Returns a descriptive string if the matrix lacks a needed cell.
pub fn fig8(m: &Matrix) -> Result<String, String> {
    per_level_metric(
        m,
        "Figure 8: I-cache miss rates in misses per kilo-instruction (lower is better)",
        |c| c.counters.icache_mpki(),
    )
}

fn per_level_metric(
    m: &Matrix,
    title: &str,
    f: impl Fn(&CellResult) -> f64,
) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    for engine in EngineKind::ALL {
        let _ = writeln!(out, "\n[{engine}]");
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>13} {:>10}",
            "benchmark", "baseline", "checked-load", "typed"
        );
        for w in m.workloads() {
            let mut vals = Vec::with_capacity(IsaLevel::ALL.len());
            for l in IsaLevel::ALL {
                vals.push(f(require(m, &w, engine, l)?));
            }
            let _ = writeln!(
                out,
                "{w:<16} {:>10.2} {:>13.2} {:>10.2}",
                vals[0], vals[1], vals[2]
            );
        }
    }
    Ok(out)
}

/// Figure 9: type hit/miss rates normalized to dynamic bytecode count
/// (Typed configuration; overflow-triggered misses reported separately, as
/// the paper excludes them from this figure).
///
/// Reads the matrix's *profiled* Typed cells, so the matrix must have been
/// run with profiling enabled (`MatrixOptions::profiled`, which `repro`
/// sets for `fig9` and `all`).
///
/// # Errors
///
/// Returns a descriptive string when profiled cells are absent.
pub fn fig9(m: &Matrix) -> Result<String, String> {
    if !m.has_profiled() {
        return Err(
            "matrix has no profiled cells; run with profiling enabled \
             (repro does this automatically for `fig9` and `all`)"
                .to_string(),
        );
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 9: type hits/misses per dynamic bytecode (typed configuration)"
    );
    for engine in EngineKind::ALL {
        let _ = writeln!(out, "\n[{engine}]");
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>10} {:>10} {:>12}",
            "benchmark", "checks/bc", "hits/bc", "misses/bc", "overflows/bc"
        );
        for w in m.workloads() {
            let cell = m.profiled_cell(&w, engine).ok_or_else(|| {
                format!("matrix is missing profiled cell {w}/{engine:?}")
            })?;
            let bc = cell.bytecodes.unwrap_or(1).max(1) as f64;
            let c = cell.counters;
            let _ = writeln!(
                out,
                "{w:<16} {:>10.3} {:>10.3} {:>10.3} {:>12.4}",
                c.type_checks as f64 / bc,
                c.type_hits as f64 / bc,
                c.type_misses as f64 / bc,
                c.overflow_misses as f64 / bc,
            );
        }
    }
    Ok(out)
}

/// Figure 2(a): breakdown of dynamic bytecodes for the Lua-like engine,
/// from each workload's dispatch counts: the per-handler dispatches of
/// its profiled Lua Typed cell (see [`crate::harness::dispatch_counts`]),
/// the `HALT` that stops the image included. Ties keep `luart::Op::ALL`
/// order.
pub fn fig2a(rows: &[(&str, Dispatches)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 2(a): dynamic bytecode breakdown (Lua-like engine)");
    let _ = writeln!(out, "{:<16} {:>10}  top bytecodes", "benchmark", "dyn bc");
    for (name, counts) in rows {
        let mut ops: Vec<(luart::Op, u64)> =
            luart::Op::ALL.into_iter().filter_map(|op| Some((op, *counts.get(op.name())?))).collect();
        ops.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        let total: u64 = counts.values().sum();
        let mut line = String::new();
        for (op, n) in ops.iter().take(6) {
            let _ = write!(line, "{op} {:.1}%  ", *n as f64 * 100.0 / total as f64);
        }
        let _ = writeln!(out, "{name:<16} {total:>10}  {line}");
    }
    out
}

/// Figure 2(b): native instructions per bytecode for the five hot
/// bytecodes, per operand type pair (measured with type-pair
/// microworkloads on the baseline engine).
///
/// # Errors
///
/// Returns a descriptive string on engine failure.
pub fn fig2b() -> Result<String, String> {
    let cases: [(&str, &str); 5] = [
        ("ADD/SUB/MUL (Int,Int)", "local s = 0 for i = 1, 400 do s = s + i s = s - 1 s = s * 1 end print(s)"),
        ("ADD/SUB/MUL (Flt,Flt)", "local s = 0.5 for i = 1, 400 do s = s + 0.5 s = s - 0.25 s = s * 1.0 end print(s)"),
        ("ADD (Int,Flt) mixed", "local s = 0.5 for i = 1, 400 do s = s + 1 end print(s)"),
        ("GETTABLE/SETTABLE (Tbl,Int)", "local t = {1} local s = 0 for i = 1, 400 do t[1] = i s = s + t[1] end print(s)"),
        ("GETTABLE/SETTABLE (Tbl,Str)", "local t = {} t.k = 0 local s = 0 for i = 1, 400 do t.k = i s = s + t.k end print(s)"),
    ];
    let hot =
        [luart::Op::Add, luart::Op::Sub, luart::Op::Mul, luart::Op::GetTable, luart::Op::SetTable];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2(b): native instructions per hot bytecode, by operand type pair"
    );
    let _ = writeln!(out, "(baseline Lua-like engine; helper-charged instructions included)");
    let _ = writeln!(
        out,
        "\n{:<30} {:>7} {:>7} {:>7} {:>9} {:>9}",
        "type pair", "ADD", "SUB", "MUL", "GETTABLE", "SETTABLE"
    );
    for (label, src) in cases {
        let mut vm =
            luart::LuaVm::from_source(src, IsaLevel::Baseline, CoreConfig::paper())
                .map_err(|e| format!("{label}: {e}"))?;
        let r = vm.run_profiled(MAX_STEPS).map_err(|e| format!("{label}: {e}"))?;
        let profile = r.profile.expect("profiled");
        let mut cols = String::new();
        for op in hot {
            let v = profile.instr_per_bytecode(op);
            if v == 0.0 {
                let _ = write!(cols, "{:>9}", "-");
            } else {
                let _ = write!(cols, "{v:>9.1}");
            }
        }
        let _ = writeln!(out, "{label:<30} {cols}");
    }
    Ok(out)
}

/// Figure 1/3: the bytecode ADD handler, disassembled, baseline vs typed
/// (compare the paper's Figure 1(c) and Figure 3).
///
/// # Errors
///
/// Returns a descriptive string on build failure.
pub fn fig1() -> Result<String, String> {
    let chunk = miniscript::parse("print(1 + 2)").map_err(|e| e.to_string())?;
    let module = luart::compile(&chunk).map_err(|e| e.to_string())?;
    let mut out = String::new();
    for level in [IsaLevel::Baseline, IsaLevel::Typed] {
        let image = luart::build_image(&module, level).map_err(|e| e.to_string())?;
        let entries = &image.handler_entries;
        let add_pos = entries.iter().position(|(op, _)| *op == luart::Op::Add).unwrap();
        let start = entries[add_pos].1;
        let end = entries.get(add_pos + 1).map(|(_, pc)| *pc).unwrap_or(start + 4 * 64);
        let _ = writeln!(out, "\n=== bytecode ADD handler, {level} ===");
        for (pc, instr) in image.program.disassemble() {
            if pc >= start && pc < end {
                let _ = writeln!(out, "  {pc:#08x}: {instr}");
            }
        }
    }
    Ok(out)
}

/// Table 8: hardware overhead breakdown plus measured EDP improvements.
///
/// # Errors
///
/// Returns a descriptive string if the matrix lacks a needed cell.
pub fn table8(m: &Matrix) -> Result<String, String> {
    let hw = tarch_energy::TypedHardware::paper_40nm();
    let b = tarch_energy::breakdown(&hw);
    let mut out = String::new();
    let _ = writeln!(out, "Table 8: hardware overhead breakdown (analytical model)");
    let _ = writeln!(out, "{b}");
    let _ = writeln!(
        out,
        "area overhead: {:+.1}%   power overhead: {:+.1}%",
        b.area_overhead() * 100.0,
        b.power_overhead() * 100.0
    );
    for engine in EngineKind::ALL {
        let mut bases = Vec::new();
        let mut typeds = Vec::new();
        for w in m.workloads() {
            bases.push(require(m, &w, engine, IsaLevel::Baseline)?.counters.cycles as f64);
            typeds.push(require(m, &w, engine, IsaLevel::Typed)?.counters.cycles as f64);
        }
        let base = geomean(bases.into_iter());
        let typed = geomean(typeds.into_iter());
        let imp = tarch_energy::edp_improvement(&b, base.round() as u64, typed.round() as u64);
        let _ = writeln!(out, "EDP improvement ({engine}): {:.1}%", imp * 100.0);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Matrix, MatrixOptions};
    use crate::workloads::{self, Scale};

    fn tiny_matrix(profiled: bool) -> Matrix {
        let ws: Vec<_> = ["fibo", "n-sieve"]
            .iter()
            .map(|n| workloads::by_name(n).unwrap())
            .collect();
        let opts = MatrixOptions { profiled, ..MatrixOptions::default() };
        Matrix::run_with(&ws, Scale::Test, &opts).unwrap().matrix
    }

    #[test]
    fn figures_render() {
        let m = tiny_matrix(false);
        let f5 = fig5(&m).unwrap();
        assert!(f5.contains("geomean"));
        assert!(f5.contains("fibo"));
        let f6 = fig6(&m).unwrap();
        assert!(f6.contains("typed"));
        let f7 = fig7(&m).unwrap();
        assert!(f7.contains("baseline"));
        let f8 = fig8(&m).unwrap();
        assert!(f8.contains("I-cache"));
        let t8 = table8(&m).unwrap();
        assert!(t8.contains("EDP improvement"));
    }

    #[test]
    fn fig9_reads_profiled_cells() {
        let m = tiny_matrix(true);
        let f9 = fig9(&m).unwrap();
        assert!(f9.contains("hits/bc"));
        assert!(f9.contains("fibo"));
    }

    #[test]
    fn partial_matrix_is_an_error_not_a_panic() {
        use crate::harness::job_spec;
        use tarch_runner::JobOutcome;
        // A matrix whose Typed column is missing must produce a clean
        // error from the figure renderers, not a panic.
        let w = workloads::by_name("fibo").unwrap();
        let mut outcomes = Vec::new();
        for level in [IsaLevel::Baseline, IsaLevel::CheckedLoad] {
            for engine in EngineKind::ALL {
                let spec = job_spec(&w, engine, level, Scale::Test, false);
                let result = crate::harness::exec_job(&spec, MAX_STEPS).unwrap();
                outcomes.push(JobOutcome { spec, result, cached: false, wall_nanos: 0 });
            }
        }
        let partial = Matrix::from_outcomes(&outcomes).unwrap();
        let err = fig5(&partial).unwrap_err();
        assert!(err.contains("missing cell"), "{err}");
        assert!(err.contains("typed"), "{err}");
        assert!(fig7(&partial).is_err());
        assert!(table8(&partial).is_err());
        // fig9 without profiled cells must be a clean error too.
        let full = tiny_matrix(false);
        let err = fig9(&full).unwrap_err();
        assert!(err.contains("profiled"), "{err}");
    }

    #[test]
    fn fig1_disassembles_both_variants() {
        let s = fig1().unwrap();
        assert!(s.contains("baseline"));
        assert!(s.contains("typed"));
        assert!(s.contains("xadd"));
        assert!(s.contains("tld"));
    }

    #[test]
    fn fig2a_ranks_ops_by_dispatches_and_ties_by_op_order() {
        let counts: Dispatches = [("SUB", 30), ("MOVE", 30), ("ADD", 39), ("HALT", 1)]
            .map(|(op, n)| (op.into(), n))
            .into();
        let s = fig2a(&[("w", counts)]);
        let row = s.lines().last().unwrap();
        assert!(row.starts_with("w "), "{s}");
        assert!(row.contains(" 100  ADD 39.0%  MOVE 30.0%  SUB 30.0%  HALT 1.0%"), "{s}");
    }

    #[test]
    fn fig2b_measures_hot_ops() {
        let s = fig2b().unwrap();
        assert!(s.contains("GETTABLE"));
        assert!(s.contains("(Int,Int)"));
    }
}
