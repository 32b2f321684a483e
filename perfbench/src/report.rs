//! The run's result: every metric by name with its unit, the op
//! accounting, and the JSON line that ends standard output.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload from its untraced run.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "sim_mips",
    "op_ms_p50",
    "op_ms_tail",
    "peak_rss_mb",
];

/// Per-layer metrics, reported by every workload from its traced run. A
/// layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("miniscript.parse_us", "us"),
    ("luart.compile_us", "us"),
    ("jsrt.compile_us", "us"),
    ("wasmrt.compile_us", "us"),
    ("luart.vm_new_us", "us"),
    ("jsrt.vm_new_us", "us"),
    ("wasmrt.vm_new_us", "us"),
    ("core.run_ms", "ms"),
    ("core.observed_run_ms", "ms"),
    ("core.run_share", "fraction"),
    ("blocks.builds_per_minstr", "1/Minstr"),
    ("blocks.compiles_per_minstr", "1/Minstr"),
    ("blocks.chain_rate", "fraction"),
    ("blocks.avg_len", "instr"),
    ("blocks.tier_deopts", "count"),
    ("blocks.revalidations", "count"),
    ("blocks.rebuilds", "count"),
    ("predecode.fills", "count"),
    ("predecode.hits", "count"),
    ("runtime.ecalls_per_minstr", "1/Minstr"),
    ("model.ipc", "instr/cycle"),
    ("model.dcache_mpki", "1/Kinstr"),
    ("model.branch_mpki", "1/Kinstr"),
    ("model.type_hit_rate", "fraction"),
    ("fleet.template_build_ms", "ms"),
    ("fleet.clone_us", "us"),
    ("fleet.slices", "count"),
    ("fleet.slice_us", "us"),
    ("fleet.ctxsw_us", "us"),
    ("fleet.tenant_builds", "count"),
    ("fleet.tenant_compiles", "count"),
    ("runner.pool_idle_s", "s"),
    ("runner.key_us", "us"),
    ("runner.cache_load_us", "us"),
    ("runner.cache_store_us", "us"),
    ("runner.artifact_write_ms", "ms"),
    ("bench.assemble_ms", "ms"),
    ("bench.render_ms", "ms"),
    ("trace.overhead", "fraction"),
    ("trace.uncovered_share", "fraction"),
    ("trace.spans", "count"),
    ("work.instructions", "count"),
    ("work.block_builds", "count"),
    ("work.block_compiles", "count"),
    ("work.chained_transfers", "count"),
    ("work.ecalls", "count"),
    ("reference.stepwise_checked", "count"),
    ("reference.stepwise_mismatches", "count"),
];

#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, String)>,
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .insert(name.to_string(), (value, unit.to_string()));
    }

    /// Puts metric `from` again under the name `name`.
    pub fn alias(&mut self, name: &str, from: &str) {
        if let Some(m) = self.metrics.get(from).cloned() {
            self.metrics.insert(name.to_string(), m);
        }
    }

    /// A human-readable line printed above the result.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one op; a failed op also prints why.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 300 {
                self.note(format!("FAILED: {e}"));
            }
        }
    }

    /// Prints every metric, then the result line with the metrics the
    /// run mode owes: end-to-end untraced, per-layer traced.
    pub fn print(&self, traced: bool) {
        for n in &self.notes {
            println!("# {n}");
        }
        for (name, (v, unit)) in &self.metrics {
            println!("# {name:<28} {v:>16.6} {unit}");
        }
        let wanted: Vec<(&str, &str)> = if traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END
                .iter()
                .map(|n| (*n, self.metrics.get(*n).map_or("", |m| m.1.as_str())))
                .collect()
        };
        let mut fields = Vec::new();
        for (name, unit) in wanted {
            let (v, unit) = match self.metrics.get(name) {
                Some((v, u)) => (*v, u.as_str()),
                None => (0.0, unit),
            };
            let v = if v.is_finite() { v } else { 0.0 };
            fields.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
