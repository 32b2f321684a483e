//! Paired in-process measurement of host speed across core
//! configurations: the one A/B path behind `repro ab` and phase 2 of
//! `repro pgo`.
//!
//! Host speed drifts by tens of percent over minutes, so two
//! configurations are compared only within one *round*. A round visits
//! every cell and builds a fresh guest per configuration, so block
//! caches start cold, and times only its run (construction is excluded,
//! as in `sim_nanos`). Even rounds run the configurations in list order
//! and odd rounds in reverse, so pairs interleave ABBA. Every run must
//! retire the counters, branch statistics and output of the cell's
//! first configuration: a host-side layer may change only host speed.

use crate::workloads::{Scale, Workload};
use std::sync::Arc;
use std::time::Instant;
use tarch_core::{BlockStats, CoreConfig, IsaLevel, PgoProfile};
use tarch_fleet::build_guest;
use tarch_runner::EngineKind;

/// One (workload, engine, level) cell of a measurement.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The workload.
    pub workload: Workload,
    /// The guest engine.
    pub engine: EngineKind,
    /// The ISA level.
    pub level: IsaLevel,
    /// The PGO profile guided configurations run with; a cell without
    /// one skips them.
    pub profile: Option<Arc<PgoProfile>>,
}

impl Cell {
    /// `workload/engine/level`, the spelling `repro` takes.
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.workload.name, self.engine.id(), self.level.name())
    }
}

/// A named core configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Its name in reports.
    pub name: String,
    /// The simulated core with its host-side layers.
    pub core: CoreConfig,
    /// Runs with the cell's PGO profile.
    pub guided: bool,
}

/// Two configurations compared pair by pair. The pair ratio is
/// `time(base) / time(other)`, the host speed of `other` relative to
/// `base` within one round.
#[derive(Debug, Clone)]
pub struct Step {
    /// Its row name in reports.
    pub label: String,
    /// Index of the base configuration.
    pub base: usize,
    /// Index of the configuration compared with it.
    pub other: usize,
}

/// The configurations and steps of `repro ab`: the execution ladder and
/// the leave-one-out set, which share the shipping config.
///
/// The ladder starts from the naive core, every host-side layer off (the
/// stepwise reference), and adds the MRU memos (`mem_fast_paths`),
/// compiled blocks, and fusion, which gives the shipping config
/// `CoreConfig::paper()`, and PGO. Each ladder step compares a rung with
/// the one below it. The leave-one-out steps compare the shipping config
/// with itself less MRU or fusion.
pub fn ladder() -> (Vec<Config>, Vec<Step>) {
    type Toggle = fn(&mut CoreConfig, bool);
    let layers: [(&str, Toggle); 3] = [
        ("MRU", |c, on| c.mem_fast_paths = on),
        ("blocks", |c, on| c.blocks = on),
        ("fuse", |c, on| c.fuse = on),
    ];
    let config = |name: String, core, guided| Config { name, core, guided };
    let mut naive = CoreConfig::paper();
    layers.iter().for_each(|(_, toggle)| toggle(&mut naive, false));
    let mut configs = vec![config("naive".into(), naive, false)];
    for (layer, toggle) in layers {
        let mut core = configs[configs.len() - 1].core.clone();
        toggle(&mut core, true);
        configs.push(config(format!("+{layer}"), core, false));
    }
    let shipping = configs.len() - 1;
    assert_eq!(configs[shipping].core, CoreConfig::paper(), "+fuse is the shipping config");
    configs.push(config("+pgo".into(), CoreConfig::paper(), true));
    for (layer, toggle) in layers.into_iter().filter(|(layer, _)| *layer != "blocks") {
        let mut core = CoreConfig::paper();
        toggle(&mut core, false);
        configs.push(config(format!("{layer} off"), core, false));
    }
    let last = configs.len() - 1;
    let name = |i: usize| &configs[i].name;
    let rungs = (1..=shipping + 1).map(|i| (i - 1, i, format!("{} -> {}", name(i - 1), name(i))));
    let off = (shipping + 2..=last).map(|i| (shipping, i, format!("shipping, {}", name(i))));
    let steps = rungs.chain(off).map(|(base, other, label)| Step { label, base, other }).collect();
    (configs, steps)
}

/// One cell's timings under every configuration.
#[derive(Debug)]
pub struct CellRun {
    /// The cell.
    pub cell: Cell,
    /// Instructions every run of the cell retired.
    pub instructions: u64,
    /// Run nanoseconds per configuration and round; `None` for a
    /// configuration the cell skipped.
    pub nanos: Vec<Option<Vec<u64>>>,
    /// Each configuration's block statistics after its last run.
    pub blocks: Vec<Option<BlockStats>>,
}

impl CellRun {
    /// The step's pair ratios on this cell, one per round; none when the
    /// cell skipped either configuration.
    pub fn ratios(&self, step: &Step) -> Vec<f64> {
        match (&self.nanos[step.base], &self.nanos[step.other]) {
            (Some(base), Some(other)) => {
                base.iter().zip(other).map(|(&b, &o)| b as f64 / o as f64).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Simulated MIPS of the configuration over its median run time;
    /// `None` when the cell skipped it.
    pub fn mips(&self, config: usize) -> Option<f64> {
        let mut nanos = self.nanos[config].clone().filter(|n| !n.is_empty())?;
        nanos.sort_unstable();
        Some(self.instructions as f64 * 1e3 / nanos[nanos.len() / 2].max(1) as f64)
    }
}

/// Measures every cell under every configuration for `pairs` rounds,
/// naming each round and cell on stderr when `progress` is set.
///
/// Rounds are the outer loop, so a cell's pairs spread over the whole
/// pass: a host phase shifts a few pairs of many cells, not every pair
/// of one, and the pooled interval sees it.
///
/// # Errors
///
/// A guest that fails to build or run or exhausts `step_budget`, and a
/// run that retires different counters, branch statistics or output than
/// the cell's first configuration; the message names the cell and the
/// configurations.
pub fn measure(
    cells: &[Cell],
    scale: Scale,
    configs: &[Config],
    pairs: usize,
    step_budget: u64,
    progress: bool,
) -> Result<Vec<CellRun>, String> {
    let sources: Vec<String> = cells.iter().map(|c| c.workload.source(scale)).collect();
    let mut runs: Vec<CellRun> = cells
        .iter()
        .map(|cell| {
            let ran = |c: &Config| !c.guided || cell.profile.is_some();
            let nanos = configs.iter().map(|c| ran(c).then(Vec::new)).collect();
            let blocks = vec![None; configs.len()];
            CellRun { cell: cell.clone(), instructions: 0, nanos, blocks }
        })
        .collect();
    // Per cell, the configuration that ran first and what it retired.
    let mut first = vec![None; cells.len()];
    for round in 0..pairs {
        for ((run, source), first) in runs.iter_mut().zip(&sources).zip(&mut first) {
            let CellRun { cell, instructions, nanos, blocks } = run;
            let label = cell.label();
            if progress {
                eprintln!("round {}/{pairs}: {label}...", round + 1);
            }
            for i in round_order(round, configs.len()) {
                let Some(times) = &mut nanos[i] else { continue };
                let Config { name, core, guided } = &configs[i];
                let pgo = if *guided { cell.profile.clone() } else { core.pgo.clone() };
                let core = CoreConfig { pgo, ..core.clone() };
                let mut guest = build_guest(cell.engine, source, cell.level, core)
                    .map_err(|e| format!("{label} ({name}): {e}"))?;
                let started = Instant::now();
                let report = guest.run(step_budget);
                times.push(started.elapsed().as_nanos() as u64);
                let report = report.map_err(|e| format!("{label} ({name}): {e}"))?;
                blocks[i] = Some(guest.cpu().block_stats());
                *instructions = report.counters.instructions;
                let retired = (report.counters, report.branch, report.output);
                match first {
                    None => *first = Some((i, retired)),
                    Some((j, expected)) if *expected != retired => {
                        return Err(format!(
                            "{label}: `{name}` retired different counters, branch statistics \
                             or output than `{}`; a host-side layer may change only host speed",
                            configs[*j].name
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
    }
    Ok(runs)
}

/// The configuration order of one round: list order in even rounds,
/// reverse in odd ones.
fn round_order(round: usize, configs: usize) -> impl Iterator<Item = usize> {
    (0..configs).map(move |i| if round.is_multiple_of(2) { i } else { configs - 1 - i })
}

/// Pair ratios summarized: their number, median and 95% interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of pair ratios.
    pub pairs: usize,
    /// Their median.
    pub median: f64,
    /// The distribution-free 95% interval for the median: with the n
    /// ratios sorted, `[x(k), x(n+1-k)]` for the largest k with
    /// `P(Binomial(n, 1/2) < k) <= 0.025`, so the same timings give the
    /// same interval. `None` under six ratios, where no k qualifies.
    pub interval: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `ratios`; `None` when there are none.
    pub fn of(mut ratios: Vec<f64>) -> Option<Summary> {
        let n = ratios.len();
        if n == 0 {
            return None;
        }
        ratios.sort_by(f64::total_cmp);
        let median = (ratios[(n - 1) / 2] + ratios[n / 2]) / 2.0;
        let k = interval_rank(n);
        let interval = (k > 0).then(|| (ratios[k - 1], ratios[n - k]));
        Some(Summary { pairs: n, median, interval })
    }

    /// The step's pair ratios pooled over every cell.
    pub fn pooled(runs: &[CellRun], step: &Step) -> Option<Summary> {
        Summary::of(runs.iter().flat_map(|r| r.ratios(step)).collect())
    }
}

/// The largest k with `P(Binomial(n, 1/2) < k) <= 0.025`.
fn interval_rank(n: usize) -> usize {
    // P(B = k), kept as a logarithm: 2^-n underflows past n = 1074.
    let mut log_p = -(n as f64) * std::f64::consts::LN_2;
    let (mut below, mut k) = (0.0, 0);
    while k < n {
        below += log_p.exp(); // P(B < k + 1)
        if below > 0.025 {
            break;
        }
        k += 1;
        log_p += ((n - k + 1) as f64 / k as f64).ln();
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn the_interval_follows_the_binomial_table() {
        let interval = |n: u32| Summary::of((1..=n).rev().map(f64::from).collect()).unwrap();
        for n in 1..6 {
            assert_eq!(interval(n).interval, None, "n = {n}");
        }
        assert_eq!(interval(6).interval, Some((1.0, 6.0)), "[min, max]");
        assert_eq!(interval(10).interval, Some((2.0, 9.0)), "[x(2), x(9)]");
        assert_eq!(interval(10).median, 5.5);
        // P(B <= 4) = 3214 / 2^17 = 0.0245 for n = 17, P(B <= 5) = 0.0717;
        // large n stays finite, near n/2 - 0.98 sqrt(n).
        assert_eq!((interval_rank(17), interval_rank(2000)), (5, 956));
        assert_eq!(Summary::of(Vec::new()), None);
    }

    #[test]
    fn rounds_alternate_forward_and_reverse() {
        let order: Vec<Vec<usize>> = (0..4).map(|r| round_order(r, 3).collect()).collect();
        assert_eq!(order, [[0, 1, 2], [2, 1, 0], [0, 1, 2], [2, 1, 0]]);
    }

    fn measure_fibo(configs: &[Config], pairs: usize) -> Result<Vec<CellRun>, String> {
        let (workload, engine) = (workloads::by_name("fibo").unwrap(), EngineKind::Lua);
        let cell = Cell { workload, engine, level: IsaLevel::Typed, profile: None };
        measure(&[cell], Scale::Test, configs, pairs, u64::MAX, false)
    }

    #[test]
    fn a_config_that_changes_what_retires_is_an_error() {
        let two_entries = CoreConfig { trt_entries: 2, ..CoreConfig::paper() };
        let configs = [
            Config { name: "paper".into(), core: CoreConfig::paper(), guided: false },
            Config { name: "two TRT entries".into(), core: two_entries, guided: false },
        ];
        let err = measure_fibo(&configs, 1).unwrap_err();
        assert!(err.starts_with("fibo/lua/typed: `two TRT entries` retired different"), "{err}");
        assert!(err.contains("than `paper`"), "{err}");
    }

    #[test]
    fn guided_configs_skip_cells_without_a_profile() {
        let configs = [
            Config { name: "unguided".into(), core: CoreConfig::paper(), guided: false },
            Config { name: "guided".into(), core: CoreConfig::paper(), guided: true },
        ];
        let runs = measure_fibo(&configs, 3).unwrap();
        let rounds: Vec<Option<usize>> =
            runs[0].nanos.iter().map(|n| n.as_ref().map(Vec::len)).collect();
        assert_eq!((rounds, runs[0].instructions > 0), (vec![Some(3), None], true));
        let step = Step { label: "unguided -> guided".into(), base: 0, other: 1 };
        assert_eq!(Summary::pooled(&runs, &step), None);
    }
}
