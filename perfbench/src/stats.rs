//! Order statistics over host timings, and the best-of-visits estimator
//! the timed end-to-end metrics use.

use crate::report::Report;

/// A run visits one fixed list of ops again and again until its time is
/// spent, and each op keeps its best latency over its visits. Host speed
/// on a shared machine swings up to 2x in phases of seconds to a minute;
/// contention only ever adds time, so an op's best visit reads the
/// program's own cost, where a mean would read how much of the run a
/// slow phase happened to cover.
#[derive(Debug)]
pub struct BestOf {
    best_ms: Vec<f64>,
    instructions: Vec<u64>,
    visits: u64,
}

impl BestOf {
    pub fn new(ops: usize) -> BestOf {
        BestOf {
            best_ms: vec![f64::INFINITY; ops],
            instructions: vec![0; ops],
            visits: 0,
        }
    }

    /// Records one visit of op `i`: its latency and the simulated
    /// instructions it retired.
    pub fn visit(&mut self, i: usize, ms: f64, instructions: u64) {
        self.best_ms[i] = self.best_ms[i].min(ms);
        self.instructions[i] = instructions;
        self.visits += 1;
    }

    /// Puts the timed end-to-end metrics: `sim_mips`, the list's
    /// simulated instructions over the sum of its ops' best latencies,
    /// and `op_ms_p50` and `op_ms_tail` over those best latencies.
    pub fn report(&self, r: &mut Report, what: &str) {
        let best: Vec<f64> = self
            .best_ms
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        let best_s: f64 = best.iter().sum::<f64>() / 1e3;
        let instructions: u64 = self.instructions.iter().sum();
        r.put("sim_mips", instructions as f64 / best_s / 1e6, "Minstr/s");
        r.put("op_ms_p50", median(&best), "ms");
        let (tail, pct) = tail(&best);
        r.put("op_ms_tail", tail, "ms");
        r.note(format!(
            "{} visits to {} {what}, each timed at its best; op_ms_tail is p{pct:.1} of them",
            self.visits,
            best.len()
        ));
    }
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn median_u64(v: &[u64]) -> f64 {
    median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The tail the sample count supports: p99 from 1000 samples up,
/// otherwise the value with ten samples beyond it. Below 21 samples that
/// value would sit under the median, so the largest one is the tail.
/// Returns the value and the percentile.
pub fn tail(v: &[f64]) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let idx = match n {
        1000.. => (n * 99).div_ceil(100) - 1,
        21.. => n - 11,
        _ => n - 1,
    };
    (s[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v).0, 90.0);
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v).0, 1980.0);
        assert_eq!(tail(&[5.0, 7.0]).0, 7.0);
        let v: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(tail(&v).0, 16.0);
    }
}
