//! Nearest-rank percentile summaries.
//!
//! Shared by the bench comparison (`p50/p95/p99` of per-cell MIPS in
//! `repro bench --compare`) and the fleet artifact (tenant-latency
//! percentiles in simulated cycles). Nearest-rank — take the sample at
//! rank `ceil(p/100 · n)` — is exact, deterministic, and meaningful down
//! to a single sample, which interpolating estimators are not; fleet
//! tail-latency claims must survive `n = 1` smoke configurations.

use crate::json::{Json, JsonWriter};

/// p50/p95/p99 summary of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median (50th percentile, nearest-rank).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Computes the summary over `samples` (any order); `None` for an
    /// empty set — there is no honest percentile of nothing. A single
    /// sample is every percentile of itself.
    pub fn of(samples: &[f64]) -> Option<Percentiles> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Percentiles {
            p50: nearest_rank(&sorted, 50.0),
            p95: nearest_rank(&sorted, 95.0),
            p99: nearest_rank(&sorted, 99.0),
        })
    }

    /// [`Percentiles::of`] over integer samples (e.g. simulated cycles).
    pub fn of_u64(samples: &[u64]) -> Option<Percentiles> {
        let as_f64: Vec<f64> = samples.iter().map(|&v| v as f64).collect();
        Percentiles::of(&as_f64)
    }

    /// Writes `{"p50": …, "p95": …, "p99": …}`.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|o| {
            o.key("p50").f64(self.p50);
            o.key("p95").f64(self.p95);
            o.key("p99").f64(self.p99);
        });
    }

    /// Deserializes `{"p50": …, "p95": …, "p99": …}`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Percentiles, String> {
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing or non-numeric field `{k}`"))
        };
        Ok(Percentiles { p50: field("p50")?, p95: field("p95")?, p99: field("p99")? })
    }
}

/// The sample at nearest rank `ceil(p/100 · n)` of an ascending-sorted
/// non-empty slice (1-indexed rank, clamped to the valid range).
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_percentiles() {
        assert_eq!(Percentiles::of(&[]), None);
        assert_eq!(Percentiles::of_u64(&[]), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let p = Percentiles::of(&[42.5]).unwrap();
        assert_eq!(p, Percentiles { p50: 42.5, p95: 42.5, p99: 42.5 });
    }

    #[test]
    fn nearest_rank_on_a_hundred_samples() {
        // 1..=100: p50 = 50th sample, p95 = 95th, p99 = 99th.
        let samples: Vec<u64> = (1..=100).collect();
        let p = Percentiles::of_u64(&samples).unwrap();
        assert_eq!(p, Percentiles { p50: 50.0, p95: 95.0, p99: 99.0 });
    }

    #[test]
    fn order_does_not_matter() {
        let a = Percentiles::of(&[3.0, 1.0, 2.0]).unwrap();
        let b = Percentiles::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a, b);
        // Nearest-rank over 3 samples: p50 is the 2nd, p95/p99 the 3rd.
        assert_eq!(a, Percentiles { p50: 2.0, p95: 3.0, p99: 3.0 });
    }

    #[test]
    fn json_roundtrip() {
        let p = Percentiles { p50: 1.5, p95: 9.25, p99: 12.0 };
        let text = JsonWriter::print(|w| p.write_json(w));
        let back = Percentiles::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
        assert!(Percentiles::from_json(&Json::Obj(vec![])).is_err());
    }
}
