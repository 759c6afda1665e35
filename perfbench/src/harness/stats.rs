//! Order statistics over latency samples.
//!
//! Percentiles are *selected* (nearest rank), never interpolated: every
//! reported latency is one that a statement actually took. A percentile is
//! only called resolved when enough samples lie beyond it to make it more
//! than the luck of one slow statement.

/// Samples a p95 needs before it is reported as resolved: ten samples lie
/// beyond the 95th percentile of 200.
pub const P95_MIN_SAMPLES: usize = 200;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median by the same nearest-rank rule.
pub fn median(sorted: &[f64]) -> Option<f64> {
    percentile(sorted, 0.5)
}

/// Sort a sample set ascending. Latencies are never NaN; `total_cmp` keeps
/// the sort total regardless.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample set, 0 when empty.
pub fn median_of(v: Vec<f64>) -> f64 {
    median(&sorted(v)).unwrap_or(0.0)
}

/// Summary of one operation class's latencies, in milliseconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LatencySummary {
    pub samples: usize,
    pub mean_ms: f64,
    pub p50_ms: f64,
    /// The nearest-rank p95, whatever the sample count.
    pub p95_ms: f64,
    /// Whether `p95_ms` rests on at least [`P95_MIN_SAMPLES`] samples.
    pub p95_resolved: bool,
    pub p99_ms: f64,
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarize latencies given in nanoseconds.
    pub fn from_ns(ns: &[u64]) -> LatencySummary {
        let ms = sorted(ns.iter().map(|&n| n as f64 / 1e6).collect());
        let at = |p| percentile(&ms, p).unwrap_or(0.0);
        LatencySummary {
            samples: ms.len(),
            mean_ms: if ms.is_empty() {
                0.0
            } else {
                ms.iter().sum::<f64>() / ms.len() as f64
            },
            p50_ms: at(0.5),
            p95_ms: at(0.95),
            p95_resolved: ms.len() >= P95_MIN_SAMPLES,
            p99_ms: at(0.99),
            max_ms: ms.last().copied().unwrap_or(0.0),
        }
    }

    /// The p95 for people: the value, or `unresolved` under the sample floor.
    pub fn p95_text(&self) -> String {
        if self.p95_resolved {
            format!("{:.4}", self.p95_ms)
        } else {
            format!("unresolved (n={} < {P95_MIN_SAMPLES})", self.samples)
        }
    }
}

/// Quartiles by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them: the acceptance rule
/// for run-to-run spread is stated in those terms.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values.to_vec());
    let n = v.len();
    let q = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_selects_a_sample_by_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.95), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
    }

    #[test]
    fn p95_of_two_hundred_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), Some(190.0));
    }

    #[test]
    fn p95_is_unresolved_below_the_sample_floor() {
        let few = LatencySummary::from_ns(&vec![1_000_000; P95_MIN_SAMPLES - 1]);
        assert!(!few.p95_resolved);
        assert!(few.p95_text().starts_with("unresolved"));
        let enough = LatencySummary::from_ns(&vec![1_000_000; P95_MIN_SAMPLES]);
        assert!(enough.p95_resolved);
        assert_eq!(enough.p95_text(), "1.0000");
        assert_eq!(enough.samples, P95_MIN_SAMPLES);
    }

    #[test]
    fn summary_converts_nanoseconds_to_milliseconds() {
        let s = LatencySummary::from_ns(&[3_000_000, 1_000_000, 2_000_000]);
        assert_eq!(s.p50_ms, 2.0);
        assert_eq!(s.mean_ms, 2.0);
        assert_eq!(s.max_ms, 3.0);
        assert_eq!(LatencySummary::from_ns(&[]), LatencySummary::default());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // The method extrapolates at the ends: Python clamps the index,
        // not the value. statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[5.0]), None);
        let spread = relative_spread(&v).unwrap_or(0.0);
        assert!((spread - 1.0).abs() < 1e-12);
    }
}
