//! Order statistics the benchmark reports: medians and quartiles over
//! repeated slices, interpolated quantiles out of the repo's log-bucketed
//! histogram, and the rule for which percentile a sample count supports.

use proust_stm::obs::Histogram;

/// Median (mean of the two middle values for an even count). Panics on an
/// empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the driver's spread is `(q3 - q1) /
/// median`, so `--aa` and the README quote the same quantity.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |quarter: usize| {
        let pos = quarter * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Geometric mean; the lib workloads fold their four quadrants with it so
/// each quadrant weighs the same whatever its absolute speed.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The percentiles a report may quote, lowest first: name, quantile, and
/// the `n` of "one sample in `n` lies beyond it".
const TAILS: [(&str, f64, u64); 5] = [
    ("p50", 0.50, 2),
    ("p90", 0.90, 10),
    ("p99", 0.99, 100),
    ("p999", 0.999, 1_000),
    ("p9999", 0.9999, 10_000),
];

/// The highest percentile with at least ten samples beyond it, or `None`
/// below twenty samples (where not even the median has ten above it).
pub fn highest_supported_percentile(samples: u64) -> Option<(&'static str, f64)> {
    TAILS.iter().rev().find(|(_, _, one_in)| samples >= 10 * one_in).map(|(name, q, _)| (*name, *q))
}

/// Quantile `q` of `hist`, interpolated linearly inside the bucket that
/// holds the rank. `Histogram::value_at_quantile` answers with the bucket
/// midpoint (a 3% grid), which would make a median read identically run
/// after run and hide any change smaller than a bucket.
pub fn quantile(hist: &Histogram, q: f64) -> f64 {
    let count = hist.count();
    if count == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * count as f64).max(1.0);
    let mut below = 0u64;
    let mut floor = 0u64;
    for (upper, cumulative) in hist.cumulative_buckets() {
        if cumulative as f64 >= rank {
            let inside = (cumulative - below) as f64;
            let upper = upper.min(hist.max());
            return floor as f64
                + (upper.saturating_sub(floor)) as f64 * (rank - below as f64) / inside;
        }
        below = cumulative;
        floor = upper + 1;
    }
    hist.max() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn geomean_of_equal_ratios() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20).unwrap().0, "p50");
        assert_eq!(highest_supported_percentile(99).unwrap().0, "p50");
        assert_eq!(highest_supported_percentile(100).unwrap().0, "p90");
        assert_eq!(highest_supported_percentile(999).unwrap().0, "p90");
        assert_eq!(highest_supported_percentile(1_000).unwrap().0, "p99");
        assert_eq!(highest_supported_percentile(10_000).unwrap().0, "p999");
        assert_eq!(highest_supported_percentile(5_000_000).unwrap().0, "p9999");
    }

    #[test]
    fn quantile_interpolates_inside_a_bucket() {
        let hist = Histogram::new();
        for v in 10_000..11_000u64 {
            hist.record(v);
        }
        // Exact quantiles of a uniform ramp; the bucket grid alone would
        // be off by up to 3%.
        let p50 = quantile(&hist, 0.50);
        let p99 = quantile(&hist, 0.99);
        assert!((p50 - 10_500.0).abs() < 40.0, "p50 {p50}");
        assert!((p99 - 10_990.0).abs() < 40.0, "p99 {p99}");
        assert!(quantile(&hist, 0.25) < p50 && p50 < p99);
        assert_eq!(quantile(&Histogram::new(), 0.5), 0.0);
    }
}
