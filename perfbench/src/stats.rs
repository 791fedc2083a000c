//! Order statistics over latency samples.

/// Summary of one latency sample set: the count, fixed percentiles,
/// and the highest percentile that still has at least ten samples
/// beyond it (the highest one worth reading).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// Highest of 50/90/99/99.9 with ≥ 10 samples above it; `0` when
    /// even the median has fewer than ten samples beyond it.
    pub highest_valid_percentile: f64,
}

/// The `q`-quantile (0 ≤ q ≤ 1) of sorted values by linear
/// interpolation between closest ranks; `0` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Summarizes samples (any order).
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let highest_valid_percentile = [50.0, 90.0, 99.0, 99.9]
        .into_iter()
        .filter(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .fold(0.0, f64::max);
    Summary {
        samples: n,
        p50: quantile(&sorted, 0.5),
        p90: quantile(&sorted, 0.9),
        p99: quantile(&sorted, 0.99),
        highest_valid_percentile,
    }
}

/// Median of the values (any order).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).p50
}

/// Geometric mean of positive values; `0` for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reports_counts_and_the_highest_readable_percentile() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!(s.samples, 200);
        assert_eq!(s.p50, 100.5);
        // 200 samples leave 20 beyond p90 and 2 beyond p99.
        assert_eq!(s.highest_valid_percentile, 90.0);
        assert_eq!(summarize(&values[..19]).highest_valid_percentile, 0.0);
        assert_eq!(summarize(&values[..20]).highest_valid_percentile, 50.0);
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(summarize(&many).highest_valid_percentile, 99.0);
        assert_eq!(summarize(&[]).samples, 0);
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
