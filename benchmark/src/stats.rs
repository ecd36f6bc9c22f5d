//! Order statistics for the reported numbers: medians and quartiles of
//! rep timings, the fastest-three mean that reduces a run's samples to
//! a metric, and the percentile rule for latency samples.

/// Median of `xs` (mean of the middle two for an even count); `NaN`
/// on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method), so the spreads
/// this program prints match the ones the driver computes. A sample of
/// one reports that value three times.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        _ => {
            let at = |q: usize| {
                // Position q·(n+1)/4 on a 1-based scale, clamped to the
                // sample's ends, linear between neighbours.
                let pos = q * (n + 1);
                let j = (pos / 4).clamp(1, n - 1);
                let delta = pos as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (at(1), at(2), at(3))
        }
    }
}

/// Quantile `q` (0–1) of `xs`, linear between neighbours; `NaN` on an
/// empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return f64::NAN;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let below = pos.floor() as usize;
    let above = (below + 1).min(last);
    v[below] + (v[above] - v[below]) * (pos - below as f64)
}

/// How many of a run's samples the reduction of a timing rests on.
pub const FASTEST: usize = 3;

/// Mean of the [`FASTEST`] smallest of `xs` (largest with `largest`),
/// of all of them when there are fewer; `NaN` on an empty sample.
pub fn fastest_mean(xs: &[f64], largest: bool) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if largest {
        v.reverse();
    }
    v.truncate(FASTEST);
    v.iter().sum::<f64>() / v.len() as f64
}

/// The reduction of a run's samples to a metric, by the metric's unit.
/// A time is reduced to the **mean of its three fastest samples**, a
/// rate to the mean of its three highest: other tenants of the host
/// only ever slow a sample down, by amounts and for stretches that
/// change from minute to minute, so the fast end of the samples is what
/// the operation takes undisturbed and is the part that repeats; three
/// samples, not the minimum, so that no single sample decides a metric.
/// Anything else — a count, a size, a ratio — is not disturbed and is
/// reduced to its median.
pub fn reduce(unit: &str, samples: &[f64]) -> f64 {
    match unit {
        "s" | "ms" | "us" | "ns" => fastest_mean(samples, false),
        "1/s" | "MB/s" | "GB/s" | "GFLOP/s" => fastest_mean(samples, true),
        _ => median(samples),
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles a latency report may quote, ascending.
pub const PERCENTILE_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest rung of [`PERCENTILE_LADDER`] that still has at least ten
/// samples beyond it in a sample of `n` — the tail a sample of that size
/// can support. `None` below 20 samples (not even the median qualifies).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rfind(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3,1,2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1,2,4,8,16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_interpolates_between_neighbours() {
        let xs: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 0.10), 1.0);
        assert_eq!(quantile(&xs, 0.25), 2.5);
        assert_eq!(quantile(&xs, 1.0), 10.0);
        assert_eq!(quantile(&[4.0, 2.0], 0.10), 2.2);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn times_reduce_to_their_three_fastest_rates_to_their_three_highest_counts_to_the_median() {
        // Eleven samples: an undisturbed cluster around 1 and a slow
        // tail the other tenants made.
        let times = [1.0, 1.02, 1.01, 1.6, 1.03, 2.4, 1.5, 1.04, 1.9, 1.05, 3.0];
        assert!((reduce("s", &times) - 1.01).abs() < 1e-12);
        assert_eq!(reduce("ms", &times), reduce("s", &times));
        let rates: Vec<f64> = times.iter().map(|t| 1.0 / t).collect();
        let want = (1.0 + 1.0 / 1.01 + 1.0 / 1.02) / 3.0;
        assert!((reduce("1/s", &rates) - want).abs() < 1e-12);
        assert_eq!(reduce("count", &times), median(&times));
        assert_eq!(reduce("MiB", &[3.0, 1.0, 2.0]), 2.0);
        // Fewer than three samples: all of them.
        assert_eq!(reduce("s", &[4.0, 2.0]), 3.0);
        assert!(reduce("s", &[]).is_nan());
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(40_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }
}
