//! Descriptive statistics over `f64` slices.
//!
//! Sums use Neumaier-compensated accumulation so results stay stable on the
//! 8760-point series the benchmark processes, and variance uses the
//! two-pass formula (the slices are always resident when these run).

/// Compensated (Neumaier) summation — accurate for long, mixed-magnitude
/// series where a naive sum would drift.
fn compensated_sum(values: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut c = 0.0;
    for &v in values {
        let t = sum + v;
        if sum.abs() >= v.abs() {
            c += (sum - t) + v;
        } else {
            c += (v - t) + sum;
        }
        sum = t;
    }
    sum + c
}

/// Arithmetic mean; `NaN` on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    compensated_sum(values) / values.len() as f64
}

/// Two-pass sample variance (divides by `n − 1`); `NaN` when `n < 2`.
pub fn sample_variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return f64::NAN;
    }
    let m = mean(values);
    let ss: f64 = values.iter().map(|v| (v - m) * (v - m)).sum();
    ss / (values.len() - 1) as f64
}

/// Sample standard deviation.
pub fn stddev(values: &[f64]) -> f64 {
    sample_variance(values).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_known_values() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn compensated_sum_beats_naive_on_mixed_magnitudes() {
        // 1e16 + 1 + 1 - 1e16 should be 2; naive summation loses it.
        let vals = [1e16, 1.0, 1.0, -1e16];
        assert_eq!(compensated_sum(&vals), 2.0);
    }

    #[test]
    fn variance_matches_hand_computation() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((sample_variance(&v) - 32.0 / 7.0).abs() < 1e-12);
        assert!((stddev(&v) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn variance_degenerate_cases() {
        assert!(sample_variance(&[1.0]).is_nan());
        assert!(sample_variance(&[]).is_nan());
        assert_eq!(sample_variance(&[3.0, 3.0]), 0.0);
    }
}
