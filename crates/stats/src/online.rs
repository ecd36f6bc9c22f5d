//! Welford's online mean/variance accumulator.
//!
//! The streaming anomaly detector sees its residuals one reading at a
//! time; this accumulator folds each in with a numerically stable update.

/// Streaming count/mean/variance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Fold one observation in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Count of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean; `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Sample variance; `NaN` when `n < 2`.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive;

    #[test]
    fn matches_two_pass_statistics() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s: OnlineStats = data.iter().copied().collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - descriptive::mean(&data)).abs() < 1e-12);
        assert!((s.sample_variance() - descriptive::sample_variance(&data)).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulator_reports_nan() {
        let s = OnlineStats::new();
        assert!(s.mean().is_nan());
        assert!(s.sample_variance().is_nan());
        assert_eq!(s.count(), 0);
    }
}
