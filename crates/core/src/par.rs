//! Benchmark task 3 (Section 3.3): periodic auto-regression (PAR).
//!
//! Following Espinoza et al. \[13\] and Ardakanian et al. \[8\], consumption
//! at hour *h* of day *d* is modeled as a linear combination of the
//! consumption at the same hour over the previous `p = 3` days, the
//! outdoor temperature at that hour, and an intercept:
//!
//! ```text
//! y_{d,h} = β₀ + φ₁ y_{d−1,h} + φ₂ y_{d−2,h} + φ₃ y_{d−3,h} + β_T T_{d,h} + ε
//! ```
//!
//! Twenty-four such models are fitted per consumer (one per hour of day).
//! The *daily profile* — the expected temperature-independent consumption
//! at each hour (Figure 2) — is the AR steady state with the temperature
//! term removed: `β₀ / (1 − φ₁ − φ₂ − φ₃)`, guarded against near-unit
//! roots (fallback: mean of `y − β_T·T`).

use smda_stats::linalg::Matrix;
use smda_stats::scratch::FitScratch;
use smda_stats::{ols_multiple, with_fit_scratch};
use smda_types::{ConsumerId, ConsumerSeries, TemperatureSeries, DAYS_PER_YEAR, HOURS_PER_DAY};

/// Autoregressive order: the paper uses the previous `p = 3` days.
pub const PAR_ORDER: usize = 3;

/// The fitted model for one hour of the day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HourModel {
    /// Intercept β₀.
    pub intercept: f64,
    /// Autoregressive coefficients φ₁..φ₃ (lag 1 first).
    pub ar: [f64; PAR_ORDER],
    /// Temperature coefficient β_T.
    pub temp_coef: f64,
    /// Coefficient of determination of the fit.
    pub r2: f64,
}

impl HourModel {
    /// The temperature-independent steady-state consumption this hour's
    /// model implies, with a mean-residual fallback when the AR part is
    /// explosive or near a unit root.
    fn steady_state(&self, fallback: f64) -> f64 {
        let phi_sum: f64 = self.ar.iter().sum();
        let denom = 1.0 - phi_sum;
        if denom.abs() < 0.1 {
            return fallback.max(0.0);
        }
        let ss = self.intercept / denom;
        if ss.is_finite() && ss >= 0.0 {
            ss
        } else {
            fallback.max(0.0)
        }
    }
}

/// The PAR model for one consumer: 24 hourly sub-models plus the derived
/// daily profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ParModel {
    /// The household the model describes.
    pub consumer: ConsumerId,
    /// One fitted model per hour of day.
    pub hourly: [HourModel; HOURS_PER_DAY],
    /// Expected temperature-independent consumption per hour of day, kWh.
    pub profile: [f64; HOURS_PER_DAY],
}

impl ParModel {
    /// Total daily temperature-independent consumption, kWh.
    pub fn daily_total(&self) -> f64 {
        self.profile.iter().sum()
    }

    /// Hour of day with the highest activity load (the latest such hour
    /// on a tie). Ordered by [`f64::total_cmp`], so a profile a caller
    /// filled with NaN still names an hour instead of panicking.
    pub fn peak_hour(&self) -> usize {
        self.profile
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(h, _)| h)
    }
}

smda_types::bit_eq_fields!(
    HourModel { intercept, ar, temp_coef, r2 }
    ParModel { consumer, hourly, profile }
);

// The lane kernel in `smda-stats` is written for this model's shape.
const _: () = assert!(PAR_ORDER == smda_stats::simd::LANE_LAGS);

/// Fit the PAR model for one consumer through a caller-provided
/// [`FitScratch`]: the 24 hourly systems are accumulated side by side in
/// SIMD lanes straight off the day-major year
/// ([`NormalEq::fit_hourly_ar`](smda_stats::NormalEq::fit_hourly_ar)) —
/// no design row is ever formed — and solved in place on the arena's
/// fixed normal-equation arrays: the allocation-free production path.
/// Bit-identical to [`fit_par_baseline`], dirty arena or fresh.
///
/// # Panics
/// Panics if `readings` or `temps` holds less than a year.
pub fn fit_par_scratch(
    consumer: ConsumerId,
    readings: &[f64],
    temps: &[f64],
    scratch: &mut FitScratch,
) -> ParModel {
    scratch.note_fit();
    let fits = scratch.solver.fit_hourly_ar(readings, temps, DAYS_PER_YEAR);
    let mut hourly = [HourModel {
        intercept: 0.0,
        ar: [0.0; PAR_ORDER],
        temp_coef: 0.0,
        r2: 0.0,
    }; HOURS_PER_DAY];
    let mut profile = [0.0; HOURS_PER_DAY];
    for (hour, hour_fit) in fits.iter().enumerate() {
        let mean_y = hour_fit.mean_y;
        match hour_fit.fit {
            Some(fit) => {
                let m = HourModel {
                    intercept: fit.beta[0],
                    ar: [fit.beta[1], fit.beta[2], fit.beta[3]],
                    temp_coef: fit.beta[4],
                    r2: if fit.r2.is_nan() { 0.0 } else { fit.r2 },
                };
                // Fallback profile value: mean residual after removing the
                // temperature effect — always well-defined.
                let fallback = mean_y - m.temp_coef * hour_fit.mean_x;
                hourly[hour] = m;
                profile[hour] = m.steady_state(fallback);
            }
            None => {
                // Rank-deficient hour (constant readings): the profile is
                // that constant and the model is the trivial intercept.
                hourly[hour] = HourModel {
                    intercept: mean_y,
                    ar: [0.0; PAR_ORDER],
                    temp_coef: 0.0,
                    r2: 0.0,
                };
                profile[hour] = mean_y.max(0.0);
            }
        }
    }
    ParModel {
        consumer,
        hourly,
        profile,
    }
}

/// Fit the PAR model with the pre-arena allocating implementation — kept
/// as the reference that `--check fits`, the proptests, and
/// `tests/tests/fits.rs` pin the scratch path against.
pub fn fit_par_baseline(series: &ConsumerSeries, temperature: &TemperatureSeries) -> ParModel {
    let readings = series.readings();
    let temps = temperature.values();
    let mut hourly = [HourModel {
        intercept: 0.0,
        ar: [0.0; PAR_ORDER],
        temp_coef: 0.0,
        r2: 0.0,
    }; HOURS_PER_DAY];
    let mut profile = [0.0; HOURS_PER_DAY];

    let n_obs = DAYS_PER_YEAR - PAR_ORDER;
    // Reused buffers across the 24 fits.
    let mut design = Vec::with_capacity(n_obs * (PAR_ORDER + 2));
    let mut y = Vec::with_capacity(n_obs);

    for hour in 0..HOURS_PER_DAY {
        design.clear();
        y.clear();
        for day in PAR_ORDER..DAYS_PER_YEAR {
            let idx = day * HOURS_PER_DAY + hour;
            design.push(1.0);
            for lag in 1..=PAR_ORDER {
                design.push(readings[(day - lag) * HOURS_PER_DAY + hour]);
            }
            design.push(temps[idx]);
            y.push(readings[idx]);
        }
        // Hand the buffer to the matrix and reclaim it after the solve —
        // the solve only reads it, so no copy is warranted.
        let x = Matrix::from_vec(n_obs, PAR_ORDER + 2, std::mem::take(&mut design));
        // Fallback profile value: mean residual after removing the
        // temperature effect — always well-defined.
        let mean_y = y.iter().sum::<f64>() / y.len() as f64;
        let fit = ols_multiple(&x, &y);
        design = x.into_vec();
        match fit {
            Some(fit) => {
                let m = HourModel {
                    intercept: fit.beta[0],
                    ar: [fit.beta[1], fit.beta[2], fit.beta[3]],
                    temp_coef: fit.beta[4],
                    r2: if fit.r2.is_nan() { 0.0 } else { fit.r2 },
                };
                let mean_t = (PAR_ORDER..DAYS_PER_YEAR)
                    .map(|d| temps[d * HOURS_PER_DAY + hour])
                    .sum::<f64>()
                    / n_obs as f64;
                let fallback = mean_y - m.temp_coef * mean_t;
                hourly[hour] = m;
                profile[hour] = m.steady_state(fallback);
            }
            None => {
                // Rank-deficient hour (constant readings): the profile is
                // that constant and the model is the trivial intercept.
                hourly[hour] = HourModel {
                    intercept: mean_y,
                    ar: [0.0; PAR_ORDER],
                    temp_coef: 0.0,
                    r2: 0.0,
                };
                profile[hour] = mean_y.max(0.0);
            }
        }
    }
    ParModel {
        consumer: series.id,
        hourly,
        profile,
    }
}

/// Fit the PAR model for one consumer.
///
/// Runs through the calling thread's [`FitScratch`] arena; output is
/// bit-identical to [`fit_par_baseline`]. Rank-deficient hours (e.g.
/// constant readings, where the AR columns are collinear with the
/// intercept) fall back to the trivial intercept-only model, whose
/// profile is the hour's mean consumption.
pub fn fit_par(series: &ConsumerSeries, temperature: &TemperatureSeries) -> ParModel {
    with_fit_scratch(|scratch| {
        fit_par_scratch(series.id, series.readings(), temperature.values(), scratch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_types::{BitEq, HOURS_PER_YEAR};

    /// A consumer with a crisp daily pattern (morning + evening peaks) and
    /// an additive temperature response, plus deterministic jitter.
    fn patterned() -> (ConsumerSeries, TemperatureSeries) {
        let temps: Vec<f64> = (0..HOURS_PER_YEAR)
            .map(|h| {
                let day = (h / 24) as f64;
                let hod = (h % 24) as f64;
                7.0 - 14.0 * (2.0 * std::f64::consts::PI * (day - 15.0) / 365.0).cos()
                    + 3.0 * (2.0 * std::f64::consts::PI * (hod - 15.0) / 24.0).cos()
            })
            .collect();
        let kwh: Vec<f64> = (0..HOURS_PER_YEAR)
            .map(|h| {
                let hod = h % 24;
                let activity = match hod {
                    7 | 8 => 1.5,
                    18..=21 => 2.0,
                    0..=5 => 0.3,
                    _ => 0.8,
                };
                let temp_load = 0.05 * (temps[h] - 18.0).abs();
                let jitter = ((h * 37) % 101) as f64 / 1010.0;
                activity + temp_load + jitter
            })
            .collect();
        (
            ConsumerSeries::new(ConsumerId(5), kwh).unwrap(),
            TemperatureSeries::new(temps).unwrap(),
        )
    }

    #[test]
    fn profile_recovers_daily_shape() {
        let (series, temps) = patterned();
        let model = fit_par(&series, &temps);
        // Evening peak dominates the morning, nights are lowest.
        let peak = model.peak_hour();
        assert!((18..=21).contains(&peak), "peak hour {peak}");
        let night: f64 = model.profile[0..5].iter().sum::<f64>() / 5.0;
        let evening: f64 = model.profile[18..22].iter().sum::<f64>() / 4.0;
        assert!(evening > night + 0.5, "evening {evening} vs night {night}");
    }

    #[test]
    fn profile_is_nonnegative_and_bounded() {
        let (series, temps) = patterned();
        let model = fit_par(&series, &temps);
        let max_reading = series.peak();
        for (h, &p) in model.profile.iter().enumerate() {
            assert!(p >= 0.0, "hour {h}: profile {p} negative");
            assert!(
                p <= max_reading * 2.0,
                "hour {h}: profile {p} implausibly large"
            );
        }
    }

    #[test]
    fn constant_series_has_flat_profile() {
        let temps = TemperatureSeries::new(vec![10.0; HOURS_PER_YEAR]).unwrap();
        let series = ConsumerSeries::new(ConsumerId(1), vec![0.7; HOURS_PER_YEAR]).unwrap();
        let model = fit_par(&series, &temps);
        for &p in &model.profile {
            assert!((p - 0.7).abs() < 1e-6, "profile {p}");
        }
        assert!((model.daily_total() - 24.0 * 0.7).abs() < 1e-4);
    }

    #[test]
    fn zero_series_has_zero_profile() {
        let temps = TemperatureSeries::new(vec![10.0; HOURS_PER_YEAR]).unwrap();
        let series = ConsumerSeries::new(ConsumerId(1), vec![0.0; HOURS_PER_YEAR]).unwrap();
        let model = fit_par(&series, &temps);
        assert!(model.profile.iter().all(|&p| p == 0.0));
    }

    #[test]
    fn temperature_effect_is_removed() {
        // Consumption = pure temperature load, no daily habit: the
        // temperature-independent profile should be near-flat. The
        // temperature carries day-to-day variation (as real weather does)
        // so the temperature effect is identifiable against the AR lags.
        let temps: Vec<f64> = (0..HOURS_PER_YEAR)
            .map(|h| {
                let seasonal = 15.0 * (2.0 * std::f64::consts::PI * (h as f64) / 8760.0).sin();
                let synoptic = ((h / 24).wrapping_mul(2654435761) >> 16) % 1000;
                10.0 + seasonal + (synoptic as f64 / 100.0 - 5.0)
            })
            .collect();
        let kwh: Vec<f64> = temps.iter().map(|&t| 3.0 + 0.1 * t).collect();
        let series = ConsumerSeries::new(ConsumerId(2), kwh).unwrap();
        let temp = TemperatureSeries::new(temps).unwrap();
        let model = fit_par(&series, &temp);
        let lo = model.profile.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = model
            .profile
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(hi - lo < 0.5, "profile spread {} should be small", hi - lo);
    }

    #[test]
    fn hourly_models_capture_autocorrelation() {
        // y_{d,h} = 1.0 + 0.5 * y_{d-1,h} + noise, with hash-based noise
        // (long-period, looks i.i.d.) so the lag-1 coefficient is
        // identifiable rather than absorbed by a periodic pattern.
        let temps = TemperatureSeries::new(
            (0..HOURS_PER_YEAR)
                .map(|h| ((h * 13) % 29) as f64 - 14.0)
                .collect(),
        )
        .unwrap();
        let hash_noise = |idx: usize| -> f64 {
            // splitmix64 finalizer: breaks serial correlation, unlike a
            // plain multiplicative (Weyl) sequence.
            let mut x = idx as u64 ^ 0x1234_5678;
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            (x % 1000) as f64 / 2500.0 - 0.2 // ±0.2 kWh
        };
        let mut kwh = vec![2.0; HOURS_PER_YEAR];
        for day in 1..DAYS_PER_YEAR {
            for hour in 0..24 {
                let idx = day * 24 + hour;
                kwh[idx] = (1.0 + 0.5 * kwh[idx - 24] + hash_noise(idx)).max(0.0);
            }
        }
        let series = ConsumerSeries::new(ConsumerId(3), kwh).unwrap();
        let model = fit_par(&series, &temps);
        // Individual hourly estimates carry sampling noise (n = 362 per
        // hour), so check the coefficients averaged across the 24 models.
        let avg = |lag: usize| -> f64 {
            model.hourly.iter().map(|m| m.ar[lag]).sum::<f64>() / HOURS_PER_DAY as f64
        };
        assert!((avg(0) - 0.5).abs() < 0.07, "mean phi1 {}", avg(0));
        assert!(avg(1).abs() < 0.1, "mean phi2 {}", avg(1));
        assert!(avg(2).abs() < 0.1, "mean phi3 {}", avg(2));
        // Steady state: 1 / (1 - 0.5) = 2.
        for &p in &model.profile {
            assert!((p - 2.0).abs() < 0.25, "profile {p}");
        }
    }

    fn assert_models_bit_identical(arena: &ParModel, base: &ParModel) {
        assert!(arena.bits_eq(base), "{arena:?}\nvs {base:?}");
    }

    #[test]
    fn scratch_fit_is_bit_identical_to_baseline_even_when_dirty() {
        let (series, temps) = patterned();
        let constant = ConsumerSeries::new(ConsumerId(11), vec![0.4; HOURS_PER_YEAR]).unwrap();
        let mut scratch = smda_stats::FitScratch::new();
        // The constant series exercises the rank-deficient hour path and
        // dirties the arena before the patterned series runs through it.
        for s in [&constant, &series] {
            let base = fit_par_baseline(s, &temps);
            let arena = fit_par_scratch(s.id, s.readings(), temps.values(), &mut scratch);
            assert_models_bit_identical(&arena, &base);
        }
    }

    #[test]
    fn zero_readings_of_either_sign_fit_as_the_baseline_fits_them() {
        // `Matrix::gram` skips a zero column entry; the lane kernel masks
        // the product instead. Zeros of both signs, scattered and solid.
        let (patterned, temps) = patterned();
        let scattered: Vec<f64> = patterned
            .readings()
            .iter()
            .enumerate()
            .map(|(h, &r)| match (h * 7) % 11 {
                0 | 1 => 0.0,
                2 => -0.0,
                _ => r,
            })
            .collect();
        // Whole hours of the day at zero: rank-deficient lanes beside
        // ordinary ones in the same lane block.
        let dead_hours: Vec<f64> = patterned
            .readings()
            .iter()
            .enumerate()
            .map(|(h, &r)| match h % 24 {
                2 => 0.0,
                3 => -0.0,
                _ => r,
            })
            .collect();
        let mut scratch = smda_stats::FitScratch::new();
        for readings in [
            scattered,
            dead_hours,
            vec![0.0; HOURS_PER_YEAR],
            vec![-0.0; HOURS_PER_YEAR],
        ] {
            let s = ConsumerSeries::new(ConsumerId(21), readings).unwrap();
            let base = fit_par_baseline(&s, &temps);
            let arena = fit_par_scratch(s.id, s.readings(), temps.values(), &mut scratch);
            assert_models_bit_identical(&arena, &base);
        }
    }

    #[test]
    fn peak_hour_is_total_over_any_profile() {
        let (series, temps) = patterned();
        let mut model = fit_par(&series, &temps);
        let honest = model.peak_hour();
        // A caller-built profile may hold anything; NaN sorts above every
        // number under `total_cmp`, so it is named rather than fatal.
        model.profile[3] = f64::NAN;
        assert_eq!(model.peak_hour(), 3);
        model.profile[3] = f64::NEG_INFINITY;
        assert_eq!(model.peak_hour(), honest);
        // Ties go to the latest hour, as they always did.
        model.profile = [1.0; HOURS_PER_DAY];
        assert_eq!(model.peak_hour(), HOURS_PER_DAY - 1);
    }

    #[test]
    fn dataset_reference_runs() {
        let (series, temps) = patterned();
        let ds = smda_types::Dataset::new(vec![series], temps).unwrap();
        let out = crate::tasks::run_reference(crate::Task::Par, &ds);
        assert_eq!(out.len(), 1);
    }
}
