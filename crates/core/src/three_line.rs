//! Benchmark task 2 (Section 3.2): the 3-line thermal sensitivity model.
//!
//! Following Birt et al. \[10\], each consumer's consumption–temperature
//! scatter plot is summarized by two piecewise-linear curves of three
//! segments each: one fitted to the 90th percentile of consumption per
//! temperature value, one to the 10th percentile. The left segment's slope
//! is the *heating gradient*, the right segment's slope the *cooling
//! gradient*, and the lowest point of the 10th-percentile curve the
//! *base load*.
//!
//! The computation is phased exactly as the paper instruments it
//! (Figure 6):
//!
//! * **T1** — group readings by temperature (rounded to the nearest °C)
//!   and compute the 10th/90th percentile of consumption per group;
//! * **T2** — fit the two sets of three least-squares lines, choosing the
//!   two breakpoints by exhaustive search over candidate split positions
//!   (O(1) per candidate via prefix sums);
//! * **T3** — remove discontinuities: if adjacent free-fitted lines
//!   disagree at a breakpoint, re-fit a *continuous* piecewise model with
//!   hinge basis `[1, t, (t−k₁)⁺, (t−k₂)⁺]` at the chosen knots.

use std::cmp::Ordering;
use std::time::{Duration, Instant};

use smda_stats::linalg::Matrix;
use smda_stats::scratch::{FitScratch, NormalEq, SegmentSums};
use smda_stats::{ols_multiple, quantile_sorted, quantiles_by_selection, with_fit_scratch};
use smda_types::{ConsumerId, ConsumerSeries, TemperatureSeries};

/// Tuning knobs; the defaults reproduce the paper's setup.
#[derive(Debug, Clone, Copy)]
pub struct ThreeLineConfig {
    /// Lower percentile curve (paper: 10th).
    pub low_percentile: f64,
    /// Upper percentile curve (paper: 90th).
    pub high_percentile: f64,
    /// Minimum readings a temperature group needs to contribute a point.
    pub min_points_per_temp: usize,
    /// Minimum percentile points per fitted segment.
    pub min_segment_points: usize,
    /// A free fit whose lines disagree at a knot by more than this
    /// fraction of the consumption range triggers the T3 re-fit.
    pub continuity_tolerance: f64,
}

impl Default for ThreeLineConfig {
    fn default() -> Self {
        ThreeLineConfig {
            low_percentile: 0.10,
            high_percentile: 0.90,
            min_points_per_temp: 60,
            min_segment_points: 3,
            continuity_tolerance: 0.02,
        }
    }
}

/// One straight-line segment over a temperature interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineSegment {
    /// Left end of the temperature interval, °C.
    pub lo: f64,
    /// Right end of the temperature interval, °C.
    pub hi: f64,
    /// Line intercept (kWh at 0 °C).
    pub intercept: f64,
    /// Line slope (kWh per °C).
    pub slope: f64,
}

impl LineSegment {
    /// Consumption predicted at temperature `t`.
    fn eval(&self, t: f64) -> f64 {
        self.intercept + self.slope * t
    }
}

/// Three segments with two knots, fitted to one percentile point set.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseFit {
    /// Heating / base / cooling segments, left to right.
    pub segments: [LineSegment; 3],
    /// The two temperature breakpoints.
    pub knots: [f64; 2],
    /// Residual sum of squares of the final (possibly adjusted) fit.
    pub sse: f64,
    /// Whether the T3 continuity re-fit replaced the free fit.
    pub adjusted: bool,
}

impl PiecewiseFit {
    /// Predicted consumption at temperature `t` (segments chosen by knot).
    fn eval(&self, t: f64) -> f64 {
        if t < self.knots[0] {
            self.segments[0].eval(t)
        } else if t < self.knots[1] {
            self.segments[1].eval(t)
        } else {
            self.segments[2].eval(t)
        }
    }

    /// Largest gap between adjacent segments at their shared knot.
    fn max_discontinuity(&self) -> f64 {
        let d0 =
            (self.segments[0].eval(self.knots[0]) - self.segments[1].eval(self.knots[0])).abs();
        let d1 =
            (self.segments[1].eval(self.knots[1]) - self.segments[2].eval(self.knots[1])).abs();
        d0.max(d1)
    }
}

/// The fitted 3-line model for one consumer.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreeLineModel {
    /// The household the model describes.
    pub consumer: ConsumerId,
    /// Fit to the 90th-percentile points.
    pub high: PiecewiseFit,
    /// Fit to the 10th-percentile points.
    pub low: PiecewiseFit,
}

impl ThreeLineModel {
    /// Heating sensitivity: slope of the left 90th-percentile segment
    /// (negative when consumption rises as it gets colder).
    pub fn heating_gradient(&self) -> f64 {
        self.high.segments[0].slope
    }

    /// Cooling sensitivity: slope of the right 90th-percentile segment
    /// (positive when consumption rises as it gets hotter).
    pub fn cooling_gradient(&self) -> f64 {
        self.high.segments[2].slope
    }

    /// Base load: the lowest point of the 10th-percentile curve — the
    /// always-on consumption regardless of temperature.
    pub fn base_load(&self) -> f64 {
        // A piecewise-linear curve attains its minimum at an interval end.
        let xs = [
            self.low.segments[0].lo,
            self.low.knots[0],
            self.low.knots[1],
            self.low.segments[2].hi,
        ];
        xs.iter()
            .map(|&t| self.low.eval(t))
            .fold(f64::INFINITY, f64::min)
    }
}

smda_types::bit_eq_fields!(
    LineSegment { lo, hi, intercept, slope }
    PiecewiseFit { segments, knots, sse, adjusted }
    ThreeLineModel { consumer, high, low }
);

/// Percentile points for one curve: temperatures ascending.
#[derive(Debug, Clone, Default)]
pub struct PercentilePoints {
    /// Temperature per point, °C, strictly ascending.
    pub temps: Vec<f64>,
    /// Percentile consumption per point, kWh.
    pub values: Vec<f64>,
}

/// Whether every value is finite. Folded with `&`, not short-circuited, so
/// the year-long scan vectorizes.
fn all_finite(values: &[f64]) -> bool {
    values.iter().fold(true, |ok, v| ok & v.is_finite())
}

/// Phase T1: group by rounded temperature and extract the two percentile
/// point sets. Exposed so the platform engines can reuse it.
///
/// This is the allocating *baseline* implementation; the production path
/// runs the same extraction through [`FitScratch`]'s temperature plan
/// (see [`fit_three_line_scratch`]), and `smda-bench --check fits` pins
/// the two bit-identical.
///
/// A non-finite reading or temperature yields no points at all: a NaN
/// has no rank and no temperature bin.
pub fn percentile_points(
    readings: &[f64],
    temperature: &TemperatureSeries,
    config: &ThreeLineConfig,
) -> (PercentilePoints, PercentilePoints) {
    let n = readings.len().min(temperature.values().len());
    if !all_finite(&readings[..n]) || !all_finite(&temperature.values()[..n]) {
        return Default::default();
    }
    // Group consumption values by integer temperature. Temperatures span
    // a modest physical range, so a BTreeMap keeps them ordered cheaply.
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<i32, Vec<f64>> = BTreeMap::new();
    for (kwh, t) in readings.iter().zip(temperature.values()) {
        groups.entry(t.round() as i32).or_default().push(*kwh);
    }
    let mut low = PercentilePoints::default();
    let mut high = PercentilePoints::default();
    for (t, mut values) in groups {
        if values.len() < config.min_points_per_temp {
            continue;
        }
        // Finite values (checked above) always compare.
        values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
        low.temps.push(t as f64);
        low.values
            .push(quantile_sorted(&values, config.low_percentile));
        high.temps.push(t as f64);
        high.values
            .push(quantile_sorted(&values, config.high_percentile));
    }
    (low, high)
}

/// Whether the free fit's lines meet at both knots to within
/// `continuity_tolerance` of the consumption range `y` spans — T3's
/// verdict, the same on both paths.
fn continuous_enough(fit: &PiecewiseFit, y: &[f64], config: &ThreeLineConfig) -> bool {
    let range = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - y.iter().cloned().fold(f64::INFINITY, f64::min);
    fit.max_discontinuity() <= config.continuity_tolerance * range.max(1e-9)
}

/// The continuous model `y = a + b t + c (t−k1)⁺ + d (t−k2)⁺` with
/// coefficients `beta` at `free`'s knots, read off as three segments —
/// what T3 returns on both paths once its solver has found `beta`.
fn hinge_model(free: &PiecewiseFit, beta: &[f64], sse: f64) -> PiecewiseFit {
    let [k1, k2] = free.knots;
    let (a, b, c, d) = (beta[0], beta[1], beta[2], beta[3]);
    let segment = |lo, hi, intercept, slope| LineSegment {
        lo,
        hi,
        intercept,
        slope,
    };
    PiecewiseFit {
        segments: [
            segment(free.segments[0].lo, k1, a, b),
            segment(k1, k2, a - c * k1, b + c),
            segment(k2, free.segments[2].hi, a - c * k1 - d * k2, b + c + d),
        ],
        knots: [k1, k2],
        sse,
        adjusted: true,
    }
}

/// Phase T3: re-fit a continuous hinge-basis model at the chosen knots if
/// the free fit is discontinuous beyond tolerance.
fn adjust_continuity(
    fit: PiecewiseFit,
    points: &PercentilePoints,
    config: &ThreeLineConfig,
) -> PiecewiseFit {
    if continuous_enough(&fit, &points.values, config) {
        return fit;
    }
    let [k1, k2] = fit.knots;
    let rows: Vec<Vec<f64>> = points
        .temps
        .iter()
        .map(|&t| vec![1.0, t, (t - k1).max(0.0), (t - k2).max(0.0)])
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let design = Matrix::from_rows(&refs);
    match ols_multiple(&design, &points.values) {
        Some(hinge) => hinge_model(&fit, &hinge.beta, hinge.sse),
        // Rank-deficient hinge design (e.g. no points beyond a knot):
        // keep the free fit rather than inventing coefficients.
        None => fit,
    }
}

/// Phase T2: exhaustive breakpoint search for the best free 3-segment
/// fit, on borrowed point slices with the prefix sums rebuilt into
/// `sums` — the arena's retained buffers on the production path, a fresh
/// `SegmentSums` on the baseline's.
fn free_fit_scratch(
    x: &[f64],
    y: &[f64],
    config: &ThreeLineConfig,
    sums: &mut SegmentSums,
) -> PiecewiseFit {
    let n = x.len();
    // Each segment must cover a meaningful share of the temperature
    // range, not just `min_segment_points` raw points — otherwise a
    // handful of noisy percentile estimates at the extreme-cold tail
    // forms its own "segment" and hijacks the heating gradient.
    let m = config.min_segment_points.max(n / 8);
    sums.build(x, y);

    if n < 3 * m {
        // Too few percentile points for three segments: fit one line and
        // present it as three collinear segments at range thirds.
        let (a, b, sse) = sums.fit(0, n);
        let (lo, hi) = (x[0], x[n - 1]);
        let k1 = lo + (hi - lo) / 3.0;
        let k2 = lo + 2.0 * (hi - lo) / 3.0;
        let seg = |l: f64, h: f64| LineSegment {
            lo: l,
            hi: h,
            intercept: a,
            slope: b,
        };
        return PiecewiseFit {
            segments: [seg(lo, k1), seg(k1, k2), seg(k2, hi)],
            knots: [k1, k2],
            sse,
            adjusted: false,
        };
    }

    let mut best = (f64::INFINITY, m, 2 * m);
    // The right segment's SSE depends on `j` alone: fit each once, not
    // once per `i`.
    sums.cache_tail_sse(2 * m, n - m);
    for i in m..=(n - 2 * m) {
        let (_, _, sse1) = sums.fit(0, i);
        for j in (i + m)..=(n - m) {
            let (_, _, sse2) = sums.fit(i, j);
            let sse3 = sums.tail_sse(j);
            let total = sse1 + sse2 + sse3;
            if total < best.0 {
                best = (total, i, j);
            }
        }
    }
    let (sse, i, j) = best;
    let (a1, b1, _) = sums.fit(0, i);
    let (a2, b2, _) = sums.fit(i, j);
    let (a3, b3, _) = sums.fit(j, n);
    let k1 = (x[i - 1] + x[i]) / 2.0;
    let k2 = (x[j - 1] + x[j]) / 2.0;
    PiecewiseFit {
        segments: [
            LineSegment {
                lo: x[0],
                hi: k1,
                intercept: a1,
                slope: b1,
            },
            LineSegment {
                lo: k1,
                hi: k2,
                intercept: a2,
                slope: b2,
            },
            LineSegment {
                lo: k2,
                hi: x[n - 1],
                intercept: a3,
                slope: b3,
            },
        ],
        knots: [k1, k2],
        sse,
        adjusted: false,
    }
}

/// Phase T3 on borrowed point slices, hinge rows regenerated into the
/// arena's in-place solver instead of a materialized [`Matrix`]. The
/// solver reproduces [`ols_multiple`] bit-for-bit, so the adjusted
/// segments match [`adjust_continuity`] exactly.
fn adjust_continuity_scratch(
    fit: PiecewiseFit,
    x: &[f64],
    y: &[f64],
    config: &ThreeLineConfig,
    solver: &mut NormalEq,
) -> PiecewiseFit {
    if continuous_enough(&fit, y, config) {
        return fit;
    }
    let [k1, k2] = fit.knots;
    let hinge = solver.solve(
        x.len(),
        4,
        &mut |r, row| {
            let t = x[r];
            row[0] = 1.0;
            row[1] = t;
            row[2] = (t - k1).max(0.0);
            row[3] = (t - k2).max(0.0);
        },
        y,
    );
    match hinge {
        Some(hinge) => hinge_model(&fit, &hinge.beta, hinge.sse),
        // Rank-deficient hinge design, as in `adjust_continuity`.
        None => fit,
    }
}

/// Fit the 3-line model through a caller-provided [`FitScratch`] — the
/// allocation-free production path. Bit-identical to
/// [`fit_three_line_baseline`] on the same inputs, dirty arena or fresh.
///
/// Returns `None` when the series yields fewer than two percentile points
/// (e.g. a constant temperature year, or any non-finite reading or
/// temperature), which cannot support any line.
///
/// The model is a function of the inputs alone. What the fit *cost* —
/// Figure 6's T1/T2/T3 split — is charged to the arena
/// ([`FitScratch::take_phase_times`]), as its reuse and plan counts are.
pub fn fit_three_line_scratch(
    consumer: ConsumerId,
    readings: &[f64],
    temps: &[f64],
    config: &ThreeLineConfig,
    scratch: &mut FitScratch,
) -> Option<ThreeLineModel> {
    scratch.note_fit();

    let started = Instant::now();
    {
        let FitScratch { plan, curves, .. } = scratch;
        let [low, high] = curves;
        low.clear();
        high.clear();
        let n = readings.len().min(temps.len());
        // Which hours share a temperature bin is the same for every
        // consumer of a dataset: planned once per temperature year, the
        // year compared by content on every fit. A non-finite temperature
        // year has no bins, a non-finite reading gathers to `None`.
        plan.prepare(&temps[..n]);
        if let Some(bins) = plan.gather(&readings[..n]) {
            bins.for_each(|key, keys| {
                if keys.len() < config.min_points_per_temp {
                    return;
                }
                // The (at most four) ranks the two percentiles read,
                // selected instead of sorting the whole bin.
                let [p_low, p_high] =
                    quantiles_by_selection(keys, [config.low_percentile, config.high_percentile]);
                low.push(key as f64, p_low);
                high.push(key as f64, p_high);
            });
        }
    }
    let t1_done = Instant::now();
    if scratch.curves[0].len() < 2 {
        scratch.note_phase_times([t1_done - started, Duration::ZERO, Duration::ZERO]);
        return None;
    }

    let FitScratch {
        curves,
        segments,
        solver,
        ..
    } = scratch;
    let [low_pts, high_pts] = curves;

    let high_free = free_fit_scratch(&high_pts.x, &high_pts.y, config, segments);
    let low_free = free_fit_scratch(&low_pts.x, &low_pts.y, config, segments);
    let t2_done = Instant::now();

    let high = adjust_continuity_scratch(high_free, &high_pts.x, &high_pts.y, config, solver);
    let low = adjust_continuity_scratch(low_free, &low_pts.x, &low_pts.y, config, solver);
    let t3_done = Instant::now();

    scratch.note_phase_times([t1_done - started, t2_done - t1_done, t3_done - t2_done]);
    Some(ThreeLineModel {
        consumer,
        high,
        low,
    })
}

/// Fit the 3-line model with the pre-arena allocating implementation —
/// the reference that `--check fits`, the proptests, and
/// `tests/tests/fits.rs` pin the scratch path against. T1 (`BTreeMap`
/// grouping) and T3's solve (`Matrix` + `ols_multiple`) are independent
/// code; T2 is the one breakpoint search run over fresh buffers, and
/// T3's frame (the tolerance verdict, the segments read off the hinge
/// coefficients) is shared too.
pub fn fit_three_line_baseline(
    series: &ConsumerSeries,
    temperature: &TemperatureSeries,
    config: &ThreeLineConfig,
) -> Option<ThreeLineModel> {
    let (low_pts, high_pts) = percentile_points(series.readings(), temperature, config);
    if low_pts.temps.len() < 2 {
        return None;
    }

    // The one T2 search, each over fresh prefix-sum buffers where the
    // scratch path reuses dirty ones.
    let (x, y) = (&high_pts.temps, &high_pts.values);
    let high_free = free_fit_scratch(x, y, config, &mut SegmentSums::default());
    let (x, y) = (&low_pts.temps, &low_pts.values);
    let low_free = free_fit_scratch(x, y, config, &mut SegmentSums::default());

    Some(ThreeLineModel {
        consumer: series.id,
        high: adjust_continuity(high_free, &high_pts, config),
        low: adjust_continuity(low_free, &low_pts, config),
    })
}

/// Fit the 3-line model for one consumer with default configuration,
/// through the calling thread's [`FitScratch`] arena.
pub fn fit_three_line(
    series: &ConsumerSeries,
    temperature: &TemperatureSeries,
) -> Option<ThreeLineModel> {
    with_fit_scratch(|scratch| {
        fit_three_line_scratch(
            series.id,
            series.readings(),
            temperature.values(),
            &ThreeLineConfig::default(),
            scratch,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_stats::scratch::round_to_i32;
    use smda_types::{BitEq, HOURS_PER_YEAR};

    /// A synthetic year whose consumption is an exact V: heating below
    /// 10 °C with slope −0.2, flat base 1.0 kWh between 10 and 20 °C,
    /// cooling above 20 °C with slope +0.3.
    fn v_shaped() -> (ConsumerSeries, TemperatureSeries) {
        let temps: Vec<f64> = (0..HOURS_PER_YEAR)
            .map(|h| ((h % 51) as f64) - 15.0)
            .collect();
        let kwh: Vec<f64> = temps
            .iter()
            .map(|&t| {
                if t < 10.0 {
                    1.0 + 0.2 * (10.0 - t)
                } else if t <= 20.0 {
                    1.0
                } else {
                    1.0 + 0.3 * (t - 20.0)
                }
            })
            .collect();
        (
            ConsumerSeries::new(ConsumerId(7), kwh).unwrap(),
            TemperatureSeries::new(temps).unwrap(),
        )
    }

    #[test]
    fn recovers_gradients_of_exact_v() {
        let (series, temps) = v_shaped();
        let model = fit_three_line(&series, &temps).unwrap();
        assert!(
            (model.heating_gradient() + 0.2).abs() < 0.03,
            "heating {}",
            model.heating_gradient()
        );
        assert!(
            (model.cooling_gradient() - 0.3).abs() < 0.03,
            "cooling {}",
            model.cooling_gradient()
        );
        // Knots are discretized to midpoints between integer temperatures,
        // so the base estimate carries up to ~½°C × slope of error.
        assert!(
            (model.base_load() - 1.0).abs() < 0.15,
            "base {}",
            model.base_load()
        );
        // Knots near the true change points.
        assert!(
            (model.high.knots[0] - 10.0).abs() < 3.0,
            "k1 {}",
            model.high.knots[0]
        );
        assert!(
            (model.high.knots[1] - 20.0).abs() < 3.0,
            "k2 {}",
            model.high.knots[1]
        );
    }

    #[test]
    fn percentiles_split_high_and_low() {
        // Alternate a high-consumption and low-consumption regime at the
        // same temperature: the 90th percentile tracks the high regime.
        let temps: Vec<f64> = (0..HOURS_PER_YEAR)
            .map(|h| ((h / 200) % 30) as f64)
            .collect();
        let kwh: Vec<f64> = (0..HOURS_PER_YEAR)
            .map(|h| if h % 10 == 0 { 4.0 } else { 0.5 })
            .collect();
        let series = ConsumerSeries::new(ConsumerId(1), kwh).unwrap();
        let temp = TemperatureSeries::new(temps).unwrap();
        let (low, high) = percentile_points(series.readings(), &temp, &ThreeLineConfig::default());
        assert_eq!(low.temps, high.temps);
        for (l, h) in low.values.iter().zip(&high.values) {
            assert!(l <= h);
            assert!((*l - 0.5).abs() < 0.2);
        }
    }

    #[test]
    fn adjusted_fit_is_continuous() {
        // A step function: free segments will disagree at the knots, so
        // T3 must produce a continuous model.
        let temps: Vec<f64> = (0..HOURS_PER_YEAR)
            .map(|h| ((h % 41) as f64) - 10.0)
            .collect();
        let kwh: Vec<f64> = temps
            .iter()
            .map(|&t| {
                if t < 0.0 {
                    3.0
                } else if t < 15.0 {
                    1.0
                } else {
                    2.5
                }
            })
            .collect();
        let series = ConsumerSeries::new(ConsumerId(2), kwh).unwrap();
        let temp = TemperatureSeries::new(temps).unwrap();
        let model = fit_three_line(&series, &temp).unwrap();
        assert!(model.high.adjusted);
        assert!(model.high.max_discontinuity() < 1e-9);
        assert!(model.low.max_discontinuity() < 1e-9);
    }

    #[test]
    fn continuous_free_fit_is_left_alone() {
        let (series, temps) = v_shaped();
        let model = fit_three_line(&series, &temps).unwrap();
        // The exact V needs no adjustment on the high percentile curve
        // (free fit is already near-continuous).
        assert!(model.high.max_discontinuity() < 0.2);
    }

    #[test]
    fn constant_temperature_yields_none() {
        let temps = TemperatureSeries::new(vec![5.0; HOURS_PER_YEAR]).unwrap();
        let series = ConsumerSeries::new(ConsumerId(3), vec![1.0; HOURS_PER_YEAR]).unwrap();
        assert!(fit_three_line(&series, &temps).is_none());
    }

    #[test]
    fn sparse_temperatures_fall_back_to_single_line() {
        // Only 4 distinct temperatures → fewer than 9 percentile points.
        let temps: Vec<f64> = (0..HOURS_PER_YEAR).map(|h| (h % 4) as f64 * 5.0).collect();
        let kwh: Vec<f64> = temps.iter().map(|&t| 2.0 - 0.05 * t).collect();
        let series = ConsumerSeries::new(ConsumerId(4), kwh).unwrap();
        let temp = TemperatureSeries::new(temps).unwrap();
        let model = fit_three_line(&series, &temp).unwrap();
        // All three segments share the single fitted slope.
        let s = model.high.segments;
        assert!((s[0].slope - s[1].slope).abs() < 1e-9);
        assert!((s[1].slope - s[2].slope).abs() < 1e-9);
        assert!((s[0].slope + 0.05).abs() < 1e-6);
    }

    #[test]
    fn phase_times_are_recorded() {
        let (series, temps) = v_shaped();
        let mut scratch = smda_stats::FitScratch::new();
        let config = ThreeLineConfig::default();
        fit_three_line_scratch(
            series.id,
            series.readings(),
            temps.values(),
            &config,
            &mut scratch,
        )
        .unwrap();
        // The clock is the arena's to report, not the model's to carry.
        let [t1, t2, _t3] = scratch.take_phase_times();
        assert!(t1 > Duration::ZERO);
        assert!(t2 > Duration::ZERO);
        assert_eq!(scratch.take_phase_times(), [Duration::ZERO; 3]);

        // A degenerate year stops after T1, and T1 is still charged.
        let flat = vec![5.0; HOURS_PER_YEAR];
        let fit =
            fit_three_line_scratch(series.id, series.readings(), &flat, &config, &mut scratch);
        assert!(fit.is_none());
        let [t1, t2, t3] = scratch.take_phase_times();
        assert!(t1 > Duration::ZERO);
        assert_eq!([t2, t3], [Duration::ZERO; 2]);
    }

    #[test]
    fn whole_dataset_reference_runs() {
        let (series, temps) = v_shaped();
        let ds = smda_types::Dataset::new(vec![series], temps).unwrap();
        let out = crate::tasks::run_reference(crate::Task::ThreeLine, &ds);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn scratch_fit_is_bit_identical_to_baseline_even_when_dirty() {
        let config = ThreeLineConfig::default();
        let (v_series, v_temps) = v_shaped();
        // A second, discontinuous series so the T3 hinge solver runs too.
        let step_temps: Vec<f64> = (0..HOURS_PER_YEAR)
            .map(|h| ((h % 41) as f64) - 10.0)
            .collect();
        let step_kwh: Vec<f64> = step_temps
            .iter()
            .map(|&t| if t < 0.0 { 3.0 } else { 1.0 })
            .collect();
        let step_series = ConsumerSeries::new(ConsumerId(9), step_kwh).unwrap();
        let step_temp = TemperatureSeries::new(step_temps).unwrap();

        let mut scratch = smda_stats::FitScratch::new();
        for (series, temps) in [(&v_series, &v_temps), (&step_series, &step_temp)] {
            let base = fit_three_line_baseline(series, temps, &config).unwrap();
            // The scratch is dirty from the previous iteration on purpose.
            let arena = fit_three_line_scratch(
                series.id,
                series.readings(),
                temps.values(),
                &config,
                &mut scratch,
            )
            .unwrap();
            assert!(arena.bits_eq(&base), "{arena:?}\nvs {base:?}");
        }
    }

    #[test]
    fn a_non_finite_reading_or_temperature_yields_none_not_a_panic() {
        let config = ThreeLineConfig::default();
        let (series, temps) = v_shaped();
        let mut scratch = smda_stats::FitScratch::new();
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // A poisoned reading, through the scratch path and through the
            // baseline's T1 (its only door for raw readings: the series
            // types refuse non-finite values).
            let mut readings = series.readings().to_vec();
            readings[4321] = poison;
            let fit =
                fit_three_line_scratch(series.id, &readings, temps.values(), &config, &mut scratch);
            assert!(fit.is_none(), "reading {poison}");
            let (low, high) = percentile_points(&readings, &temps, &config);
            assert!(
                low.temps.is_empty() && high.temps.is_empty(),
                "reading {poison}"
            );

            // A poisoned temperature, which only a raw-slice caller can
            // deliver.
            let mut bad_temps = temps.values().to_vec();
            bad_temps[17] = poison;
            let fit = fit_three_line_scratch(
                series.id,
                series.readings(),
                &bad_temps,
                &config,
                &mut scratch,
            );
            assert!(fit.is_none(), "temperature {poison}");
        }
        // The arena is not left poisoned.
        let clean = fit_three_line_scratch(
            series.id,
            series.readings(),
            temps.values(),
            &config,
            &mut scratch,
        );
        assert_eq!(clean, fit_three_line_baseline(&series, &temps, &config));
    }

    #[test]
    fn integer_rounding_is_round_half_away_then_saturate() {
        let edges = [
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            17.499999999999996,
            -17.500000000000004,
            2147483646.5,
            2147483647.4,
            2147483647.5,
            -2147483648.5,
            4294967296.25,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            4503599627370497.0,
        ];
        for t in edges {
            assert_eq!(round_to_i32(t), t.round() as i32, "t = {t:e}");
        }
        for i in -4000..4000 {
            let t = i as f64 / 8.0 + 1e-9;
            assert_eq!(round_to_i32(t), t.round() as i32, "t = {t}");
            let t = i as f64 / 8.0;
            assert_eq!(round_to_i32(t), t.round() as i32, "t = {t}");
        }
    }

    #[test]
    fn zero_heavy_bins_select_the_same_percentiles_the_sort_did() {
        // A meter that reads zero — both signs of it — most of the time:
        // every temperature bin is mostly tied zeros, the case where
        // selection and the stable sort may order elements differently.
        let config = ThreeLineConfig::default();
        let (v, temps) = v_shaped();
        let kwh: Vec<f64> = v
            .readings()
            .iter()
            .enumerate()
            .map(|(h, &r)| match h % 5 {
                0 => r + ((h * 37) % 101) as f64 / 1010.0,
                1 | 2 => 0.0,
                _ => -0.0,
            })
            .collect();
        let series = ConsumerSeries::new(ConsumerId(12), kwh).unwrap();
        let (base_low, base_high) = percentile_points(series.readings(), &temps, &config);
        let mut scratch = smda_stats::FitScratch::new();
        let arena = fit_three_line_scratch(
            series.id,
            series.readings(),
            temps.values(),
            &config,
            &mut scratch,
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&scratch.curves[0].y), bits(&base_low.values));
        assert_eq!(bits(&scratch.curves[1].y), bits(&base_high.values));
        assert_eq!(bits(&scratch.curves[0].x), bits(&base_low.temps));
        assert_eq!(arena, fit_three_line_baseline(&series, &temps, &config));
    }

    #[test]
    fn piecewise_eval_uses_correct_segment() {
        let fit = PiecewiseFit {
            segments: [
                LineSegment {
                    lo: -10.0,
                    hi: 0.0,
                    intercept: 1.0,
                    slope: -1.0,
                },
                LineSegment {
                    lo: 0.0,
                    hi: 10.0,
                    intercept: 1.0,
                    slope: 0.0,
                },
                LineSegment {
                    lo: 10.0,
                    hi: 20.0,
                    intercept: -1.0,
                    slope: 0.2,
                },
            ],
            knots: [0.0, 10.0],
            sse: 0.0,
            adjusted: false,
        };
        assert_eq!(fit.eval(-5.0), 6.0);
        assert_eq!(fit.eval(5.0), 1.0);
        assert_eq!(fit.eval(15.0), 2.0);
    }
}
