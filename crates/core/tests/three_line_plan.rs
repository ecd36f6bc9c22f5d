//! 3-line T1 through the arena's temperature plan — bins planned once per
//! temperature year, ranks selected on integer keys — against
//! `percentile_points`, the `BTreeMap` + sort baseline: every percentile
//! point's x and y, to the bit, and through a plan that has seen other
//! years before.

use proptest::prelude::*;
use smda_core::three_line::{fit_three_line_scratch, percentile_points, ThreeLineConfig};
use smda_core::{fit_three_line_baseline, ThreeLineModel};
use smda_stats::FitScratch;
use smda_types::{ConsumerId, ConsumerSeries, TemperatureSeries, HOURS_PER_YEAR};

/// SplitMix64: one draw per call, the year's only source of variety.
fn draw(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A finite temperature year made to sit on the grouping's edges: a band
/// of `spread` whole degrees around zero visited in eighths of a degree
/// (so `.5` boundaries, on which rounding goes away from zero, are every
/// fourth value), both zeros, the doubles next to `±0.5`, and — when
/// `far` — values that saturate the `i32` key or spread it wider than the
/// year is long. Hours 0..180 hold three bins found nowhere else, of
/// exactly 59, 60 and 61 hours.
fn temperature_year(seed: u64, spread: u64, far: bool) -> Vec<f64> {
    let mut state = seed;
    (0..HOURS_PER_YEAR)
        .map(|hour| match hour {
            0..=58 => 1000.25,
            59..=118 => 1001.5,
            119..=179 => 1002.75,
            _ => {
                let pick = draw(&mut state);
                let eighths = (pick >> 8) % (16 * spread + 1);
                let banded = eighths as f64 / 8.0 - spread as f64;
                match pick % 64 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 0.49999999999999994,
                    3 => -0.49999999999999994,
                    4 if far => 3e9,
                    5 if far => -3e9,
                    6 if far => 4e8,
                    7 if far => -2147483648.5,
                    _ => banded,
                }
            }
        })
        .collect()
}

/// Readings the raw-slice door lets through: heavy ties on a few levels,
/// zeros of both signs, negatives, subnormals, and free values.
fn readings(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed ^ 0x5eed;
    (0..len)
        .map(|_| {
            let pick = draw(&mut state);
            let free = (pick >> 11) as f64 / (1u64 << 53) as f64;
            match pick % 12 {
                0 | 1 => 0.0,
                2 => -0.0,
                3 => 0.7,
                4 => 0.7000000000000001,
                5 => -1.25,
                6 => -free,
                7 => 5e-324,
                8 => -5e-324,
                _ => free * 4.0,
            }
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// T1's points as the arena path left them, against the baseline's.
fn assert_points_match(
    scratch: &mut FitScratch,
    kwh: &[f64],
    temps: &TemperatureSeries,
    config: &ThreeLineConfig,
    what: &str,
) {
    let fitted = fit_three_line_scratch(ConsumerId(1), kwh, temps.values(), config, scratch);
    let (low, high) = percentile_points(kwh, temps, config);
    assert_eq!(
        bits(&scratch.curves[0].x),
        bits(&low.temps),
        "{what}: low x"
    );
    assert_eq!(
        bits(&scratch.curves[0].y),
        bits(&low.values),
        "{what}: low y"
    );
    assert_eq!(
        bits(&scratch.curves[1].x),
        bits(&high.temps),
        "{what}: high x"
    );
    assert_eq!(
        bits(&scratch.curves[1].y),
        bits(&high.values),
        "{what}: high y"
    );
    assert_eq!(
        fitted.is_some(),
        low.temps.len() >= 2,
        "{what}: fit presence"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn planned_t1_matches_percentile_points_bitwise(
        seed in any::<u64>(),
        spread in 1u64..40,
        far in any::<bool>(),
        // Mostly whole years; sometimes a reading slice cut anywhere, the
        // 59 / 60 / 61-hour bins included.
        cut in 0usize..4 * HOURS_PER_YEAR,
        percentile in 0u8..=10
    ) {
        let temps = TemperatureSeries::new(temperature_year(seed, spread, far)).unwrap();
        let len = if cut < HOURS_PER_YEAR { cut } else { HOURS_PER_YEAR };
        let kwh = readings(seed, len);
        let low = percentile as f64 / 10.0;
        let configs = [
            ThreeLineConfig::default(),
            // Other ranks, and a threshold the exact bins straddle again.
            ThreeLineConfig {
                low_percentile: low,
                high_percentile: 1.0 - low / 2.0,
                min_points_per_temp: 61,
                ..ThreeLineConfig::default()
            },
        ];
        // One arena for both configs: the second fit reuses the plan.
        let mut scratch = FitScratch::new();
        for config in &configs {
            let what = format!("seed {seed} spread {spread} far {far} len {len}");
            assert_points_match(&mut scratch, &kwh, &temps, config, &what);
        }
        // (No hours, no plan: the arena's empty one already fits.)
        prop_assert_eq!(scratch.take_plan_builds(), u64::from(len > 0));
    }
}

#[test]
fn bins_of_59_60_and_61_hours_fall_on_either_side_of_the_threshold() {
    let temps = TemperatureSeries::new(temperature_year(7, 12, false)).unwrap();
    let kwh = readings(7, HOURS_PER_YEAR);
    let mut scratch = FitScratch::new();
    for (min_points, kept) in [
        (59, vec![1000.0, 1002.0, 1003.0]),
        (60, vec![1002.0, 1003.0]),
        (61, vec![1003.0]),
        (62, vec![]),
    ] {
        let config = ThreeLineConfig {
            min_points_per_temp: min_points,
            ..ThreeLineConfig::default()
        };
        assert_points_match(&mut scratch, &kwh, &temps, &config, "exact bins");
        let exact: Vec<f64> = scratch.curves[0]
            .x
            .iter()
            .copied()
            .filter(|&t| t >= 1000.0)
            .collect();
        assert_eq!(exact, kept, "min_points_per_temp = {min_points}");
    }
}

fn fresh_fit(kwh: &[f64], temps: &[f64]) -> Option<ThreeLineModel> {
    let config = ThreeLineConfig::default();
    fit_three_line_scratch(ConsumerId(1), kwh, temps, &config, &mut FitScratch::new())
}

#[test]
fn a_plan_is_reused_only_for_the_year_it_was_built_from() {
    let config = ThreeLineConfig::default();
    let a = temperature_year(11, 15, false);
    // One mantissa bit of one hour, the one worth half a degree at this
    // magnitude: hour 4000 changes bin, nothing else in the year moves.
    let mut b = a.clone();
    b[4000] = 6.75;
    let mut a = a;
    a[4000] = 6.25;
    assert_eq!((a[4000].to_bits() ^ b[4000].to_bits()).count_ones(), 1);
    // A bin that gains or loses an hour interpolates between other ranks,
    // so the two years fit differently (asserted below).
    let kwh = readings(11, HOURS_PER_YEAR);

    let mut scratch = FitScratch::new();
    let mut builds = 0;
    for (year, name) in [(&a, "A"), (&b, "B"), (&a, "A again")] {
        let through_shared =
            fit_three_line_scratch(ConsumerId(1), &kwh, year, &config, &mut scratch);
        assert!(through_shared.is_some(), "{name}");
        assert_eq!(through_shared, fresh_fit(&kwh, year), "{name}");
        builds += scratch.take_plan_builds();
    }
    assert_eq!(builds, 3, "A, B, A on one arena: every switch rebuilds");
    assert_ne!(
        fresh_fit(&kwh, &a),
        fresh_fit(&kwh, &b),
        "the fixture must tell the two years apart"
    );

    // The same year at another address is the same year.
    let moved = a.clone();
    let _ = fit_three_line_scratch(ConsumerId(1), &kwh, &moved, &config, &mut scratch);
    assert_eq!(scratch.take_plan_builds(), 0);
}

#[test]
fn a_non_finite_temperature_year_yields_none_and_does_not_poison_the_next() {
    let config = ThreeLineConfig::default();
    let year = temperature_year(3, 20, false);
    let kwh = readings(3, HOURS_PER_YEAR);
    let mut scratch = FitScratch::new();
    for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut bad = year.clone();
        bad[8759] = poison;
        for _ in 0..2 {
            let fit = fit_three_line_scratch(ConsumerId(1), &kwh, &bad, &config, &mut scratch);
            assert!(fit.is_none(), "temperature {poison}");
        }
        let fit = fit_three_line_scratch(ConsumerId(1), &kwh, &year, &config, &mut scratch);
        assert!(fit.is_some());
        assert_eq!(fit, fresh_fit(&kwh, &year), "after temperature {poison}");
    }
}

#[test]
fn n_consumers_through_one_arena_build_one_plan() {
    let config = ThreeLineConfig::default();
    let year = temperature_year(5, 18, false);
    let mut scratch = FitScratch::new();
    for consumer in 0..12 {
        let kwh = readings(consumer, HOURS_PER_YEAR);
        let fit = fit_three_line_scratch(ConsumerId(1), &kwh, &year, &config, &mut scratch);
        assert!(fit.is_some());
    }
    assert_eq!(scratch.take_plan_builds(), 1);
}

#[test]
fn temperatures_that_saturate_or_scatter_the_key_fit_like_the_baseline() {
    // `3e9` and `-3e9` are finite (a `TemperatureSeries` takes them) and
    // saturate the `i32` key at both ends: the key span does not fit an
    // `i32`. `±4e8` does not saturate, but a table over that span would be
    // gigabytes. Each year keeps enough ordinary hours for a real fit.
    let config = ThreeLineConfig::default();
    for far in [3e9, 4e8] {
        let mut year = temperature_year(9, 14, false);
        for hour in (200..HOURS_PER_YEAR).step_by(20) {
            year[hour] = if hour % 40 == 0 { far } else { -far };
        }
        let temps = TemperatureSeries::new(year).unwrap();
        let kwh: Vec<f64> = readings(9, HOURS_PER_YEAR)
            .into_iter()
            .map(f64::abs)
            .collect();
        let series = ConsumerSeries::new(ConsumerId(1), kwh).unwrap();
        let mut scratch = FitScratch::new();
        assert_points_match(&mut scratch, series.readings(), &temps, &config, "far year");
        let points = scratch.curves[0].x.clone();
        assert!(points.len() > 20, "{} points at ±{far:e}", points.len());
        assert!(points.contains(&far.min(i32::MAX as f64)));
        assert!(points.contains(&(-far).max(i32::MIN as f64)));
        let arena = fit_three_line_scratch(
            series.id,
            series.readings(),
            temps.values(),
            &config,
            &mut scratch,
        );
        let baseline = fit_three_line_baseline(&series, &temps, &config);
        assert!(arena.is_some());
        assert_eq!(arena, baseline, "±{far:e}");
    }
}
