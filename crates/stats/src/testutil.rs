//! Fixtures shared by the kernels' unit tests.

use smda_types::HOURS_PER_DAY;

use crate::linalg::Matrix;
use crate::simd::{LANE_COLS, LANE_LAGS};

/// `n` deterministic xorshift rows of `len` values in `[0, 4)`.
pub(crate) fn pseudo_series(n: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1000) as f64 / 250.0
    };
    (0..n).map(|_| (0..len).map(|_| next()).collect()).collect()
}

/// Rows concatenated row-major, plus the stride.
pub(crate) fn flat(rows: &[Vec<f64>]) -> (Vec<f64>, usize) {
    let stride = rows.first().map_or(0, Vec::len);
    (rows.iter().flatten().copied().collect(), stride)
}

/// A day-major `(y, x)` pair of `days` days built to hit every branch of
/// the hourly lane fit: positive readings with `0.0` and `-0.0` scattered
/// through them, hour 5 constant (rank deficient: `ols_multiple` returns
/// `None`), and hour 9's exogenous column within 1e-9 of twice its first
/// lag (the gram is not numerically positive definite: QR fallback).
pub(crate) fn awkward_year(days: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let draws = pseudo_series(2, days * HOURS_PER_DAY, seed);
    let (mut y, mut x) = (draws[0].clone(), draws[1].clone());
    for (i, v) in y.iter_mut().enumerate() {
        match i % 13 {
            3 => *v = 0.0,
            8 => *v = -0.0,
            _ => *v += 0.25,
        }
    }
    for day in 0..days {
        y[day * HOURS_PER_DAY + 5] = 0.4;
        if day > 0 {
            let nudge = 1e-9 * (day % 3) as f64;
            x[day * HOURS_PER_DAY + 9] = 2.0 * y[(day - 1) * HOURS_PER_DAY + 9] + nudge;
        }
    }
    (y, x)
}

/// Hour `hour`'s design `[1, y[d−1], y[d−2], y[d−3], x[d]]` and response
/// over days `3..days` of a day-major pair, materialized — what the lane
/// kernels never build, for `Matrix::gram` / `ols_multiple` to chew on.
pub(crate) fn hour_design(y: &[f64], x: &[f64], days: usize, hour: usize) -> (Matrix, Vec<f64>) {
    let at = |day: usize| day * HOURS_PER_DAY + hour;
    let mut design = Vec::new();
    let mut response = Vec::new();
    for day in LANE_LAGS..days {
        design.push(1.0);
        design.extend((1..=LANE_LAGS).map(|lag| y[at(day - lag)]));
        design.push(x[at(day)]);
        response.push(y[at(day)]);
    }
    (
        Matrix::from_vec(response.len(), LANE_COLS, design),
        response,
    )
}
