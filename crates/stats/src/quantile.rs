//! Sample quantiles with linear interpolation (Hyndman–Fan type 7).
//!
//! Type 7 is the default of Matlab's `prctile`-adjacent `quantile`, NumPy,
//! and R, so the 3-line algorithm's 10th/90th percentile step (Section 3.2)
//! matches what the paper's Matlab reference implementation computes.

/// Quantile `q ∈ [0, 1]` of a **sorted ascending** slice, type-7
/// (linear interpolation between closest ranks).
///
/// Returns `NaN` on empty input.
///
/// # Panics
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let (lo, hi, frac) = type7_ranks(n, q);
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// The two ranks type-7 interpolation reads for quantile `q` of `n ≥ 2`
/// values, and the weight of the upper one.
fn type7_ranks(n: usize, q: f64) -> (usize, usize, f64) {
    let h = (n - 1) as f64 * q;
    let lo = h.floor() as usize;
    (lo, h.ceil() as usize, h - lo as f64)
}

/// `v` as an integer whose `i64` order is [`f64::total_cmp`]'s order over
/// every bit pattern — the map `total_cmp` itself applies to both sides of
/// each comparison (flip the 63 value bits of a negative number, so a
/// larger magnitude becomes a smaller integer), applied once per value
/// instead. `−0.0` maps to `−1` and `+0.0` to `0`; the infinities bracket
/// the finite values. [`from_ordered_key`] inverts it exactly.
pub const fn ordered_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The value [`ordered_key`] mapped to `key`: the flip leaves the sign
/// bit alone, so it is its own inverse.
pub fn from_ordered_key(key: i64) -> f64 {
    f64::from_bits((key ^ (((key >> 63) as u64) >> 1) as i64) as u64)
}

/// [`quantile_sorted`] for each of `qs` over **unsorted** values handed
/// in as their [`ordered_key`]s, without sorting them: only the at most
/// `2 · N` ranks the interpolations read are put in place (plain integer
/// `select_nth_unstable`, each selection confined to the part right of
/// the previous rank), which is linear in the slice where a sort is
/// `n log n`. `keys` is left partially ordered.
///
/// The result is bit-identical to stably sorting the values by
/// `partial_cmp` and calling [`quantile_sorted`], for every input without
/// NaN, in whatever order the values arrive. A rank's order statistic is
/// a single real number whichever algorithm finds it, and one real number
/// is one bit pattern — except zero, where the stable sort keeps tied
/// `+0.0` and `−0.0` in input order and selection (which orders them as
/// [`f64::total_cmp`] does, `−0.0` first) may put the other sign on the
/// rank. That sign cannot reach `lo + (hi − lo) · frac`: `frac ∈ [0, 1)`
/// is non-negative, and
///
/// * `lo` and `hi` both zero: `hi − lo` is `±0.0`, times `frac` still
///   `±0.0`, and a zero plus a zero is `−0.0` only when both are `−0.0` —
///   which needs `lo = −0.0` and `hi − lo = −0.0`, but `hi − (−0.0)` is
///   `hi + 0.0`, never `−0.0`. The sum is `+0.0` for all four sign pairs;
/// * `lo` zero, `hi > 0`: `hi − (±0.0)` is `hi` exactly, `hi · frac` is
///   positive or `+0.0`, and `±0.0` plus either does not depend on the
///   zero's sign;
/// * `lo < 0`, `hi` zero: `±0.0 − lo` is `−lo` exactly;
/// * a single value (`n = 1`) has no tie to reorder.
///
/// With NaN present the values returned are unspecified (as they are for
/// a `partial_cmp` sort), but the call does not panic: every bit pattern
/// has a key.
///
/// # Panics
/// Panics if any `q` is outside `[0, 1]`.
pub fn quantiles_by_selection<const N: usize>(keys: &mut [i64], qs: [f64; N]) -> [f64; N] {
    for q in qs {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
    }
    let n = keys.len();
    if n < 2 {
        return [keys.first().map_or(f64::NAN, |&key| from_ordered_key(key)); N];
    }
    let ranks = qs.map(|q| type7_ranks(n, q));
    // Ascending through the wanted ranks: everything left of `placed` is
    // final and no greater than anything right of it.
    let mut placed = 0;
    while let Some(next) = ranks
        .iter()
        .flat_map(|&(lo, hi, _)| [lo, hi])
        .filter(|&rank| rank >= placed)
        .min()
    {
        keys[placed..].select_nth_unstable(next - placed);
        placed = next + 1;
    }
    ranks.map(|(lo, hi, frac)| {
        let (lo, hi) = (from_ordered_key(keys[lo]), from_ordered_key(keys[hi]));
        lo + (hi - lo) * frac
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_are_min_and_max() {
        let v = [1.0, 3.0, 5.0, 9.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 9.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
    }

    #[test]
    fn matches_numpy_type7_reference() {
        // numpy.quantile([15, 20, 35, 40, 50], .4) == 29.0
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert!((quantile_sorted(&v, 0.4) - 29.0).abs() < 1e-12);
        // numpy.quantile([1, 2, 3, 4], .9) == 3.7
        assert!((quantile_sorted(&[1.0, 2.0, 3.0, 4.0], 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn singleton_and_empty() {
        assert_eq!(quantile_sorted(&[7.0], 0.3), 7.0);
        assert!(quantile_sorted(&[], 0.5).is_nan());
    }

    #[test]
    fn unsorted_wrapper_sorts() {
        let mut keys = keys_of(&[9.0, 1.0, 5.0, 3.0]);
        assert_eq!(quantiles_by_selection(&mut keys, [0.0, 1.0]), [1.0, 9.0]);
    }

    /// The path selection replaces: stable `partial_cmp` sort, then read.
    fn by_sorting<const N: usize>(values: &[f64], qs: [f64; N]) -> [f64; N] {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in the fixtures"));
        qs.map(|q| quantile_sorted(&sorted, q))
    }

    fn keys_of(values: &[f64]) -> Vec<i64> {
        values.iter().map(|&v| ordered_key(v)).collect()
    }

    #[test]
    fn ordered_keys_sort_as_total_cmp_and_round_trip() {
        let mut values = [
            f64::NEG_INFINITY,
            f64::MIN,
            -2.5,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        values.sort_by(f64::total_cmp);
        for pair in values.windows(2) {
            assert!(
                ordered_key(pair[0]) < ordered_key(pair[1]),
                "{:e} !< {:e}",
                pair[0],
                pair[1]
            );
        }
        for v in values {
            assert_eq!(from_ordered_key(ordered_key(v)).to_bits(), v.to_bits());
        }
        assert_eq!((ordered_key(-0.0), ordered_key(0.0)), (-1, 0));
    }

    #[test]
    fn selection_matches_sorting_bitwise_through_ties_and_signed_zeros() {
        let fixtures: [&[f64]; 8] = [
            &[7.0],
            &[2.0, 1.0],
            &[-0.0, 0.0, -0.0, 0.0, 0.0, -0.0],
            &[0.0, -0.0, -3.0, -0.0, 5.0, 0.0, -3.0],
            &[1.0, 1.0, 1.0, 1.0, 1.0],
            // (n − 1)·q integral for q = 0.1 and 0.9: n = 11.
            &[5.0, 3.0, 9.0, 1.0, 7.0, 0.0, -0.0, 8.0, 2.0, 6.0, 4.0],
            &[-0.0, 2.0, 0.0, 1.0],
            // Negative values: an unsigned or unflipped key misorders them.
            &[
                -1.5, 3.0, -7.25, -0.0, 0.0, -1e-300, 2.0, -7.25, 1e-300, -3.0,
            ],
        ];
        for values in fixtures {
            for qs in [[0.1, 0.9], [0.9, 0.1], [0.0, 1.0], [0.5, 0.5]] {
                let want = by_sorting(values, qs);
                let got = quantiles_by_selection(&mut keys_of(values), qs);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{values:?} at {qs:?}");
                }
            }
        }
    }

    #[test]
    fn selection_of_nothing_is_nan_and_nan_input_does_not_panic() {
        assert!(quantiles_by_selection(&mut [], [0.5])[0].is_nan());
        let mut poisoned = keys_of(&[1.0, f64::NAN, 0.5, -f64::NAN, 2.0, -1.0]);
        let _ = quantiles_by_selection(&mut poisoned, [0.1, 0.9]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn selection_rejects_an_out_of_range_q() {
        quantiles_by_selection(&mut keys_of(&[1.0, 2.0]), [0.5, -0.1]);
    }

    #[test]
    fn batch_quantiles() {
        let qs = quantiles_by_selection(&mut keys_of(&[1.0, 2.0, 3.0, 4.0, 5.0]), [0.1, 0.5, 0.9]);
        assert!((qs[1] - 3.0).abs() < 1e-12);
        assert!(qs[0] < qs[1] && qs[1] < qs[2]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_q_panics() {
        quantile_sorted(&[1.0], 1.5);
    }
}
