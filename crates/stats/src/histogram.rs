//! Equi-width histograms (the Section 3.1 benchmark task's kernel).

use crate::quantile::{from_ordered_key, ordered_key};
use crate::simd::{note_body, widest_lanes, Lanes, Portable, Widest};
#[cfg(target_arch = "x86_64")]
use crate::simd::{Avx2, Avx512};

/// How to bucket values: `buckets` equal-width bins over `[min, max]`,
/// right-open except the last bin which includes `max`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSpec {
    /// Lower edge of the first bucket.
    pub min: f64,
    /// Upper edge of the last bucket.
    pub max: f64,
    /// Number of buckets (the benchmark fixes this to 10).
    pub buckets: usize,
}

/// Independent `min`/`max` chains in [`HistogramSpec::spanning`]'s scan:
/// one chain moves at a compare's latency per value, eight at its
/// throughput — one `zmm`, two `ymm`.
const RANGE_LANES: usize = 8;

/// `min` and `max` of the values a lane has seen. `<` and `>`
/// rather than `f64::min`/`max`, so that what a lane keeps is defined: the
/// first of its smallest (largest) values, and never a NaN.
#[derive(Clone, Copy)]
struct LaneRange {
    min: f64,
    max: f64,
}

impl LaneRange {
    /// The range of no values.
    const EMPTY: LaneRange = LaneRange {
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    /// Stretch the range to `low` and `high`, keeping what it holds on a
    /// tie (and whenever the newcomer is a NaN).
    fn widen(&mut self, low: f64, high: f64) {
        self.min = if low < self.min { low } else { self.min };
        self.max = if high > self.max { high } else { self.max };
    }

    /// The range of `values`: what one left-to-right `min`/`max` chain
    /// finds, to the bit, found by [`RANGE_LANES`] chains side by side —
    /// value `i` of each whole block of eight goes to chain `i`, at the
    /// active tier's width ([`widest_lanes`]), and the ragged tail to the
    /// first chains one value each. The smallest value is one real number
    /// whichever chain meets it — except zero, where the single chain
    /// keeps the *first* zero of either sign it meets and the lanes may
    /// merge to the other one, so a zero extreme is looked up in scan
    /// order.
    fn of(values: &[f64]) -> LaneRange {
        let (blocks, tail) = values.as_chunks::<RANGE_LANES>();
        let mut lanes = match widest_lanes() {
            Widest::Portable(portable) => range_lanes::<_, 8, 1>(portable, blocks),
            // SAFETY: the token proves AVX2.
            #[cfg(target_arch = "x86_64")]
            Widest::Avx2(avx2) => unsafe { range_avx2(avx2, blocks) },
            // SAFETY: the token proves AVX-512F.
            #[cfg(target_arch = "x86_64")]
            Widest::Avx512(avx512) => unsafe { range_avx512(avx512, blocks) },
        };
        for (lane, &v) in lanes.iter_mut().zip(tail) {
            lane.widen(v, v);
        }
        let mut range = lanes[0];
        for lane in &lanes[1..] {
            range.widen(lane.min, lane.max);
        }
        if range.min == 0.0 || range.max == 0.0 {
            if let Some(first_zero) = values.iter().copied().find(|&v| v == 0.0) {
                if range.min == 0.0 {
                    range.min = first_zero;
                }
                if range.max == 0.0 {
                    range.max = first_zero;
                }
            }
        }
        range
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn range_avx2(avx2: Avx2, blocks: &[[f64; RANGE_LANES]]) -> [LaneRange; RANGE_LANES] {
    range_lanes::<_, 4, 2>(avx2, blocks)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn range_avx512(avx512: Avx512, blocks: &[[f64; RANGE_LANES]]) -> [LaneRange; RANGE_LANES] {
    range_lanes::<_, 8, 1>(avx512, blocks)
}

/// The [`RANGE_LANES`] chains over whole blocks, held in `V` vectors of
/// `W` lanes. A chain is [`LaneRange::widen`] by one value in vector form:
/// the two keep-first compares are [`Lanes::select_lt`].
#[inline(always)]
fn range_lanes<L: Lanes<Array = [f64; W]>, const W: usize, const V: usize>(
    simd: L,
    blocks: &[[f64; RANGE_LANES]],
) -> [LaneRange; RANGE_LANES] {
    const { assert!(V * W == RANGE_LANES, "V vectors of W lanes hold the chains") };
    note_body::<L>("range");
    let mut low = [simd.splat(f64::INFINITY); V];
    let mut high = [simd.splat(f64::NEG_INFINITY); V];
    for block in blocks {
        let (chunks, _) = block.as_chunks::<W>();
        for (chunk, (low, high)) in chunks.iter().zip(low.iter_mut().zip(&mut high)) {
            let v = simd.load(chunk);
            *low = simd.select_lt(v, *low, v, *low);
            *high = simd.select_lt(*high, v, v, *high);
        }
    }
    let mut lanes = [LaneRange::EMPTY; RANGE_LANES];
    for (chunk, (low, high)) in lanes.chunks_exact_mut(W).zip(low.iter().zip(&high)) {
        let (low, high) = (simd.store(*low), simd.store(*high));
        for (l, lane) in chunk.iter_mut().enumerate() {
            *lane = LaneRange {
                min: low[l],
                max: high[l],
            };
        }
    }
    lanes
}

impl HistogramSpec {
    /// The spec spanning the observed range of `values`, for values
    /// already known to be finite and at least one (a validated year). On
    /// anything else the range is whatever the comparisons leave; nothing
    /// here panics.
    pub fn spanning(values: &[f64], buckets: usize) -> Self {
        let range = LaneRange::of(values);
        HistogramSpec {
            min: range.min,
            max: range.max,
            buckets,
        }
    }

    /// The width of one bucket.
    pub fn width(&self) -> f64 {
        (self.max - self.min) / self.buckets as f64
    }

    /// Which bucket a value falls in; `None` when outside `[min, max]`.
    /// This is the definition: [`count_buckets`] must count as if it had
    /// asked here once per value.
    pub fn bucket_of(&self, v: f64) -> Option<usize> {
        if v < self.min || v > self.max {
            return None;
        }
        if self.min == self.max {
            return Some(0);
        }
        // `max` belongs to the last bucket (right-closed final bin).
        Some((((v - self.min) / self.width()) as usize).min(self.buckets - 1))
    }
}

/// Add to `counts[b]` the number of `values` that
/// [`HistogramSpec::bucket_of`] puts in bucket `b`; values outside the
/// spec's range are dropped. The one counting pass behind the batch
/// build.
///
/// Equal to asking `bucket_of` once per value, count for count, without
/// a divide or a scattered increment per value. The pass first finds the
/// spec's bucket edges, asking `bucket_of` itself where each bucket
/// starts, then counts how many values lie at or above each edge, a
/// vector of values at a time (eight on the AVX-512 tier, four on AVX2)
/// into one counter per lane and edge. A bucket's count is the difference
/// of two of those. This is exact because `bucket_of` never decreases as
/// `v` grows on a spec whose span `max − min` is finite. A spec with an
/// infinite span, a flat or inverted one, and one of more than
/// `EDGE_BUCKETS` buckets are counted by asking `bucket_of` once per
/// value.
///
/// # Panics
/// Panics if `counts` is not `spec.buckets` long.
pub fn count_buckets(values: &[f64], spec: &HistogramSpec, counts: &mut [u64]) {
    let buckets = spec.buckets;
    assert_eq!(counts.len(), buckets, "one count per bucket");
    if buckets == 0 {
        return;
    }
    let span = spec.max - spec.min;
    if !(spec.min < spec.max && span.is_finite() && buckets <= EDGE_BUCKETS) {
        for bucket in values.iter().filter_map(|&v| spec.bucket_of(v)) {
            counts[bucket] += 1;
        }
        return;
    }
    // What the pass counts the values at or above: −∞ (every value but a
    // NaN), `min`, then edges 1 to `buckets`, padded to whole groups.
    let mut thresholds = [f64::INFINITY; SWEEPS * GROUP];
    thresholds[0] = f64::NEG_INFINITY;
    thresholds[1] = spec.min;
    for (b, threshold) in (1..=buckets).zip(&mut thresholds[2..]) {
        *threshold = spec.edge(b);
    }
    let mut at_or_above = [0; SWEEPS * GROUP];
    let len = (buckets + 2).next_multiple_of(GROUP);
    let (thresholds, tallies) = (&thresholds[..len], &mut at_or_above[..len]);
    match widest_lanes() {
        Widest::Portable(portable) => count_lanes(portable, values, thresholds, tallies),
        // SAFETY: the token proves AVX2.
        #[cfg(target_arch = "x86_64")]
        Widest::Avx2(avx2) => unsafe { count_avx2(avx2, values, thresholds, tallies) },
        // SAFETY: the token proves AVX-512F.
        #[cfg(target_arch = "x86_64")]
        Widest::Avx512(avx512) => unsafe { count_avx512(avx512, values, thresholds, tallies) },
    }
    // Bucket `b` holds the values at or above edge `b` but not edge
    // `b + 1`. Bucket 0 starts at `min` and also takes the NaNs, which are
    // at or above nothing, as `bucket_of`'s saturating cast puts them there.
    at_or_above[1] += values.len() as u64 - at_or_above[0];
    for (count, pair) in counts.iter_mut().zip(at_or_above[1..].windows(2)) {
        *count += pair[0] - pair[1];
    }
}

/// Thresholds one sweep of [`tally`] counts against, each in a counter
/// that stays in a register: the Histogram task's 10 buckets take 12.
const GROUP: usize = 12;

/// Sweeps of the values the edge pass makes at most.
const SWEEPS: usize = 3;

/// Buckets the edge pass counts at most: past three sweeps a divide per
/// value is cheaper (17–20 µs per 8760 values either way at 34 buckets,
/// on a 2-vCPU AVX-512 Xeon).
const EDGE_BUCKETS: usize = SWEEPS * GROUP - 2;

/// Ulps [`HistogramSpec::edge`] steps from its first guess before it
/// bisects.
const EDGE_STEPS: usize = 8;

impl HistogramSpec {
    /// Edge `b` of a spec with `min < max` and a finite span, for
    /// `1 ≤ b ≤ buckets`: the least `f64` that is past `max` or that
    /// `bucket_of` puts in bucket `b` or above — the least value of
    /// bucket `b`, or the least past `max` where no value of `[min, max]`
    /// reaches it (edge `buckets` always is). Found by stepping ulps from
    /// `min + b · width` and asking `bucket_of`, then bisecting: the
    /// answer is exact because `bucket_of` is monotone on `[min, max]`.
    /// Each of its steps keeps order — the rounded `v − min`, the divide
    /// by one positive width, the truncating cast and the clamp — and a
    /// `0/0` (a width that underflows to zero) can happen only at
    /// `v = min`, which the cast puts in bucket 0 like every other
    /// `v − min = 0`.
    fn edge(&self, b: usize) -> f64 {
        let reaches = |v: f64| v > self.max || self.bucket_of(v).is_some_and(|at| at >= b);
        let mut at = (self.min + b as f64 * self.width()).clamp(self.min, self.max);
        if reaches(at) {
            for _ in 0..EDGE_STEPS {
                let down = at.next_down();
                if !reaches(down) {
                    return at;
                }
                at = down;
            }
            least_reaching(self.min, at, reaches)
        } else {
            for _ in 0..EDGE_STEPS {
                at = at.next_up();
                if reaches(at) {
                    return at;
                }
            }
            least_reaching(at, self.max.next_up(), reaches)
        }
    }
}

/// The least value in `(below, at]` that `reaches` holds for, given that
/// it fails at `below`, holds at `at` and, in between, holds from some
/// value on: a bisection over the values' [`ordered_key`]s, at most 64
/// steps.
fn least_reaching(below: f64, at: f64, reaches: impl Fn(f64) -> bool) -> f64 {
    let (mut below, mut at) = (i128::from(ordered_key(below)), i128::from(ordered_key(at)));
    while at - below > 1 {
        let mid = (below + at) >> 1;
        // `mid` lies between two keys of finite or infinite values, so it
        // is a key of one too, never of a NaN.
        if reaches(from_ordered_key(mid as i64)) {
            at = mid;
        } else {
            below = mid;
        }
    }
    from_ordered_key(at as i64)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn count_avx2(avx2: Avx2, values: &[f64], thresholds: &[f64], at_or_above: &mut [u64]) {
    count_lanes(avx2, values, thresholds, at_or_above);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn count_avx512(avx512: Avx512, values: &[f64], thresholds: &[f64], at_or_above: &mut [u64]) {
    count_lanes(avx512, values, thresholds, at_or_above);
}

/// [`count_buckets`]' pass: add to `at_or_above[t]` the `values` at or
/// above `thresholds[t]`, `W` values at a time and the ragged tail one at
/// a time through the same compares on one portable lane.
#[inline(always)]
fn count_lanes<L: Lanes<Array = [f64; W]>, const W: usize>(
    simd: L,
    values: &[f64],
    thresholds: &[f64],
    at_or_above: &mut [u64],
) {
    note_body::<L>("count");
    let (chunks, tail) = values.as_chunks::<W>();
    tally(simd, chunks, thresholds, at_or_above);
    let (tail, _) = tail.as_chunks::<1>();
    tally(Portable::<1>, tail, thresholds, at_or_above);
}

/// [`count_lanes`] over whole vectors: one sweep of the values per
/// [`GROUP`] of thresholds, one counter per lane for each. The compare is
/// [`Lanes::tally_le`]'s ordered `<=`, so a NaN is at or above nothing.
#[inline(always)]
fn tally<L: Lanes<Array = [f64; W]>, const W: usize>(
    simd: L,
    chunks: &[[f64; W]],
    thresholds: &[f64],
    at_or_above: &mut [u64],
) {
    let groups = thresholds
        .chunks_exact(GROUP)
        .zip(at_or_above.chunks_exact_mut(GROUP));
    for (thresholds, counts) in groups {
        let thresholds: [L::Vector; GROUP] = std::array::from_fn(|t| simd.splat(thresholds[t]));
        let mut tallies = [simd.tally_zero(); GROUP];
        for chunk in chunks {
            let v = simd.load(chunk);
            for (tally, &threshold) in tallies.iter_mut().zip(&thresholds) {
                *tally = simd.tally_le(*tally, threshold, v);
            }
        }
        for (count, tally) in counts.iter_mut().zip(tallies) {
            *count += simd.tally_sum(tally);
        }
    }
}

/// An equi-width histogram: a spec plus per-bucket counts.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiWidthHistogram {
    /// Bucketing parameters.
    pub spec: HistogramSpec,
    /// Number of values that fell into each bucket.
    pub counts: Vec<u64>,
}

smda_types::bit_eq_fields!(
    HistogramSpec { min, max, buckets }
    EquiWidthHistogram { spec, counts }
);

impl EquiWidthHistogram {
    /// Histogram with an externally fixed spec (values outside the range
    /// are dropped — used when comparing consumers on a common axis).
    pub fn build_with_spec(values: &[f64], spec: HistogramSpec) -> Self {
        let mut counts = vec![0u64; spec.buckets];
        count_buckets(values, &spec, &mut counts);
        EquiWidthHistogram { spec, counts }
    }

    /// Total count across all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Index of the most populated bucket (first on ties).
    pub fn mode_bucket(&self) -> usize {
        self.counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::under_every_tier;

    /// The histogram of `values` over their own range: the spec and the
    /// counting pass the Histogram task runs.
    fn spanned(values: &[f64], buckets: usize) -> EquiWidthHistogram {
        EquiWidthHistogram::build_with_spec(values, HistogramSpec::spanning(values, buckets))
    }

    #[test]
    fn counts_all_values_within_range() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let h = spanned(&vals, 10);
        assert_eq!(h.total(), 100);
        assert_eq!(h.counts, vec![10; 10]);
    }

    #[test]
    fn max_value_lands_in_last_bucket() {
        let h = spanned(&[0.0, 10.0], 10);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[9], 1);
    }

    #[test]
    fn constant_series_occupies_single_bucket() {
        let h = spanned(&[5.0; 42], 10);
        assert_eq!(h.counts[0], 42);
        assert_eq!(h.total(), 42);
    }

    #[test]
    fn fixed_spec_drops_out_of_range() {
        let spec = HistogramSpec {
            min: 0.0,
            max: 1.0,
            buckets: 4,
        };
        let h = EquiWidthHistogram::build_with_spec(&[-1.0, 0.1, 0.6, 2.0], spec);
        assert_eq!(h.total(), 2);
    }

    /// What the lane kernels replace: one left-to-right chain per extreme
    /// that keeps the first of equal values, then `bucket_of` once per
    /// value. (The chain is spelled with `<` / `>`: which zero
    /// `f64::min(0.0, -0.0)` returns is unspecified, and an optimized
    /// build of a fold over it answers differently from the early-exit
    /// loop this kernel used to be, which kept the first.)
    fn serial_build(values: &[f64], buckets: usize) -> EquiWidthHistogram {
        let spec = HistogramSpec {
            min: values
                .iter()
                .fold(f64::INFINITY, |m, &v| if v < m { v } else { m }),
            max: values
                .iter()
                .fold(f64::NEG_INFINITY, |m, &v| if v > m { v } else { m }),
            buckets,
        };
        serial_build_with_spec(values, spec)
    }

    fn serial_build_with_spec(values: &[f64], spec: HistogramSpec) -> EquiWidthHistogram {
        let mut counts = vec![0u64; spec.buckets];
        for b in values.iter().filter_map(|&v| spec.bucket_of(v)) {
            counts[b] += 1;
        }
        EquiWidthHistogram { spec, counts }
    }

    fn assert_same(got: EquiWidthHistogram, want: EquiWidthHistogram, what: &str) {
        let bits = |h: &EquiWidthHistogram| (h.spec.min.to_bits(), h.spec.max.to_bits());
        assert_eq!(bits(&got), bits(&want), "{what}");
        assert_eq!(got, want, "{what}");
    }

    /// A deterministic value soup: ties, both zeros, negatives, a wide
    /// spread of magnitudes.
    fn soup(len: usize, salt: usize) -> Vec<f64> {
        (0..len)
            .map(|i| match (i * 7 + salt * 13) % 11 {
                0 => 0.0,
                1 => -0.0,
                2 => -1.5,
                3 => 1e-300,
                k => ((i * 37 + salt) % 101) as f64 * 0.173 - k as f64,
            })
            .collect()
    }

    #[test]
    fn lane_kernels_match_the_serial_definition_over_lengths_and_bucket_counts() {
        for len in (1..=17).chain([63, 64, 65, 8760]) {
            for salt in 0..4 {
                let values = soup(len, salt);
                for buckets in [1, 10, 64] {
                    let what = format!("len {len} salt {salt} buckets {buckets}");
                    assert_same(
                        spanned(&values, buckets),
                        serial_build(&values, buckets),
                        &what,
                    );
                }
                // The extreme sits in each lane — and each remainder
                // position — in turn.
                for at in 0..len.min(17) {
                    for extreme in [-7e3, 7e3] {
                        let mut values = values.clone();
                        values[len - 1 - at] = extreme;
                        assert_same(
                            spanned(&values, 10),
                            serial_build(&values, 10),
                            &format!("len {len} salt {salt} extreme {extreme} at -{at}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_zero_extreme_keeps_the_sign_of_the_first_zero_in_scan_order() {
        for len in [2, 9, 16, 17, 8760] {
            for (first, second) in [(0.0, -0.0), (-0.0, 0.0)] {
                for at in 0..len.min(12) {
                    // Zero as the minimum (readings) and as the maximum.
                    for fill in [1.0, -1.0] {
                        let mut values = vec![fill; len];
                        values[at] = first;
                        for later in (at + 1..len).step_by(3) {
                            values[later] = if later % 2 == 0 { first } else { second };
                        }
                        let got = spanned(&values, 10);
                        let zero = if fill > 0.0 {
                            got.spec.min
                        } else {
                            got.spec.max
                        };
                        assert_eq!(zero.to_bits(), first.to_bits());
                        assert_same(got, serial_build(&values, 10), "zero extreme");
                    }
                }
            }
        }
        // All zeros: both extremes are the first zero, one bucket.
        let values = [-0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.0];
        assert_same(spanned(&values, 10), serial_build(&values, 10), "all zeros");
    }

    #[test]
    fn constant_and_non_finite_series_match_the_serial_definition() {
        for len in [1, 7, 8, 9, 8760] {
            assert_same(
                spanned(&vec![0.7; len], 10),
                serial_build(&vec![0.7; len], 10),
                "constant",
            );
            for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for at in [0, len / 2, len - 1] {
                    let mut values = soup(len, 1);
                    values[at] = poison;
                    // Outside what the spec is defined for: any range,
                    // but no panic.
                    spanned(&values, 10);
                }
            }
        }
    }

    #[test]
    fn counting_pass_matches_bucket_of_on_fixed_and_degenerate_specs() {
        let mut values = soup(1000, 2);
        values.extend([
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
        ]);
        let specs = [
            // Narrower than the data: values fall outside on both sides.
            (-3.0, 4.0),
            // Bucket edges the values sit on exactly.
            (-11.0, 9.0),
            // A width that underflows to zero, and one that overflows.
            (0.0, 5e-324),
            (f64::MIN, f64::MAX),
            // Flat, empty (inverted) and unbounded specs.
            (0.0, 0.0),
            (1.0, -1.0),
            (f64::NEG_INFINITY, f64::INFINITY),
        ];
        for (min, max) in specs {
            for buckets in [1, 3, 10, 64] {
                let spec = HistogramSpec { min, max, buckets };
                assert_eq!(
                    EquiWidthHistogram::build_with_spec(&values, spec),
                    serial_build_with_spec(&values, spec),
                    "{spec:?}"
                );
            }
        }
        // Counts are added to what the table already holds.
        let spec = HistogramSpec {
            min: 0.0,
            max: 1.0,
            buckets: 2,
        };
        let mut counts = [5, 7];
        count_buckets(&[0.1, 0.9, 0.95, 3.0], &spec, &mut counts);
        assert_eq!(counts, [6, 9]);
    }

    /// Finite specs whose edges are hard to find: an ordinary one, which
    /// may start below zero; one of subnormal bounds, whose width is
    /// subnormal or underflows to zero; a span one ulp short of overflow;
    /// a span of a few ulps far from zero, either side; and one across
    /// zero, where `v − min` rounds away the values nearest zero.
    fn hard_spec() -> impl Strategy<Value = (f64, f64)> {
        (0u8..5, -1e6f64..1e6, 1u64..2000, 0.5f64..1.0).prop_map(|(kind, x, units, share)| {
            let subnormal = |units: u64| f64::from_bits(units);
            match kind {
                0 => (x, x + units as f64 * 0.37),
                1 => {
                    let min = subnormal(units * 7).copysign(x);
                    (min, min + subnormal(units % 97 + 1))
                }
                2 => {
                    let max = f64::MAX * share;
                    let finite = |min: f64| (max - min).is_finite();
                    (
                        least_reaching(f64::NEG_INFINITY, max - f64::MAX, finite),
                        max,
                    )
                }
                3 => {
                    let min = x * 1e10;
                    let max = (0..units % 40 + 1).fold(min, |v, _| v.next_up());
                    (min, max)
                }
                _ => (-x.abs() * share, x.abs() + 1.0),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The counting pass against `bucket_of` on the values where
        /// buckets meet: each edge, one and two ulps either side, `min`
        /// and `max` and their neighbours, under every tier. Each edge is
        /// the least value `bucket_of` puts in its bucket or above, as a
        /// bisection alone finds it.
        #[test]
        fn counts_match_bucket_of_beside_every_edge((min, max) in hard_spec()) {
            prop_assert!(min < max && (max - min).is_finite(), "{min:e}, {max:e}");
            for buckets in [1, 2, 3, 10, 34, 64] {
                let spec = HistogramSpec { min, max, buckets };
                let mut values = vec![f64::NAN, f64::NEG_INFINITY, f64::INFINITY];
                for at in [min, max] {
                    values.extend([at.next_down(), at, at.next_up()]);
                }
                for b in 1..=buckets {
                    let edge = spec.edge(b);
                    let reaches = |v: f64| v > max || spec.bucket_of(v).is_some_and(|at| at >= b);
                    let bisected = least_reaching(min, max.next_up(), reaches);
                    // Equal values: a compare cannot tell the zeros apart.
                    prop_assert_eq!(edge, bisected, "edge {} of {:?}", b, spec);
                    let (down, up) = (edge.next_down(), edge.next_up());
                    values.extend([down.next_down(), down, edge, up, up.next_up()]);
                }
                let want = serial_build_with_spec(&values, spec);
                let mut failed = None;
                under_every_tier(|tier| {
                    let got = EquiWidthHistogram::build_with_spec(&values, spec);
                    if got != want && failed.is_none() {
                        failed = Some((tier, got.counts));
                    }
                });
                prop_assert!(failed.is_none(), "{:?}: {:?}, want {:?}", spec, failed, want.counts);
            }
        }
    }

    #[test]
    fn mode_bucket_finds_peak() {
        let vals = [1.0, 1.1, 1.2, 5.0, 9.9];
        let h = spanned(&vals, 10);
        assert_eq!(h.mode_bucket(), 0);
    }
}
