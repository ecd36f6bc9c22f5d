//! Equi-width histograms (the Section 3.1 benchmark task's kernel).

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

/// Independent `min`/`max` chains in [`HistogramSpec::covering`]'s scan:
/// one chain moves at a compare's latency per value, eight at its
/// throughput — one `zmm`, two `ymm`.
const RANGE_LANES: usize = 8;

/// Count tables a vector's buckets are dealt across, so that a run of
/// values in one bucket is not a chain of increments through one memory
/// cell.
const COUNT_TABLES: usize = 4;

/// `2^52`: added to `0 ≤ c < 2^52` it leaves `c`, rounded to an integer,
/// in the sum's low 52 mantissa bits.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// The low 52 bits of an `f64`: its mantissa field.
const MANTISSA: u64 = (1 << 52) - 1;

/// `min`, `max` and finiteness of the values a lane has seen. `<` and `>`
/// rather than `f64::min`/`max`, so that what a lane keeps is defined: the
/// first of its smallest (largest) values, and never a NaN.
#[derive(Clone, Copy)]
struct LaneRange {
    min: f64,
    max: f64,
    finite: bool,
}

impl LaneRange {
    /// The range of no values.
    const EMPTY: LaneRange = LaneRange {
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        finite: true,
    };

    fn take(&mut self, v: f64) {
        self.finite &= v.is_finite();
        self.widen(v, v);
    }

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
            lane.take(v);
        }
        let mut range = lanes[0];
        for lane in &lanes[1..] {
            range.finite &= lane.finite;
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
/// `W` lanes. A chain is [`LaneRange::take`] in vector form: the two
/// keep-first compares are [`Lanes::select_lt`], and finiteness is a
/// running sum of `v − v` — `+0.0` for every finite `v`, NaN for `±∞` and
/// NaN, and a NaN sum stays NaN — so a lane is finite exactly when its
/// sum is still zero.
#[inline(always)]
fn range_lanes<L: Lanes<Array = [f64; W]>, const W: usize, const V: usize>(
    simd: L,
    blocks: &[[f64; RANGE_LANES]],
) -> [LaneRange; RANGE_LANES] {
    const { assert!(V * W == RANGE_LANES, "V vectors of W lanes hold the chains") };
    note_body::<L>("range");
    let mut low = [simd.splat(f64::INFINITY); V];
    let mut high = [simd.splat(f64::NEG_INFINITY); V];
    let mut probe = [simd.zero(); V];
    for block in blocks {
        let (chunks, _) = block.as_chunks::<W>();
        for (chunk, ((low, high), probe)) in chunks
            .iter()
            .zip(low.iter_mut().zip(&mut high).zip(&mut probe))
        {
            let v = simd.load(chunk);
            *low = simd.select_lt(v, *low, v, *low);
            *high = simd.select_lt(*high, v, v, *high);
            *probe = simd.add(*probe, simd.sub(v, v));
        }
    }
    let mut lanes = [LaneRange::EMPTY; RANGE_LANES];
    for (chunk, ((low, high), probe)) in lanes
        .chunks_exact_mut(W)
        .zip(low.iter().zip(&high).zip(&probe))
    {
        let (low, high, probe) = (simd.store(*low), simd.store(*high), simd.store(*probe));
        for (l, lane) in chunk.iter_mut().enumerate() {
            *lane = LaneRange {
                min: low[l],
                max: high[l],
                finite: probe[l] == 0.0,
            };
        }
    }
    lanes
}

impl HistogramSpec {
    /// A spec spanning the observed range of `values` with `buckets` bins.
    /// Returns `None` on empty input or non-finite extremes.
    pub fn covering(values: &[f64], buckets: usize) -> Option<Self> {
        if values.is_empty() || buckets == 0 {
            return None;
        }
        let range = LaneRange::of(values);
        range.finite.then_some(HistogramSpec {
            min: range.min,
            max: range.max,
            buckets,
        })
    }

    /// The spec [`covering`](Self::covering) returns, for values already
    /// known to be finite and at least one (a validated year) — without
    /// the verdict `covering` exists to give. On anything else the range
    /// is whatever the comparisons leave; nothing here panics.
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
    /// This is the definition: [`bucket_in`](Self::bucket_in) is its second
    /// half and [`count_buckets`] must count as if it had asked here once
    /// per value.
    pub fn bucket_of(&self, v: f64) -> Option<usize> {
        if v < self.min || v > self.max {
            return None;
        }
        Some(self.bucket_in(self.width(), v))
    }

    /// [`bucket_of`](Self::bucket_of) for a value known to be inside the
    /// spec's range, with the bucket [`width`](Self::width) handed in
    /// instead of re-divided per value: the same operations on the same
    /// operands, so the same bucket. A value outside the range would land
    /// in an end bucket.
    pub fn bucket_in(&self, width: f64, v: f64) -> usize {
        if self.min == self.max {
            return 0;
        }
        // `max` belongs to the last bucket (right-closed final bin).
        (((v - self.min) / width) as usize).min(self.buckets - 1)
    }

    /// The `[lo, hi)` edges of bucket `i`.
    pub fn edges(&self, i: usize) -> (f64, f64) {
        let width = self.width();
        (
            self.min + width * i as f64,
            self.min + width * (i + 1) as f64,
        )
    }
}

/// Add to `counts[b]` the number of `values` that
/// [`HistogramSpec::bucket_of`] puts in bucket `b`; values outside the
/// spec's range are dropped. The one counting pass, shared by the batch
/// build and by the streaming histogram's re-bucketing.
///
/// Equal to asking `bucket_of` once per value, count for count. A
/// vector of values — eight on the AVX-512 tier, four on AVX2 — is
/// bucketed as straight-line lane arithmetic before any count moves;
/// counts go to `COUNT_TABLES` tables by lane, summed at the end —
/// integer adds in another order.
///
/// # Panics
/// Panics if `counts` is not `spec.buckets` long, or if that is `2^52` or
/// more.
pub fn count_buckets(values: &[f64], spec: &HistogramSpec, counts: &mut [u64]) {
    let buckets = spec.buckets;
    assert_eq!(counts.len(), buckets, "one count per bucket");
    assert!(
        (buckets as u64) < 1 << 52,
        "bucket indices must be exact in f64"
    );
    if buckets == 0 {
        return;
    }
    if spec.min == spec.max {
        // `bucket_of`'s own test, NaN included (it is not outside).
        let inside = |v: f64| !(v < spec.min || v > spec.max);
        counts[0] += values.iter().filter(|&&v| inside(v)).count() as u64;
        return;
    }
    let bucketing = Bucketing {
        min: spec.min,
        max: spec.max,
        width: spec.width(),
        last: (buckets - 1) as f64,
        outside: buckets as f64 + TWO_POW_52,
        stride: buckets + 1,
    };
    // One slot past the buckets in each table takes what is outside.
    let mut tables = vec![0u64; COUNT_TABLES * bucketing.stride];
    match widest_lanes() {
        Widest::Portable(portable) => count_lanes(portable, values, &bucketing, &mut tables),
        // SAFETY: the token proves AVX2.
        #[cfg(target_arch = "x86_64")]
        Widest::Avx2(avx2) => unsafe { count_avx2(avx2, values, &bucketing, &mut tables) },
        // SAFETY: the token proves AVX-512F.
        #[cfg(target_arch = "x86_64")]
        Widest::Avx512(avx512) => unsafe { count_avx512(avx512, values, &bucketing, &mut tables) },
    }
    for table in tables.chunks_exact(bucketing.stride) {
        for (count, add) in counts.iter_mut().zip(table) {
            *count += add;
        }
    }
}

/// What [`count_buckets`] needs of a spec whose `min` and `max` differ.
struct Bucketing {
    min: f64,
    max: f64,
    width: f64,
    /// The last bucket's index.
    last: f64,
    /// The outside slot's index, `buckets`, plus `2^52`.
    outside: f64,
    /// One table: the buckets and the outside slot.
    stride: usize,
}

impl Bucketing {
    /// `2^52` plus the slot of each lane of `v`: the bucket `bucket_of`
    /// names, or `buckets` where it names none. The quotient
    /// `(v − min) / width` is clamped into `[0, buckets − 1]` while still a
    /// float — NaN (`∞/∞` on a spec as wide as `f64`) to `0.0`, as the
    /// saturating cast takes it; a `−0.0` to `+0.0`, the same bucket — and
    /// truncated by rounding to an integer at the `2^52` binade and
    /// stepping back where that rounded up, which for a non-negative value
    /// is the cast `bucket_of` applies; clamping before truncating or after
    /// gives the same bucket because `buckets − 1` is a whole number. A
    /// value below `min` or above `max` takes the outside slot; a NaN is
    /// neither, as in `bucket_of`.
    #[inline(always)]
    fn slots<L: Lanes>(&self, simd: L, v: L::Vector) -> L::Vector {
        let (zero, two52) = (simd.zero(), simd.splat(TWO_POW_52));
        let (min, max) = (simd.splat(self.min), simd.splat(self.max));
        let q = simd.div(simd.sub(v, min), simd.splat(self.width));
        let q = simd.select_lt(zero, q, q, zero);
        let last = simd.splat(self.last);
        let clamped = simd.select_lt(q, last, q, last);
        let rounded = simd.add(clamped, two52);
        let nearest = simd.sub(rounded, two52);
        // One below the nearest integer where that rounded up.
        let floor = simd.select_lt(
            clamped,
            nearest,
            simd.sub(rounded, simd.splat(1.0)),
            rounded,
        );
        let outside = simd.splat(self.outside);
        let slot = simd.select_lt(v, min, outside, floor);
        simd.select_lt(max, v, outside, slot)
    }

    /// Count each lane's slot in table `lane % COUNT_TABLES`.
    #[inline(always)]
    fn deal(&self, slots: &[f64], tables: &mut [u64]) {
        for (lane, slot) in slots.iter().enumerate() {
            let table = (lane % COUNT_TABLES) * self.stride;
            tables[table + (slot.to_bits() & MANTISSA) as usize] += 1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn count_avx2(avx2: Avx2, values: &[f64], bucketing: &Bucketing, tables: &mut [u64]) {
    count_lanes(avx2, values, bucketing, tables);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn count_avx512(avx512: Avx512, values: &[f64], bucketing: &Bucketing, tables: &mut [u64]) {
    count_lanes(avx512, values, bucketing, tables);
}

/// [`count_buckets`]' pass: `W` values at a time, the ragged tail one at a
/// time through the same arithmetic on one portable lane.
#[inline(always)]
fn count_lanes<L: Lanes<Array = [f64; W]>, const W: usize>(
    simd: L,
    values: &[f64],
    bucketing: &Bucketing,
    tables: &mut [u64],
) {
    note_body::<L>("count");
    let (chunks, tail) = values.as_chunks::<W>();
    for chunk in chunks {
        let slots = simd.store(bucketing.slots(simd, simd.load(chunk)));
        bucketing.deal(&slots, tables);
    }
    for &v in tail {
        bucketing.deal(&bucketing.slots(Portable::<1>, [v]), tables);
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

impl EquiWidthHistogram {
    /// Histogram of `values` over their own range with `buckets` bins.
    /// Returns `None` on empty input.
    pub fn build(values: &[f64], buckets: usize) -> Option<Self> {
        let spec = HistogramSpec::covering(values, buckets)?;
        Some(Self::build_with_spec(values, spec))
    }

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
    use super::*;

    #[test]
    fn counts_all_values_within_range() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let h = EquiWidthHistogram::build(&vals, 10).unwrap();
        assert_eq!(h.total(), 100);
        assert_eq!(h.counts, vec![10; 10]);
    }

    #[test]
    fn max_value_lands_in_last_bucket() {
        let h = EquiWidthHistogram::build(&[0.0, 10.0], 10).unwrap();
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[9], 1);
    }

    #[test]
    fn constant_series_occupies_single_bucket() {
        let h = EquiWidthHistogram::build(&[5.0; 42], 10).unwrap();
        assert_eq!(h.counts[0], 42);
        assert_eq!(h.total(), 42);
    }

    #[test]
    fn empty_or_nan_input_yields_none() {
        assert!(EquiWidthHistogram::build(&[], 10).is_none());
        assert!(EquiWidthHistogram::build(&[1.0, f64::NAN], 10).is_none());
        assert!(EquiWidthHistogram::build(&[1.0], 0).is_none());
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
    fn serial_build(values: &[f64], buckets: usize) -> Option<EquiWidthHistogram> {
        if values.is_empty() || buckets == 0 || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let spec = HistogramSpec {
            min: values
                .iter()
                .fold(f64::INFINITY, |m, &v| if v < m { v } else { m }),
            max: values
                .iter()
                .fold(f64::NEG_INFINITY, |m, &v| if v > m { v } else { m }),
            buckets,
        };
        Some(serial_build_with_spec(values, spec))
    }

    fn serial_build_with_spec(values: &[f64], spec: HistogramSpec) -> EquiWidthHistogram {
        let mut counts = vec![0u64; spec.buckets];
        for b in values.iter().filter_map(|&v| spec.bucket_of(v)) {
            counts[b] += 1;
        }
        EquiWidthHistogram { spec, counts }
    }

    fn assert_same(got: Option<EquiWidthHistogram>, want: Option<EquiWidthHistogram>, what: &str) {
        let bits = |h: &EquiWidthHistogram| (h.spec.min.to_bits(), h.spec.max.to_bits());
        assert_eq!(got.as_ref().map(bits), want.as_ref().map(bits), "{what}");
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
                        EquiWidthHistogram::build(&values, buckets),
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
                            EquiWidthHistogram::build(&values, 10),
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
                        let got = EquiWidthHistogram::build(&values, 10);
                        let zero = if fill > 0.0 {
                            got.as_ref().map(|h| h.spec.min)
                        } else {
                            got.as_ref().map(|h| h.spec.max)
                        };
                        assert_eq!(zero.map(f64::to_bits), Some(first.to_bits()));
                        assert_same(got, serial_build(&values, 10), "zero extreme");
                    }
                }
            }
        }
        // All zeros: both extremes are the first zero, one bucket.
        let values = [-0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.0];
        assert_same(
            EquiWidthHistogram::build(&values, 10),
            serial_build(&values, 10),
            "all zeros",
        );
    }

    #[test]
    fn constant_and_non_finite_series_match_the_serial_definition() {
        for len in [1, 7, 8, 9, 8760] {
            assert_same(
                EquiWidthHistogram::build(&vec![0.7; len], 10),
                serial_build(&vec![0.7; len], 10),
                "constant",
            );
            for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for at in [0, len / 2, len - 1] {
                    let mut values = soup(len, 1);
                    values[at] = poison;
                    assert!(EquiWidthHistogram::build(&values, 10).is_none());
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

    #[test]
    fn edges_partition_range() {
        let spec = HistogramSpec {
            min: 0.0,
            max: 10.0,
            buckets: 5,
        };
        assert_eq!(spec.edges(0), (0.0, 2.0));
        assert_eq!(spec.edges(4), (8.0, 10.0));
    }

    #[test]
    fn mode_bucket_finds_peak() {
        let vals = [1.0, 1.1, 1.2, 5.0, 9.9];
        let h = EquiWidthHistogram::build(&vals, 10).unwrap();
        assert_eq!(h.mode_bucket(), 0);
    }
}
