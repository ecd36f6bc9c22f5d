//! Sample quantiles with linear interpolation (Hyndman–Fan type 7).
//!
//! Type 7 is the default of Matlab's `prctile`-adjacent `quantile`, NumPy,
//! and R, so the 3-line algorithm's 10th/90th percentile step (Section 3.2)
//! matches what the paper's Matlab reference implementation computes.

use crate::simd::{note_body, widest_lanes, Lanes, Widest};
#[cfg(target_arch = "x86_64")]
use crate::simd::{Avx2, Avx512};

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
/// in as their [`ordered_key`]s, without sorting them: the keys are mapped
/// back to values and handed to a fresh [`RankSelect`], which puts only
/// the at most `2 · N` ranks the interpolations read in place. A caller
/// selecting from many slices keeps one `RankSelect` (a
/// [`FitScratch`](crate::FitScratch) holds one) and allocates nothing
/// after the first; this wrapper allocates its buffers per call. `keys`
/// is left as it was.
///
/// The result is bit-identical to stably sorting the values by
/// `partial_cmp` and calling [`quantile_sorted`], for every input without
/// NaN, in whatever order the values arrive. A rank's order statistic is
/// a single real number whichever algorithm finds it, and one real number
/// is one bit pattern — except zero, where the stable sort keeps tied
/// `+0.0` and `−0.0` in input order and selection (which compares them
/// equal, as `partial_cmp` does, and keeps whichever of them its
/// partitions and networks leave on the rank) may put the other sign on
/// the rank. That sign cannot reach `lo + (hi − lo) · frac`: `frac ∈ [0, 1)`
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
/// a `partial_cmp` sort), but the call does not panic.
///
/// # Panics
/// Panics if any `q` is outside `[0, 1]`.
pub fn quantiles_by_selection<const N: usize>(keys: &mut [i64], qs: [f64; N]) -> [f64; N] {
    let values: Vec<f64> = keys.iter().map(|&key| from_ordered_key(key)).collect();
    RankSelect::default().quantiles(&values, qs)
}

/// Values one compare-exchange network sorts, and the size of the sample
/// the thresholds and pivots are read from.
const NETWORK: usize = 16;

/// Sample positions past the one expected to bracket a rank that a tail
/// threshold is read from. A wider margin keeps more values in the tail
/// buffers and misses a rank less often: one position is about 14 values
/// of a bin of 220, and on the seed generator's bins (readings in hour
/// order, so the strided sample meets the daily cycle) margins of 1 / 2 /
/// 3 positions miss in 39 / 12 / 2 % of bins, and three selected fastest
/// (`smda-bench fits`, its tail-select time).
const TAIL_MARGIN: usize = 3;

/// The same margin for a pair-select pivot, which may miss at no cost but
/// another round.
const PIVOT_MARGIN: usize = 1;

/// [`quantile_sorted`]'s ranks read from unsorted values through retained
/// buffers: the selection behind 3-line T1, one instance per
/// [`FitScratch`](crate::FitScratch).
///
/// For two quantiles of more than 16 values, which is every bin
/// T1 reads, a selection is
///
/// 1. **thresholds:** 16 values at fixed strided positions, sorted by a
///    compare-exchange network; `tL` is the sample a margin above the
///    lower pair's expected place, `tH` the one a margin below the upper
///    pair's;
/// 2. **one pass, both tails:** every value `≤ tL` is compressed into the
///    low buffer and every value `≥ tH` into the high one. The low buffer
///    holds *every* value `≤ tL`, so it is a prefix of the sorted slice
///    and its ranks are the slice's; the high buffer is a suffix, its
///    ranks offset by `n − count`;
/// 3. **pair-select** in each buffer: three-way partitions around a
///    pivot (the first from the slice's sample, later ones from a sorted
///    sample of what is left) — `< p` compacted in place, `> p`
///    compressed to a spare buffer, the ties counted — until at most 16
///    values remain, which the network sorts. A pair that meets the ties
///    is answered by the pivot and at most one `max` / `min` scan of the
///    neighbouring part, so a zero-heavy bin ends at its first partition;
/// 4. **fallback:** where a threshold missed its pair (its buffer holds
///    too few values), the same pair-select finds that pair in the whole
///    slice; for other than two quantiles it finds every pair there.
///
/// Comparisons are on the `f64` values (ordered: `−0.0` ties `+0.0`, as
/// under `partial_cmp`), in the lane vocabulary of the active tier;
/// [`quantiles_by_selection`] carries the argument that the result is the
/// sort's to the bit.
#[derive(Debug, Default)]
pub struct RankSelect {
    low: Vec<f64>,
    high: Vec<f64>,
    spare: Vec<f64>,
    counts: SelectCounts,
}

/// What a [`RankSelect`] did since the counts were last taken.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SelectCounts {
    /// Selections that read their thresholds off a sample (two quantiles
    /// of more than 16 values).
    pub sampled: u64,
    /// Of those, the ones where a threshold missed its pair, so that the
    /// pair was selected from the whole slice.
    pub fell_back: u64,
}

impl RankSelect {
    /// [`quantile_sorted`] for each of `qs` over `values` in any order,
    /// bit-identical to a stable `partial_cmp` sort for every input
    /// without NaN (see [`quantiles_by_selection`]); unspecified values,
    /// but no panic, with NaN present. `values` is only read.
    ///
    /// # Panics
    /// Panics if any `q` is outside `[0, 1]`.
    pub fn quantiles<const N: usize>(&mut self, values: &[f64], qs: [f64; N]) -> [f64; N] {
        let Some((ranks, read)) = self.select(values, qs, Steps::All) else {
            return [values.first().copied().unwrap_or(f64::NAN); N];
        };
        std::array::from_fn(|i| {
            let ((lo, hi), (_, _, frac)) = (read[i], ranks[i]);
            lo + (hi - lo) * frac
        })
    }

    /// Steps 1 and 2 of [`quantiles`](Self::quantiles) alone — the
    /// sorted sample and the one pass that splits both tails into the
    /// retained buffers — for a caller that times them apart from the
    /// rest: whether both tails held their pairs (so that `quantiles`
    /// would not fall back). Counted as a selection is; `false` for 16
    /// values or fewer, where no sample is read.
    ///
    /// # Panics
    /// Panics if either `q` is outside `[0, 1]`.
    pub fn split_tails(&mut self, values: &[f64], qs: [f64; 2]) -> bool {
        let before = self.counts;
        let _ = self.select(values, qs, Steps::Split);
        self.counts.sampled > before.sampled && self.counts.fell_back == before.fell_back
    }

    /// Drain the counts accumulated since the last call.
    pub fn take_counts(&mut self) -> SelectCounts {
        std::mem::take(&mut self.counts)
    }

    /// The type-7 ranks of `qs` over `values` and the values read at
    /// them, through the active tier's kernel; `None` for fewer than two
    /// values.
    #[allow(clippy::type_complexity)]
    fn select<const N: usize>(
        &mut self,
        values: &[f64],
        qs: [f64; N],
        steps: Steps,
    ) -> Option<([(usize, usize, f64); N], [(f64, f64); N])> {
        for q in qs {
            assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        }
        let n = values.len();
        if n < 2 {
            return None;
        }
        let ranks = qs.map(|q| type7_ranks(n, q));
        let pairs = ranks.map(|(lo, hi, _)| (lo, hi));
        let read = match widest_lanes() {
            Widest::Portable(portable) => {
                select_lanes::<_, 8, 2, N>(portable, self, values, pairs, steps)
            }
            // SAFETY: the token proves AVX2.
            #[cfg(target_arch = "x86_64")]
            Widest::Avx2(avx2) => unsafe { select_avx2(avx2, self, values, pairs, steps) },
            // SAFETY: the token proves AVX-512F.
            #[cfg(target_arch = "x86_64")]
            Widest::Avx512(avx512) => unsafe { select_avx512(avx512, self, values, pairs, steps) },
        };
        Some((ranks, read))
    }
}

/// How far a selection runs: to the values, or to the end of step 2.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Steps {
    All,
    Split,
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn select_avx2<const N: usize>(
    avx2: Avx2,
    buffers: &mut RankSelect,
    values: &[f64],
    pairs: [(usize, usize); N],
    steps: Steps,
) -> [(f64, f64); N] {
    select_lanes::<_, 4, 4, N>(avx2, buffers, values, pairs, steps)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn select_avx512<const N: usize>(
    avx512: Avx512,
    buffers: &mut RankSelect,
    values: &[f64],
    pairs: [(usize, usize); N],
    steps: Steps,
) -> [(f64, f64); N] {
    select_lanes::<_, 8, 2, N>(avx512, buffers, values, pairs, steps)
}

/// The values at each rank pair `(a, b)`, `b ∈ {a, a + 1}`, of `n ≥ 2`
/// values: [`RankSelect`]'s steps on `W` lanes, the network's 16 values
/// held in `V` vectors. NaN for every pair when `steps` stops at the
/// split.
#[inline(always)]
fn select_lanes<L: Lanes<Array = [f64; W]>, const W: usize, const V: usize, const N: usize>(
    simd: L,
    buffers: &mut RankSelect,
    values: &[f64],
    pairs: [(usize, usize); N],
    steps: Steps,
) -> [(f64, f64); N] {
    note_body::<L>("select");
    let n = values.len();
    let mut read = [(f64::NAN, f64::NAN); N];
    // Every pass writes whole vectors, so each buffer keeps a vector of
    // slack past the longest slice it holds; the network reads 16 slots.
    let slots = n.max(NETWORK) + W;
    for buffer in [&mut buffers.low, &mut buffers.high, &mut buffers.spare] {
        if buffer.len() < slots {
            buffer.resize(slots, 0.0);
        }
    }
    if let [first, second] = pairs[..] {
        if n > NETWORK {
            let swapped = second.0 < first.0;
            let (below, above) = if swapped {
                (second, first)
            } else {
                (first, second)
            };
            let [lower, upper] =
                select_tails::<L, W, V>(simd, buffers, values, below, above, steps);
            (read[0], read[1]) = if swapped {
                (upper, lower)
            } else {
                (lower, upper)
            };
            return read;
        }
    }
    if steps == Steps::Split {
        return read;
    }
    // A loop, not `map`: a closure the compiler leaves out of line would
    // lose this frame's target features, and every lane method with them.
    for (read, &(a, b)) in read.iter_mut().zip(&pairs) {
        buffers.low[..n].copy_from_slice(values);
        *read = pair_select::<L, W, V>(simd, &mut buffers.low, &mut buffers.spare, n, a, b, None);
    }
    read
}

/// Steps 1–4 for the lower rank pair `below` and the upper one `above`
/// of more than [`NETWORK`] values (NaN for both after step 2 when
/// `steps` stops there).
#[inline(always)]
fn select_tails<L: Lanes<Array = [f64; W]>, const W: usize, const V: usize>(
    simd: L,
    buffers: &mut RankSelect,
    values: &[f64],
    below: (usize, usize),
    above: (usize, usize),
    steps: Steps,
) -> [(f64, f64); 2] {
    let n = values.len();
    let sample = sorted_sample::<L, W, V>(simd, values);
    // The low tail must reach past rank `below.1`, the high one below
    // rank `above.0`; a position past the sample's end takes every value.
    let t_low = sample
        .get(past_rank(below.1 + 1, n, TAIL_MARGIN))
        .copied()
        .unwrap_or(f64::INFINITY);
    let t_high = (NETWORK - 1)
        .checked_sub(past_rank(n - above.0, n, TAIL_MARGIN))
        .map_or(f64::NEG_INFINITY, |j| sample[j]);
    let (low_at, high_at) = (simd.splat(t_low), simd.splat(t_high));
    let RankSelect {
        low,
        high,
        spare,
        counts,
    } = buffers;
    let (mut in_low, mut in_high) = (0, 0);
    for at in (0..n).step_by(W) {
        let v = load_padded(simd, values, at);
        in_low += simd.compress(v, simd.le(v, low_at), &mut low[in_low..]);
        in_high += simd.compress(v, simd.le(high_at, v), &mut high[in_high..]);
    }
    let skipped = n - in_high;
    let (low_held, high_held) = (in_low > below.1, skipped <= above.0);
    counts.sampled += 1;
    counts.fell_back += u64::from(!(low_held && high_held));
    if steps == Steps::Split {
        return [(f64::NAN, f64::NAN); 2];
    }
    // Each pair from its tail buffer, the first pivot from the bin's
    // sample held to the buffer's threshold (a value the buffer holds, as
    // a pivot must be) — or, where the threshold missed, from the whole
    // slice. One call site: each copy of the inlined pair-select is
    // thousands of instructions.
    let low_pivot = sample[pivot_position(n, below.0, below.1)].min(t_low);
    let high_pivot = sample[pivot_position(n, above.0, above.1)].max(t_high);
    let tails = [
        (low, low_held, in_low, below, 0, low_pivot),
        (high, high_held, in_high, above, skipped, high_pivot),
    ];
    let mut read = [(f64::NAN, f64::NAN); 2];
    for (read, (buffer, held, count, (a, b), offset, pivot)) in read.iter_mut().zip(tails) {
        let start = if held {
            (count, a - offset, b - offset, Some(pivot))
        } else {
            buffer[..n].copy_from_slice(values);
            (n, a, b, None)
        };
        let (count, a, b, pivot) = start;
        *read = pair_select::<L, W, V>(simd, buffer, spare, count, a, b, pivot);
    }
    read
}

/// The position in a sorted sample of `n` values of a pivot just past the
/// pair `(a, b)` on the side with fewer values, so that the part holding
/// the pair after a partition is small.
fn pivot_position(n: usize, a: usize, b: usize) -> usize {
    if b < n - a {
        past_rank(b + 1, n, PIVOT_MARGIN).min(NETWORK - 1)
    } else {
        (NETWORK - 1).saturating_sub(past_rank(n - a, n, PIVOT_MARGIN))
    }
}

/// The sample position a margin past where `count` of `n` values are
/// expected to fall below it: a sorted sample's `j`-th value has about
/// `(j + 1) · n / 17` values at or below it.
fn past_rank(count: usize, n: usize, margin: usize) -> usize {
    (count * NETWORK).div_ceil(n) - 1 + margin
}

/// The values at ranks `a` and `b ∈ {a, a + 1}` of `data[..n]`, found by
/// three-way partitions: `< pivot` compacted to the front of `data`,
/// `> pivot` compressed into `spare`, the rest counted as ties; the part
/// holding the pair becomes the next round's `data` (the two buffers
/// trade places when that is `spare`). Both buffers hold `n` plus a
/// vector's worth of slots.
#[inline(always)]
fn pair_select<L: Lanes<Array = [f64; W]>, const W: usize, const V: usize>(
    simd: L,
    data: &mut Vec<f64>,
    spare: &mut Vec<f64>,
    mut n: usize,
    mut a: usize,
    mut b: usize,
    mut pivot: Option<f64>,
) -> (f64, f64) {
    loop {
        if n <= NETWORK {
            // The buffer's first 16 slots, those past `n` read as `+∞`.
            let mut v = [simd.zero(); V];
            let (chunks, _) = data[..NETWORK].as_chunks::<W>();
            for (i, (x, chunk)) in v.iter_mut().zip(chunks).enumerate() {
                let index = simd.add(lane_indices(simd), simd.splat((i * W) as f64));
                let inside = simd.splat(n as f64);
                *x = simd.select_lt(index, inside, simd.load(chunk), simd.splat(f64::INFINITY));
            }
            sort_vectors::<L, W, V>(simd, &mut v);
            let mut sorted = [0.0; NETWORK];
            for (chunk, x) in sorted.as_chunks_mut::<W>().0.iter_mut().zip(v) {
                *chunk = simd.store(x);
            }
            return (sorted[a], sorted[b]);
        }
        let pivot = match pivot.take() {
            Some(pivot) => pivot,
            None => {
                let sample = sorted_sample::<L, W, V>(simd, &data[..n]);
                sample[pivot_position(n, a, b)]
            }
        };
        let p = simd.splat(pivot);
        let (mut less, mut more) = (0, 0);
        for at in (0..n).step_by(W) {
            // Loaded before the store below: `less <= at`, so the store
            // overwrites only values already read.
            let v = load_padded(simd, &data[..n], at);
            less += simd.compress(v, simd.lt(v, p), &mut data[less..]);
            more += simd.compress(v, simd.lt(p, v), &mut spare[more..]);
        }
        // A sampled pivot ties at least itself, so its round shrinks the
        // part holding the pair (a NaN pivot ties everything, and is
        // returned). A first pivot handed in that is no value of the part
        // (NaN in the input can bring that about) costs one round that
        // shrinks nothing; the next pivot is sampled.
        let ties = n - less - more;
        if b < less {
            n = less;
        } else if a >= less + ties {
            (a, b, n) = (a - less - ties, b - less - ties, more);
            std::mem::swap(data, spare);
        } else {
            let lo = if a < less {
                extreme::<L, W>(simd, &data[..less], true)
            } else {
                pivot
            };
            let hi = if b >= less + ties {
                extreme::<L, W>(simd, &spare[..more], false)
            } else {
                pivot
            };
            return (lo, hi);
        }
    }
}

/// `W` values of `values` from `at`, lanes past its end NaN, which no
/// ordered compare keeps. A short last vector is the slice's last `W`
/// values with the lanes an earlier vector read set to NaN, so `values`
/// must hold at least `W`.
#[inline(always)]
fn load_padded<L: Lanes<Array = [f64; W]>, const W: usize>(
    simd: L,
    values: &[f64],
    at: usize,
) -> L::Vector {
    match values[at..].first_chunk::<W>() {
        Some(chunk) => simd.load(chunk),
        None => {
            let n = values.len();
            let last = simd.load(&values[n - W..].as_chunks::<W>().0[0]);
            let read = simd.splat((W - (n - at)) as f64);
            simd.select_lt(lane_indices(simd), read, simd.splat(f64::NAN), last)
        }
    }
}

/// `[0, 1, …, W − 1]`.
#[inline(always)]
fn lane_indices<L: Lanes<Array = [f64; W]>, const W: usize>(simd: L) -> L::Vector {
    let mut indices = [0.0; W];
    for (l, index) in indices.iter_mut().enumerate() {
        *index = l as f64;
    }
    simd.load(&indices)
}

/// The largest of `values` (the smallest unless `largest`): a
/// [`Lanes::max`] ([`Lanes::min`]) per lane over the whole vectors, then
/// across the lanes and the rest.
#[inline(always)]
fn extreme<L: Lanes<Array = [f64; W]>, const W: usize>(
    simd: L,
    values: &[f64],
    largest: bool,
) -> f64 {
    let pick = |acc: f64, v: f64| match largest {
        true if v > acc => v,
        false if v < acc => v,
        _ => acc,
    };
    let start = if largest {
        f64::NEG_INFINITY
    } else {
        f64::INFINITY
    };
    let (chunks, rest) = values.as_chunks::<W>();
    let mut acc = simd.splat(start);
    for chunk in chunks {
        let v = simd.load(chunk);
        acc = if largest {
            simd.max(v, acc)
        } else {
            simd.min(v, acc)
        };
    }
    let lanes = simd.store(acc).into_iter().fold(start, pick);
    rest.iter().copied().fold(lanes, pick)
}

/// Sort the 16 values of `V` vectors of `W` lanes ascending, across the
/// vectors in order, with a bitonic network: ten compare-exchange stages
/// ([`bitonic_stage`]), each a constant of the code.
#[inline(always)]
fn sort_vectors<L: Lanes<Array = [f64; W]>, const W: usize, const V: usize>(
    simd: L,
    v: &mut [L::Vector; V],
) {
    const { assert!(V * W == NETWORK, "V vectors of W lanes hold the network") };
    bitonic_stage::<L, W, V, 2, 1>(simd, v);
    bitonic_stage::<L, W, V, 4, 2>(simd, v);
    bitonic_stage::<L, W, V, 4, 1>(simd, v);
    bitonic_stage::<L, W, V, 8, 4>(simd, v);
    bitonic_stage::<L, W, V, 8, 2>(simd, v);
    bitonic_stage::<L, W, V, 8, 1>(simd, v);
    bitonic_stage::<L, W, V, 16, 8>(simd, v);
    bitonic_stage::<L, W, V, 16, 4>(simd, v);
    bitonic_stage::<L, W, V, 16, 2>(simd, v);
    bitonic_stage::<L, W, V, 16, 1>(simd, v);
}

/// One stage of the bitonic network: value `i` meets value `i ^ J`, the
/// smaller going first where `i & K == 0` and last elsewhere. Partners
/// `J ≥ W` apart sit in two vectors, a [`Lanes::min`] and [`Lanes::max`]
/// of them; partners in one vector meet through [`Lanes::swap_lanes`],
/// and each lane keeps its side by a constant [`Lanes::select_lt`].
#[inline(always)]
fn bitonic_stage<
    L: Lanes<Array = [f64; W]>,
    const W: usize,
    const V: usize,
    const K: usize,
    const J: usize,
>(
    simd: L,
    v: &mut [L::Vector; V],
) {
    if J >= W {
        let apart = J / W;
        for first in 0..V {
            if first & apart != 0 {
                continue;
            }
            let (x, y) = (v[first], v[first + apart]);
            let (small, large) = (simd.min(x, y), simd.max(x, y));
            (v[first], v[first + apart]) = if (first * W) & K == 0 {
                (small, large)
            } else {
                (large, small)
            };
        }
    } else {
        for (i, x) in v.iter_mut().enumerate() {
            let partner = simd.swap_lanes(*x, J);
            let (small, large) = (simd.min(*x, partner), simd.max(*x, partner));
            // −1 where the lane keeps the smaller of its pair.
            let mut keeps_small = [1.0; W];
            for (l, keep) in keeps_small.iter_mut().enumerate() {
                if (l & J == 0) == ((i * W + l) & K == 0) {
                    *keep = -1.0;
                }
            }
            *x = simd.select_lt(simd.load(&keeps_small), simd.zero(), small, large);
        }
    }
}

/// [`NETWORK`] values of `values` (more than that many) at evenly
/// strided positions, sorted.
#[inline(always)]
fn sorted_sample<L: Lanes<Array = [f64; W]>, const W: usize, const V: usize>(
    simd: L,
    values: &[f64],
) -> [f64; NETWORK] {
    let n = values.len();
    let mut sample = [0.0; NETWORK];
    for (i, x) in sample.iter_mut().enumerate() {
        *x = values[(2 * i + 1) * n / (2 * NETWORK)];
    }
    let mut v = [simd.zero(); V];
    for (x, chunk) in v.iter_mut().zip(sample.as_chunks::<W>().0) {
        *x = simd.load(chunk);
    }
    sort_vectors::<L, W, V>(simd, &mut v);
    for (chunk, x) in sample.as_chunks_mut::<W>().0.iter_mut().zip(v) {
        *chunk = simd.store(x);
    }
    sample
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
    fn nan_in_a_long_slice_ends_every_tier_without_a_panic_or_a_hang() {
        // NaN where the sample reads, everywhere, or beside infinities: the
        // thresholds, the first pivots and the partitions all meet it.
        let n = 200;
        let sampled: Vec<usize> = (0..NETWORK).map(|i| (2 * i + 1) * n / 32).collect();
        let slices: [Vec<f64>; 4] = [
            (0..n)
                .map(|i| {
                    if sampled.contains(&i) {
                        f64::NAN
                    } else {
                        i as f64
                    }
                })
                .collect(),
            vec![f64::NAN; n],
            (0..n)
                .map(|i| [f64::NAN, f64::INFINITY, -f64::NAN, f64::NEG_INFINITY, 1.0][i % 5])
                .collect(),
            (0..n)
                .map(|i| if i % 7 == 0 { f64::NAN } else { -(i as f64) })
                .collect(),
        ];
        crate::simd::under_every_tier(|_| {
            let mut select = RankSelect::default();
            for values in &slices {
                let _ = select.quantiles(values, [0.1, 0.9]);
                let _ = select.quantiles(values, [0.9, 0.95]);
                let _ = select.quantiles(values, [0.9, 0.5, 0.0]);
                let _ = select.quantiles(values, [1.0]);
                let _ = quantiles_by_selection(&mut keys_of(values), [0.1, 0.9]);
            }
        });
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
