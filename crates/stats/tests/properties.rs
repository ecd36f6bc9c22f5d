//! Property-based tests for the statistics substrate.

use std::cell::Cell;
use std::ops::Range;

use proptest::prelude::*;
use smda_stats::linalg::Matrix;
use smda_stats::simd::{LANE_COLS, LANE_LAGS};
use smda_stats::{
    band_pair_count, cosine_similarity, dot, dot_block, dot_scalar, mean, merge_partials, norm2,
    norm2_rows, ols_multiple, ordered_key, quantile_sorted, quantiles_by_selection,
    sample_variance, select_top_k, similarity_walk, top_k_cosine, top_k_query, top_k_tiled,
    top_k_tiled_partial, under_every_tier, EquiWidthHistogram, FitScratch, GaussianNoise,
    HourlyFit, KMeans, KMeansConfig, OnlineStats, RankSelect, Resident, SegmentSums, SelectCounts,
    SeriesMatrix, SeriesMatrixBuilder, SimilarityMatch, TileConfig,
};
use smda_types::BitEq;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..max_len)
}

/// Values the block kernel must not treat specially: signed zeros,
/// subnormals, and ordinary magnitudes of both signs.
fn awkward_f64() -> impl Strategy<Value = f64> {
    (0u8..8, -1e6f64..1e6, 1u64..1 << 52).prop_map(|(kind, ordinary, mantissa)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(mantissa),
        3 => -f64::from_bits(mantissa),
        _ => ordinary,
    })
}

/// `values` copied so the returned slice starts `skew` elements
/// (8 · `skew` bytes) past a 32-byte boundary.
fn skewed(values: &[f64], skew: usize, store: &mut Vec<f64>) -> Range<usize> {
    store.clear();
    store.resize(values.len() + 8, 0.0);
    let to_boundary = (store.as_ptr() as usize).wrapping_neg() % 32 / 8;
    let start = to_boundary + skew % 4;
    store[start..start + values.len()].copy_from_slice(values);
    start..start + values.len()
}

/// Whether `dot_block::<R, C>` over the first `R + C` of `rows` equals
/// `dot_scalar` pair by pair, bit for bit.
fn block_matches_scalar<const R: usize, const C: usize>(rows: &[&[f64]]) -> bool {
    let queries: [&[f64]; R] = std::array::from_fn(|r| rows[r]);
    let candidates: [&[f64]; C] = std::array::from_fn(|c| rows[R + c]);
    let want: [[f64; C]; R] = queries.map(|q| candidates.map(|c| dot_scalar(q, c)));
    dot_block(queries, candidates).bits_eq(&want)
}

/// Rows [`every_block_shape_matches_scalar`] reads: the widest shape's
/// eight queries and four candidates.
const SHAPE_ROWS: usize = 12;

/// Every shape the kernels instantiate — the AVX-512 tier's 8 × 4 pair
/// block, the 4 × 2 one (all of the AVX2 sweep, and what 8 × 4 blocks
/// leave over), and the one-row scan's 1 × 4 with its 1 × 3 / 2 / 1
/// remainders — over [`SHAPE_ROWS`] equal-length rows.
fn every_block_shape_matches_scalar(rows: &[&[f64]]) -> bool {
    block_matches_scalar::<8, 4>(rows)
        && block_matches_scalar::<4, 2>(rows)
        && block_matches_scalar::<1, 4>(rows)
        && block_matches_scalar::<1, 3>(rows)
        && block_matches_scalar::<1, 2>(rows)
        && block_matches_scalar::<1, 1>(rows)
}

/// Whether `dot_block::<R, C>` over the first `R` of `rows` against the
/// next `C` is the transpose of `dot_block::<C, R>` over them the other
/// way round, bit for bit.
fn block_is_symmetric<const R: usize, const C: usize>(rows: &[&[f64]]) -> bool {
    let queries: [&[f64]; R] = std::array::from_fn(|r| rows[r]);
    let candidates: [&[f64]; C] = std::array::from_fn(|c| rows[R + c]);
    let forward = dot_block(queries, candidates);
    let back = dot_block(candidates, queries);
    let transposed: [[f64; C]; R] = std::array::from_fn(|r| std::array::from_fn(|c| back[c][r]));
    forward.bits_eq(&transposed)
}

/// Rows of `len` awkward values, row `r` skewed `skews[r]` elements off
/// a 32-byte boundary, checked under every tier.
fn check_block_shapes(values: &[Vec<f64>], skews: &[usize]) {
    let mut stores: Vec<Vec<f64>> = vec![Vec::new(); values.len()];
    let spans: Vec<Range<usize>> = values
        .iter()
        .zip(skews)
        .zip(&mut stores)
        .map(|((v, &skew), store)| skewed(v, skew, store))
        .collect();
    let rows: Vec<&[f64]> = stores
        .iter()
        .zip(&spans)
        .map(|(store, span)| &store[span.clone()])
        .collect();
    under_every_tier(|tier| {
        assert!(
            every_block_shape_matches_scalar(&rows),
            "a block shape diverged from dot_scalar: tier {tier:?}, len {}, skews {skews:?}",
            values[0].len()
        );
    });
}

#[test]
fn block_kernel_matches_scalar_over_lengths_and_alignments() {
    // Deterministic sweep: every ragged tail, the empty product and a
    // full year; rows on every 8-byte phase of a 32-byte vector load;
    // signed zeros and subnormals sprinkled through ordinary values.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        match state % 16 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(state >> 12 | 1),
            3 => -f64::from_bits(state >> 12 | 1),
            _ => (state % 4000) as f64 / 1000.0 - 2.0,
        }
    };
    for len in (0..=67).chain([8760]) {
        let values: Vec<Vec<f64>> = (0..SHAPE_ROWS)
            .map(|_| (0..len).map(|_| next()).collect())
            .collect();
        for skew in 0..4 {
            // One shared phase, then a different phase per row.
            check_block_shapes(&values, &[skew; SHAPE_ROWS]);
            let mixed: Vec<usize> = (0..SHAPE_ROWS).map(|r| r + skew).collect();
            check_block_shapes(&values, &mixed);
        }
    }
}

/// Readings as a meter reports them, zeros of both signs included.
fn reading() -> impl Strategy<Value = f64> {
    (0u8..10, 0.0f64..5.0).prop_map(|(kind, kwh)| match kind {
        0 => 0.0,
        1 => -0.0,
        _ => kwh,
    })
}

/// `values` sorted by `f64::total_cmp`.
fn by_total_order(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// `values` stably sorted by `partial_cmp`: the order `quantile_sorted`
/// reads in the 3-line baseline.
fn by_partial_order(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in these fixtures"));
    sorted
}

/// Ascending `values` laid out so that the 16 positions a
/// [`RankSelect`] samples hold the 16 smallest, each followed by a run of
/// the rest: a sample that brackets nothing above its 16th value.
fn defeating_the_sample(ascending: &[f64]) -> Vec<f64> {
    let n = ascending.len();
    if n <= 16 {
        return ascending.to_vec();
    }
    let sampled: Vec<usize> = (0..16).map(|i| (2 * i + 1) * n / 32).collect();
    let mut out = vec![0.0; n];
    let mut rest = ascending[16..].iter();
    let mut smallest = ascending[..16].iter();
    for (at, slot) in out.iter_mut().enumerate() {
        let from = if sampled.contains(&at) {
            &mut smallest
        } else {
            &mut rest
        };
        *slot = *from.next().expect("16 sampled positions, n - 16 others");
    }
    out
}

/// `values` made into a row whose norm is out of the ordinary, by
/// `kind`: all zeros of either sign, all subnormal (every square
/// underflows), one value at `at` whose square overflows to ∞, one NaN
/// there — or left an ordinary row.
fn norm_row(kind: u8, values: &[f64], at: usize) -> Vec<f64> {
    let mut row = values.to_vec();
    let stride = row.len();
    match kind {
        0 => row.iter_mut().for_each(|v| *v = 0.0f64.copysign(*v)),
        1 => row
            .iter_mut()
            .for_each(|v| *v = f64::from_bits(v.to_bits() & !(0x7ff << 52) | 1)),
        2 if stride > 0 => row[at % stride] = -1e200,
        3 if stride > 0 => row[at % stride] = f64::NAN,
        _ => {}
    }
    row
}

/// Most rows and widest stride [`norm2_rows_is_bit_identical_to_norm2`]
/// draws: a ragged tail past two eight-row blocks, a ragged tail past
/// three four-wide chunks.
const NORM_ROWS: usize = 17;
const NORM_STRIDE: usize = 13;

/// Why `got` is not, bit for bit, what `ols_multiple` and `Iterator::sum`
/// make of hour `hour`'s materialized design
/// `[1, y[d−1], y[d−2], y[d−3], x[d]]`; `None` when it is.
fn hour_mismatch(
    got: &HourlyFit,
    y: &[f64],
    x: &[f64],
    days: usize,
    hour: usize,
) -> Option<String> {
    let at = |day: usize| day * 24 + hour;
    let mut design = Vec::new();
    let mut response = Vec::new();
    for day in LANE_LAGS..days {
        design.push(1.0);
        design.extend((1..=LANE_LAGS).map(|lag| y[at(day - lag)]));
        design.push(x[at(day)]);
        response.push(y[at(day)]);
    }
    let rows = response.len();
    let want = ols_multiple(&Matrix::from_vec(rows, LANE_COLS, design), &response);
    let same = match (&want, &got.fit) {
        (None, None) => true,
        (Some(w), Some(g)) => {
            w.n == g.n
                && w.sse.bits_eq(&g.sse)
                && w.r2.bits_eq(&g.r2)
                && w.beta[..LANE_COLS].bits_eq(&g.beta[..LANE_COLS])
        }
        _ => false,
    };
    let mean_y = response.iter().sum::<f64>() / rows as f64;
    let mean_x = (LANE_LAGS..days).map(|day| x[at(day)]).sum::<f64>() / rows as f64;
    (!same || !(mean_y, mean_x).bits_eq(&(got.mean_y, got.mean_x)))
        .then(|| format!("hour {hour}: reference {want:?} / {mean_y} / {mean_x}, lane fit {got:?}"))
}

/// Strides for [`query_form_matches_the_naive_scan`]: shorter than the
/// sketch's 168-hour week (every segment one value), a whole week, one
/// past it, and ragged tails over several weeks.
const QUERY_STRIDES: [usize; 8] = [1, 5, 47, 150, 168, 169, 401, 737];

/// Row `q`'s top k by the naive scan: `dot_scalar` against every other
/// row of `m`, then the canonical selection.
fn naive_top_k(m: &SeriesMatrix, q: usize, k: usize) -> Vec<SimilarityMatch> {
    let mut hits: Vec<SimilarityMatch> = (0..m.rows())
        .filter(|&j| j != q)
        .map(|j| SimilarityMatch {
            index: j,
            score: dot_scalar(m.row(q), m.row(j)),
        })
        .collect();
    select_top_k(&mut hits, k);
    hits
}

/// `distinct` base rows of `stride` values, each a daily-shaped curve
/// plus a 23-hour wave of its own strength (which no fold by day or
/// week absorbs, so residuals carry weight in the bound) at its own
/// scale plus noise (shifted below zero when `negative`), then `n` rows
/// cycling through them, so rows repeat exactly; every `zero_every`-th
/// row (from row 1) is all zeros.
fn query_rows(
    n: usize,
    stride: usize,
    distinct: usize,
    seed: u64,
    negative: bool,
    zero_every: usize,
) -> Vec<Vec<f64>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1024) as f64 / 1024.0
    };
    let base: Vec<Vec<f64>> = (0..distinct)
        .map(|_| {
            let (phase, scale) = (next() * 24.0, 0.01 * 1000f64.powf(next()));
            let (wave, wave_phase) = (2.0 * next(), next() * 23.0);
            let shift = if negative { 0.75 } else { 0.0 };
            let tau = std::f64::consts::TAU;
            (0..stride)
                .map(|h| {
                    let daily = 1.5 + ((h as f64 + phase) * tau / 24.0).sin();
                    let drift = wave * ((h as f64 + wave_phase) * tau / 23.0).sin();
                    scale * (daily + drift + 0.5 * next() - shift)
                })
                .collect()
        })
        .collect();
    (0..n)
        .map(|i| {
            if i % zero_every.max(1) == 1 {
                vec![0.0; stride]
            } else {
                base[i % distinct].clone()
            }
        })
        .collect()
}

#[test]
#[should_panic(expected = "equal lengths")]
fn block_kernel_rejects_unequal_rows() {
    let (long, short) = ([1.0f64; 8], [1.0f64; 7]);
    let _ = dot_block([&long[..], &long[..]], [&long[..], &short[..]]);
}

proptest! {
    #[test]
    fn mean_within_min_max(v in finite_vec(200)) {
        let m = mean(&v);
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-6 && m <= hi + 1e-6);
    }

    #[test]
    fn variance_is_non_negative(v in finite_vec(200)) {
        prop_assume!(v.len() >= 2);
        prop_assert!(sample_variance(&v) >= -1e-9);
    }

    #[test]
    fn mean_is_shift_equivariant(v in finite_vec(100), shift in -1e3f64..1e3) {
        let shifted: Vec<f64> = v.iter().map(|x| x + shift).collect();
        prop_assert!((mean(&shifted) - (mean(&v) + shift)).abs() < 1e-6);
    }

    #[test]
    fn quantile_is_monotone_in_q(mut v in finite_vec(100), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile_sorted(&v, lo) <= quantile_sorted(&v, hi) + 1e-12);
    }

    #[test]
    fn quantile_bounded_by_extremes(mut v in finite_vec(100), q in 0.0f64..1.0) {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let x = quantile_sorted(&v, q);
        prop_assert!(x >= v[0] - 1e-12 && x <= v[v.len()-1] + 1e-12);
    }

    #[test]
    fn histogram_counts_everything_in_range(v in finite_vec(300)) {
        let h = EquiWidthHistogram::build_with_spec(&v, smda_stats::HistogramSpec::spanning(&v, 10));
        prop_assert_eq!(h.total(), v.len() as u64);
    }

    #[test]
    fn cosine_similarity_bounded(a in finite_vec(50), b in finite_vec(50)) {
        let n = a.len().min(b.len());
        let s = cosine_similarity(&a[..n], &b[..n]);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&s));
    }

    #[test]
    fn cosine_similarity_symmetric(a in finite_vec(50), b in finite_vec(50)) {
        let n = a.len().min(b.len());
        let s1 = cosine_similarity(&a[..n], &b[..n]);
        let s2 = cosine_similarity(&b[..n], &a[..n]);
        prop_assert!((s1 - s2).abs() < 1e-9);
    }

    #[test]
    fn cosine_scale_invariant(a in finite_vec(30), b in finite_vec(30), scale in 0.001f64..1e3) {
        let n = a.len().min(b.len());
        let scaled: Vec<f64> = a[..n].iter().map(|x| x * scale).collect();
        let s1 = cosine_similarity(&a[..n], &b[..n]);
        let s2 = cosine_similarity(&scaled, &b[..n]);
        prop_assert!((s1 - s2).abs() < 1e-6);
    }

    #[test]
    fn online_stats_match_two_pass(v in finite_vec(200)) {
        let s: OnlineStats = v.iter().copied().collect();
        prop_assert!((s.mean() - mean(&v)).abs() < 1e-6 * (1.0 + mean(&v).abs()));
        if v.len() >= 2 {
            let tv = sample_variance(&v);
            prop_assert!((s.sample_variance() - tv).abs() < 1e-6 * (1.0 + tv.abs()));
        }
    }

    #[test]
    fn ols_residuals_orthogonal_to_x(
        pairs in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..100)
    ) {
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let rows: Vec<[f64; 2]> = x.iter().map(|&xi| [1.0, xi]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        if let Some(fit) = ols_multiple(&Matrix::from_rows(&refs), &y) {
            // Normal equations: residuals orthogonal to [1, x].
            let fitted = |row: &[f64; 2]| row[0] * fit.beta[0] + row[1] * fit.beta[1];
            let resid: Vec<f64> = rows.iter().zip(&y).map(|(row, yi)| yi - fitted(row)).collect();
            let sum_r: f64 = resid.iter().sum();
            let dot_rx: f64 = resid.iter().zip(&x).map(|(r, xi)| r * xi).sum();
            let scale = 1.0 + y.iter().map(|v| v.abs()).fold(0.0, f64::max) * x.len() as f64;
            prop_assert!(sum_r.abs() < 1e-6 * scale, "sum {sum_r}");
            prop_assert!(dot_rx.abs() < 1e-4 * scale * 100.0, "dot {dot_rx}");
        }
    }

    #[test]
    fn cholesky_qr_agree(
        rows in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 5..40)
    ) {
        // Design [1, x, x^2] with x from the first tuple element.
        let design: Vec<Vec<f64>> = rows.iter().map(|(x, _)| vec![1.0, *x, x * x]).collect();
        let y: Vec<f64> = rows.iter().map(|(_, y)| *y).collect();
        let refs: Vec<&[f64]> = design.iter().map(|r| r.as_slice()).collect();
        let m = Matrix::from_rows(&refs);
        let chol = smda_stats::linalg::cholesky_solve(&m.gram(), &m.t_vec(&y));
        let qr = smda_stats::linalg::qr_least_squares(&m, &y);
        if let (Some(a), Some(b)) = (chol, qr) {
            for (x1, x2) in a.iter().zip(&b) {
                prop_assert!((x1 - x2).abs() < 1e-4 * (1.0 + x1.abs()), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn tiled_kernel_matches_naive_bit_exactly(
        // n and the query block (zero is read as one) between them make
        // every shape of the block walk occur: query rows mod 4 in
        // {0, 1, 2, 3}, odd and even candidate counts, empty and
        // singleton matrices; 23 values leave a 3-element ragged tail.
        series in prop::collection::vec(
            prop::collection::vec(0.0f64..1e4, 23),
            0..20
        ),
        k in 0usize..6,
        query_block in 0usize..=9
    ) {
        let naive = top_k_cosine(&series, k);
        let m = SeriesMatrix::from_rows_normalized(&series);
        let cfg = TileConfig { query_block };
        let (tiled, stats) = top_k_tiled(&m, k, &cfg);
        prop_assert!(naive.bits_eq(&tiled));
        // Each pair once where no row can hold a threshold (k ≥ n − 1),
        // at most that many where sketch bounds may skip blocks.
        let (n, scored) = (series.len(), stats.pairs_scored);
        let dense = (n * n.saturating_sub(1) / 2) as u64;
        prop_assert!(scored <= dense && (k < n.saturating_sub(1) || scored == dense));
    }

    /// The query form skips rows by their sketch bounds, and the
    /// all-pairs walk skips register blocks by them; what either returns
    /// is still the naive scan's, bit for bit, for every row: rows
    /// repeated exactly (ties on the threshold), zero rows, negative
    /// values, rows of very different norms written verbatim with
    /// `set_row` — with `extreme`, some of them scaled by 2³⁰⁰ or 2⁻³⁰⁰,
    /// whose sketches are NaN and never skipped — a `clone()` of the
    /// matrix, strides shorter than one week and past whole ones, and k
    /// from zero to `usize::MAX`. The all-pairs walk runs sequentially at
    /// every query block, as single band pairs handed round-robin to one,
    /// two and four workers (a pool's partition of the units, each worker
    /// with thresholds of its own), and as tile rows strided over as many
    /// (the cluster's claims), partials merged.
    #[test]
    fn query_form_matches_the_naive_scan(
        n in 2usize..26,
        stride in 0usize..QUERY_STRIDES.len(),
        distinct in 1usize..9,
        seed in any::<u64>(),
        negative in any::<bool>(),
        zero_every in 0usize..7,
        verbatim in any::<bool>(),
        extreme in any::<bool>(),
        cloned in any::<bool>()
    ) {
        let mut rows = query_rows(n, QUERY_STRIDES[stride], distinct, seed, negative, zero_every);
        let m = if verbatim {
            if extreme {
                for (i, row) in rows.iter_mut().enumerate() {
                    let scale = [1.0, 1.0, 2f64.powi(300), 2f64.powi(-300)][i % 4];
                    row.iter_mut().for_each(|v| *v *= scale);
                }
            }
            let builder = SeriesMatrixBuilder::new(n, QUERY_STRIDES[stride]);
            for (i, row) in rows.iter().enumerate() {
                builder.set_row(i, row);
            }
            builder.finish()
        } else {
            SeriesMatrix::from_rows_normalized(&rows)
        };
        let m = if cloned { m.clone() } else { m };
        // The pair count of an all-pairs walk, as in the test above.
        let dense = (n * (n - 1) / 2) as u64;
        for k in [0, 1, 3, n - 2, n - 1, n, usize::MAX] {
            let naive: Vec<Vec<SimilarityMatch>> = (0..n).map(|q| naive_top_k(&m, q, k)).collect();
            for (q, want) in naive.iter().enumerate() {
                prop_assert!(top_k_query(&m, q, k).bits_eq(want), "query {} k {}", q, k);
            }
            for query_block in 0..=9 {
                let cfg = TileConfig { query_block };
                let (tiled, stats) = top_k_tiled(&m, k, &cfg);
                prop_assert!(tiled.bits_eq(&naive), "tiled k {} block {}", k, query_block);
                let scored = stats.pairs_scored;
                prop_assert!(scored <= dense && (k < n - 1 || scored == dense));
            }
            let cfg = TileConfig::default();
            let (units, tiles) = (band_pair_count(cfg.tile_rows(n)), cfg.tile_rows(n));
            for workers in [1usize, 2, 4] {
                let strided = |w: usize, end: usize| {
                    let next = Cell::new(w);
                    move || {
                        let t = next.get();
                        next.set(t + workers);
                        (t < end).then_some(t)
                    }
                };
                let (mut pooled, mut scored) = (Vec::new(), 0);
                let rows = Resident::new(&m);
                for w in 0..workers {
                    let claim = strided(w, units);
                    let unit = || claim().map(|t| t..t + 1);
                    let Ok((partial, stats)) =
                        similarity_walk(&rows, k, &cfg, Some(&unit));
                    pooled.push(partial);
                    scored += stats.kernel.pairs_scored;
                }
                let pooled = merge_partials(n, pooled, k);
                prop_assert!(pooled.bits_eq(&naive), "{} workers, k {}", workers, k);
                prop_assert!(scored <= dense && (k < n - 1 || scored == dense));
                let partials = (0..workers)
                    .map(|w| top_k_tiled_partial(&m, k, &cfg, &strided(w, tiles)).0)
                    .collect();
                let merged = merge_partials(n, partials, k);
                prop_assert!(merged.bits_eq(&naive), "{} strided tile rows, k {}", workers, k);
            }
        }
    }

    /// Skipping a block rests on a pair scoring the same bits whichever
    /// row is the query: `dot` commutes bitwise, and every block shape the
    /// kernels run equals its transpose run the other way round, under
    /// every tier.
    #[test]
    fn pair_kernel_is_bitwise_symmetric(
        len in 0usize..=67,
        pool in prop::collection::vec(awkward_f64(), SHAPE_ROWS * 67)
    ) {
        let rows: Vec<&[f64]> = pool.chunks(67).map(|row| &row[..len]).collect();
        under_every_tier(|tier| {
            assert!(
                block_is_symmetric::<8, 4>(&rows)
                    && block_is_symmetric::<4, 2>(&rows)
                    && block_is_symmetric::<1, 4>(&rows)
                    && block_is_symmetric::<1, 1>(&rows),
                "a block and its transpose differ: tier {tier:?}, len {len}"
            );
            for (a, b) in rows.iter().zip(rows.iter().skip(1)) {
                assert!(dot(a, b).bits_eq(&dot(b, a)), "dot: tier {tier:?}, len {len}");
            }
        });
    }

    #[test]
    fn dense_grouping_matches_btreemap_even_when_dirty(
        raw in prop::collection::vec((0u32..320, -1e3f64..1e3), 1..300),
        other in prop::collection::vec(0u32..320, 1..300)
    ) {
        use std::collections::BTreeMap;
        // Key series in quarter degrees across negative and positive °C,
        // so `.5` boundaries are common (the shim has no signed integer
        // ranges, so shift an unsigned draw).
        let quarter = |k: u32| (k as f64 - 160.0) / 4.0;
        let key_series: Vec<f64> = raw.iter().map(|(k, _)| quarter(*k)).collect();
        let values: Vec<f64> = raw.iter().map(|(_, v)| *v).collect();
        // The allocating reference: push order within each key, keys
        // visited ascending — exactly what the 3-line T1 phase did
        // before the arena.
        let mut map: BTreeMap<i32, Vec<f64>> = BTreeMap::new();
        for (x, v) in key_series.iter().zip(&values) {
            map.entry(x.round() as i32).or_default().push(*v);
        }
        let expected: Vec<(i32, Vec<f64>)> = map.into_iter().collect();
        let mut scratch = FitScratch::new();
        // Two passes through the same arena, another key series planned
        // in between: the second pass rebuilds over a dirty plan.
        for pass in 0..2 {
            let mut seen: Vec<(i32, Vec<f64>)> = Vec::new();
            scratch.plan.prepare(&key_series);
            let bins = scratch.plan.gather(&values).expect("finite values");
            bins.for_each(|key, values| seen.push((key, values.to_vec())));
            prop_assert!(seen.bits_eq(&expected), "pass {}", pass);
            let between: Vec<f64> = other.iter().map(|k| quarter(*k)).collect();
            scratch.plan.prepare(&between);
        }
    }

    #[test]
    fn normal_eq_matches_ols_multiple_even_when_dirty(
        rows in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0, -10.0f64..10.0), 1..60),
        cols in 1usize..6
    ) {
        let n = rows.len();
        let design: Vec<Vec<f64>> = rows
            .iter()
            .map(|(a, b, _)| {
                (0..cols)
                    .map(|j| match j {
                        0 => 1.0,
                        1 => *a,
                        2 => *b,
                        3 => a * b,
                        _ => a - b,
                    })
                    .collect()
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|(_, _, y)| *y).collect();
        let refs: Vec<&[f64]> = design.iter().map(|r| r.as_slice()).collect();
        let m = Matrix::from_rows(&refs);
        let baseline = ols_multiple(&m, &y);

        let mut dirty = FitScratch::new();
        // Poison the solver state with an unrelated solve first.
        let junk_y = [0.0, 1.0, 2.0, 3.0];
        let _ = dirty.solver.solve(
            4,
            2,
            &mut |r, row| {
                row[0] = 1.0;
                row[1] = r as f64 * 3.5;
            },
            &junk_y,
        );
        let mut fresh = FitScratch::new();
        for (scratch, label) in [(&mut dirty, "dirty"), (&mut fresh, "fresh")] {
            let fit = scratch.solver.solve(
                n,
                cols,
                &mut |r, row| row[..cols].copy_from_slice(&design[r]),
                &y,
            );
            match (&baseline, &fit) {
                (None, None) => {}
                (Some(b), Some(f)) => {
                    prop_assert_eq!(f.n, n, "{}", label);
                    prop_assert!(b.beta[..cols].bits_eq(&f.beta[..cols]), "beta {}", label);
                    prop_assert!(b.sse.bits_eq(&f.sse), "sse {}", label);
                    prop_assert!(b.r2.bits_eq(&f.r2), "r2 {}", label);
                }
                _ => prop_assert!(false, "fit presence diverged ({})", label),
            }
        }
    }

    #[test]
    fn lane_fit_matches_ols_multiple_hour_by_hour_on_every_tier(
        days in 8usize..=36,
        readings in prop::collection::vec(reading(), 36 * 24),
        weather in prop::collection::vec(-25.0f64..35.0, 36 * 24),
        constant_hour in 0usize..24,
        dead in any::<bool>(),
        collinear_hour in 0usize..24
    ) {
        // A year-shaped input with every path in it: scattered zeros of
        // both signs (the gram's zero skip), one hour constant all year
        // (rank deficient: the `None` → trivial-model path, certain when
        // the constant is zero, up to the pivot's rounding otherwise) and
        // one whose temperature all but repeats its first lag (Cholesky
        // gives up: the QR fallback).
        let mut y = readings[..days * 24].to_vec();
        let mut x = weather[..days * 24].to_vec();
        for day in 0..days {
            y[day * 24 + constant_hour] = if dead { 0.0 } else { 0.75 };
            if day > 0 && collinear_hour != constant_hour {
                x[day * 24 + collinear_hour] =
                    2.0 * y[(day - 1) * 24 + collinear_hour] + 1e-9 * (day % 3) as f64;
            }
        }
        let mut per_tier: Vec<[HourlyFit; 24]> = Vec::new();
        let mut failure = None;
        // Every tier, for the lane kernel's two bodies: the AVX-512 tier
        // must still run the `ymm` one, not fall to the scalar.
        under_every_tier(|tier| {
            let mut dirty = FitScratch::new();
            let _ = dirty.solver.fit_hourly_ar(&weather, &readings, 36);
            let mut fresh = FitScratch::new();
            for (scratch, label) in [(&mut dirty, "dirty"), (&mut fresh, "fresh")] {
                let fits = scratch.solver.fit_hourly_ar(&y, &x, days);
                for (hour, fit) in fits.iter().enumerate() {
                    if let Some(why) = hour_mismatch(fit, &y, &x, days, hour) {
                        failure.get_or_insert(format!("{tier:?} {label} arena, {why}"));
                    }
                }
                per_tier.push(fits);
            }
        });
        prop_assert!(failure.is_none(), "{}", failure.unwrap_or_default());
        prop_assert!(!dead || per_tier[0][constant_hour].fit.is_none(), "dead hour fitted");
        // Tier ≡ tier and dirty ≡ fresh follow from each ≡ reference;
        // stated directly as well, on bits (an r² may be NaN).
        let fields = |fits: &[HourlyFit; 24]| -> Vec<Option<([f64; smda_stats::SCRATCH_MAX_COLS], f64, f64)>> {
            fits.iter().map(|f| f.fit.map(|s| (s.beta, s.sse, s.r2))).collect()
        };
        prop_assert!(per_tier.windows(2).all(|w| fields(&w[0]).bits_eq(&fields(&w[1]))));
    }

    #[test]
    fn rank_select_matches_a_stable_sort_bitwise_on_every_tier(
        len in 1usize..=320,
        raw in prop::collection::vec((0u8..8, -1.0f64..3.0), 320),
        distinct in prop::collection::vec(-2.0f64..2.0, 3),
        layout in 0u8..6,
        free_q in 0.0f64..1.0
    ) {
        // Zeros of both signs and a few repeated values among free ones.
        let drawn = raw[..len].iter().map(|&(kind, free)| match kind {
            0 => 0.0,
            1 => -0.0,
            2..=4 => free,
            k => distinct[k as usize - 5],
        });
        let values: Vec<f64> = match layout {
            0 => drawn.collect(),
            // One value throughout.
            1 => vec![raw[0].1; len],
            // Nothing but zeros, signs mixed.
            2 => raw[..len].iter().map(|&(kind, _)| if kind % 2 == 0 { 0.0 } else { -0.0 }).collect(),
            3 => by_total_order(drawn.collect()),
            4 => by_total_order(drawn.collect()).into_iter().rev().collect(),
            // Ascending runs that start at the sampled positions.
            _ => defeating_the_sample(&by_total_order(drawn.collect())),
        };
        let sorted = by_partial_order(&values);
        let mut failure = None;
        under_every_tier(|tier| {
            let mut select = RankSelect::default();
            let mut check = |select: &mut RankSelect, values: &[f64], qs: &[f64]| {
                let got: Vec<f64> = match *qs {
                    [q] => select.quantiles(values, [q]).to_vec(),
                    [lo, hi] => select.quantiles(values, [lo, hi]).to_vec(),
                    _ => unreachable!("one or two quantiles"),
                };
                let sorted = by_partial_order(values);
                let want: Vec<f64> = qs.iter().map(|&q| quantile_sorted(&sorted, q)).collect();
                if !got.bits_eq(&want) {
                    failure.get_or_insert(format!("{tier:?}: {values:?} at {qs:?}: {got:?}, want {want:?}"));
                }
            };
            let qsets: [&[f64]; 7] = [
                &[0.1, 0.9],
                &[0.9, 0.1],
                &[0.0, 1.0],
                &[0.5, 0.5],
                &[free_q, 1.0 - free_q],
                &[free_q],
                &[0.5],
            ];
            for qs in qsets {
                check(&mut select, &values, qs);
            }
            // Both paths, on a slice long enough for the 10th percentile to
            // sit past the sample's margin: in sorted order the sample
            // brackets every rank, and with the sample's positions holding
            // the smallest values the low threshold misses.
            if len >= 48 {
                let ramp: Vec<f64> = (0..len).map(|i| i as f64 * 0.5 - 7.0).collect();
                let _ = select.take_counts();
                check(&mut select, &sorted, &[0.1, 0.9]);
                check(&mut select, &ramp, &[0.1, 0.9]);
                let threshold_path = select.take_counts();
                check(&mut select, &defeating_the_sample(&ramp), &[0.1, 0.9]);
                let fallback = select.take_counts();
                let want = (
                    SelectCounts { sampled: 2, fell_back: 0 },
                    SelectCounts { sampled: 1, fell_back: 1 },
                );
                if (threshold_path, fallback) != want {
                    failure.get_or_insert(format!("{tier:?} n={len}: {threshold_path:?}, {fallback:?}"));
                }
            }
        });
        prop_assert!(failure.is_none(), "{}", failure.unwrap_or_default());
    }

    #[test]
    fn best_split_is_the_scalar_breakpoint_search_on_every_tier(
        len in 3usize..=48,
        points in prop::collection::vec((0u8..8, 0u8..3, 0.0f64..4.0), 48),
        m in 1usize..=6
    ) {
        prop_assume!(3 * m <= len);
        // Ascending x with runs of one temperature (a degenerate segment
        // where a run covers it), y with ties, one overflowing and one NaN
        // kind (non-finite moments inside a fit).
        let mut x = Vec::with_capacity(len);
        let mut y: Vec<f64> = Vec::with_capacity(len);
        for (i, &(kind, step, free)) in points[..len].iter().enumerate() {
            let previous = (i > 0).then(|| (x[i - 1], y[i - 1]));
            x.push(previous.map_or(-5.0, |(t, _)| t + step as f64));
            y.push(match kind {
                0 | 1 => previous.map_or(free, |(_, v)| v),
                2 if len.is_multiple_of(7) => 1e200,
                3 if len.is_multiple_of(5) => f64::NAN,
                _ => free,
            });
        }
        let mut sums = SegmentSums::default();
        sums.build(&x, &y);
        let n = len;
        let mut want = (f64::INFINITY, m, 2 * m);
        for i in m..=(n - 2 * m) {
            let head = sums.fit(0, i).2;
            for j in (i + m)..=(n - m) {
                let total = head + sums.fit(i, j).2 + sums.fit(j, n).2;
                if total < want.0 {
                    want = (total, i, j);
                }
            }
        }
        let mut got = Vec::new();
        under_every_tier(|tier| {
            // Through a dirty instance: a longer curve's sums first.
            let mut dirty = SegmentSums::default();
            dirty.build(&[1.0; 60], &[2.0; 60]);
            let _ = dirty.best_split(3);
            dirty.build(&x, &y);
            got.push((tier, dirty.best_split(m)));
        });
        for (tier, got) in got {
            prop_assert!(got.bits_eq(&want), "{:?}: {:?}, want {:?}", tier, got, want);
        }
    }

    #[test]
    fn selected_percentiles_match_sorted_percentiles_bitwise(
        // Few distinct values, zeros of both signs among them: heavy ties.
        raw in prop::collection::vec((0u8..6, -1.0f64..3.0), 1..400),
        distinct in prop::collection::vec(-2.0f64..2.0, 4),
        tenths in 0u8..=10
    ) {
        let values: Vec<f64> = raw
            .iter()
            .map(|&(kind, free)| match kind {
                0 => 0.0,
                1 => -0.0,
                2 => free,
                k => distinct[k as usize - 2],
            })
            .collect();
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        // 0.1/0.9 as 3-line asks, a `tenths` pair, and a pair that makes
        // `(n − 1)·q` integral whenever `n − 1` divides by four.
        let q = tenths as f64 / 10.0;
        for qs in [[0.1, 0.9], [q, 1.0 - q], [0.25, 0.75], [0.0, 1.0]] {
            let mut keys: Vec<i64> = values.iter().map(|&v| ordered_key(v)).collect();
            let got = quantiles_by_selection(&mut keys, qs);
            for (g, q) in got.iter().zip(qs) {
                let want = quantile_sorted(&sorted, q);
                prop_assert!(g.bits_eq(&want), "n={} q={}", values.len(), q);
            }
        }
    }

    #[test]
    fn simd_dot_is_bit_identical_to_scalar(
        // Lengths 0..64 cover every ragged tail (len % 4 ∈ {0,1,2,3})
        // and the empty product.
        len in 0usize..64,
        seed in prop::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 64)
    ) {
        let a: Vec<f64> = seed[..len].iter().map(|p| p.0).collect();
        let b: Vec<f64> = seed[..len].iter().map(|p| p.1).collect();
        let scalar = smda_stats::dot_scalar(&a, &b);
        // The canonical entry must dispatch to something bit-identical,
        // under every tier the hardware runs.
        let mut dots = Vec::new();
        under_every_tier(|tier| dots.push((tier, smda_stats::dot(&a, &b))));
        for (tier, dot) in dots {
            prop_assert!(dot.bits_eq(&scalar), "{:?}, len {}", tier, len);
        }
    }

    #[test]
    fn block_kernel_is_bit_identical_to_scalar(
        len in 0usize..=67,
        pool in prop::collection::vec(awkward_f64(), SHAPE_ROWS * 67),
        skews in prop::collection::vec(0usize..4, SHAPE_ROWS)
    ) {
        let values: Vec<Vec<f64>> = pool.chunks(67).map(|row| row[..len].to_vec()).collect();
        check_block_shapes(&values, &skews);
    }

    /// Eight chains side by side are `norm2` row by row: every ragged
    /// tail of an eight-row block (0..=17 rows), every stride up to 13
    /// (the empty row's `-0.0` included), and the awkward rows.
    #[test]
    fn norm2_rows_is_bit_identical_to_norm2(
        n in 0usize..=NORM_ROWS,
        stride in 0usize..=NORM_STRIDE,
        kinds in prop::collection::vec((0u8..5, any::<usize>()), NORM_ROWS),
        pool in prop::collection::vec(awkward_f64(), NORM_ROWS * NORM_STRIDE)
    ) {
        let rows: Vec<Vec<f64>> = kinds[..n]
            .iter()
            .zip(pool.chunks(NORM_STRIDE))
            .map(|(&(kind, at), values)| norm_row(kind, &values[..stride], at))
            .collect();
        let mut norms = vec![f64::NAN; n];
        norm2_rows(&rows.concat(), stride, &mut norms);
        for (row, got) in rows.iter().zip(&norms) {
            prop_assert!(got.bits_eq(&norm2(row)), "row {:?}", row);
        }
    }

    #[test]
    fn simd_axpy_is_bit_identical_to_scalar(
        x in prop::collection::vec(-1e6f64..1e6, 0..40),
        acc0 in prop::collection::vec(-1e6f64..1e6, 0..40),
        a in -1e3f64..1e3
    ) {
        let n = x.len().min(acc0.len());
        let mut scalar = acc0[..n].to_vec();
        let mut dispatched = scalar.clone();
        smda_stats::simd::axpy_scalar(&mut scalar, a, &x[..n]);
        smda_stats::axpy(&mut dispatched, a, &x[..n]);
        prop_assert!(scalar.bits_eq(&dispatched));
    }

    #[test]
    fn normal_eq_gram_is_tier_independent(
        rows in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 4..40),
        cols in 1usize..6
    ) {
        // The dispatched axpy feeding NormalEq's gram/Xᵀy must give the
        // same bits whichever tier runs.
        let y: Vec<f64> = rows.iter().map(|(_, b)| *b).collect();
        let mut fill = |r: usize, row: &mut [f64]| {
            for (j, slot) in row.iter_mut().enumerate() {
                let x = rows[r].0;
                *slot = match j { 0 => 1.0, 1 => x, _ => x.powi(j as i32) };
            }
        };
        let mut fits = Vec::new();
        under_every_tier(|_| {
            let fit = smda_stats::NormalEq::default().solve(rows.len(), cols, &mut fill, &y);
            fits.push(fit.map(|f| (f.beta[..cols].to_vec(), f.sse)));
        });
        prop_assert!(fits.windows(2).all(|w| w[0].bits_eq(&w[1])), "fit diverged across tiers: {:?}", fits);
    }

    #[test]
    fn kmeans_assignments_in_range(
        pts in prop::collection::vec(prop::collection::vec(-50.0f64..50.0, 3), 2..60),
        k in 1usize..6
    ) {
        let km = KMeans::fit(&pts, KMeansConfig { k, seed: 1, ..Default::default() }).unwrap();
        prop_assert!(km.assignments.iter().all(|&a| a < km.k()));
        prop_assert_eq!(km.assignments.len(), pts.len());
        prop_assert!(km.inertia >= 0.0);
    }

    #[test]
    fn fill_is_the_sample_stream(
        seed in any::<u64>(),
        stddev in 0.0f64..3.0,
        zero_sigma in any::<bool>(),
        steps in prop::collection::vec((0u8..6, 0usize..50), 1..10)
    ) {
        // `fill` against a clone drawing one `sample()` at a time, bit for
        // bit, over a stream of mixed calls: empty, one, odd and
        // whole-year fills, plain `sample()`s on both sides, and a spare
        // carried from each call into the next.
        let stddev = if zero_sigma { 0.0 } else { stddev };
        let mut filled = GaussianNoise::new(0.25, stddev, seed);
        let mut sampled = filled.clone();
        let mut out = Vec::new();
        for (kind, n) in steps {
            let len = match kind {
                0 => 0,
                1 => 1,
                2 => 2 * n + 1,
                3 => 8760,
                4 => n,
                _ => {
                    prop_assert!(filled.sample().bits_eq(&sampled.sample()));
                    continue;
                }
            };
            out.clear();
            out.resize(len, f64::NAN);
            filled.fill(&mut out);
            for (i, v) in out.iter().enumerate() {
                let want = sampled.sample();
                prop_assert!(v.bits_eq(&want), "value {} of a fill of {}", i, len);
            }
            // The stream position and the spare: the whole state, shown.
            prop_assert_eq!(format!("{filled:?}"), format!("{sampled:?}"));
        }
    }
}
