//! The similarity kernel streamed band by band, out of core.
//!
//! The tiled kernel ([`crate::top_k_tiled`]) assumes the whole
//! `n × stride` matrix is resident. At AMI scale that is the binding
//! constraint — a million-consumer year is ~70 GB of `f64` — so this
//! module runs the same scorer over a [`SeriesSource`]: anything that
//! can materialize a contiguous *band* of raw rows on demand (an
//! in-memory slice, a mapped raw-contiguous `.smc` region, or a
//! decode-on-demand packed file behind a bounded cache). The in-memory
//! kernel is the case of one band that is already resident.
//!
//! The schedule is band-pair driven. Split the `n` rows into
//! `B = ⌈n / band_rows⌉` bands; the unordered row pairs `{i, j}` are
//! partitioned exactly by the `B(B+1)/2` band pairs `(bi, bj)`,
//! `bi ≤ bj`: a *diagonal* pair scores the triangle inside one band
//! (the in-memory tile sweep, inside the band buffer), an
//! *off-diagonal* pair the full `band × band` cross product. Workers
//! claim band pairs off a shared counter, hold at most **two** band
//! buffers, and lend them to the same `PairScorer` the in-memory kernel
//! lends its matrix to. Claims run through the triangle row by row,
//! boustrophedon: even rows walk `bj` up from the diagonal, odd rows
//! walk it back down to the diagonal, so consecutive pairs share a band
//! and one sequential worker loads `B(B−1)/2 + 1` bands — the fewest two
//! buffers allow, since every off-diagonal pair after the first needs at
//! least one load. Resident memory is
//! `O(2 · band_rows · stride + k · n)` per worker instead of
//! `O(n · stride)`; the `n` there also covers a per-worker memo of row
//! norms, so a reloaded band costs its copy and one divide per value.
//!
//! **Bit-identity** with [`crate::top_k_tiled`] is the one exactness
//! argument of [`crate::kernels`], given the same row bits: sources
//! hand back the file's raw row bits, and the band loader normalizes
//! with the exact arithmetic of
//! [`crate::SeriesMatrixBuilder::set_row_normalized`] (`n = norm2`, zero
//! rows verbatim, else `v / n` per element; the norms come from
//! [`norm2_rows`], `to_bits`-equal to `norm2`), so every band row equals
//! the in-memory matrix row bit for bit. The rest — same `dot`,
//! order-free top-k buffers, exact merge — is shared code, so any
//! band-pair schedule that scores each unordered pair exactly once
//! reproduces the sequential tiled result.
//!
//! With a `scaling` vector bands stay raw, per-row inverse norms come
//! from [`oooc_inverse_norms`] (the same [`crate::simd::sumsq4`] pass as
//! [`crate::SeriesMatrix::inverse_norms`]), and the result is
//! bit-identical to the in-memory kernel given the same vector (which
//! itself tracks the exact kernel within
//! [`crate::simd::FUSED_REL_TOL`]).
//!
//! Memory model, scheduler diagram, and cache policy: DESIGN.md §16.

use std::ops::Range;

use smda_types::{Error, Result};

use crate::kernels::{
    claim_all, inverse_norm, scan_rows, KernelStats, PairScorer, RowBlock, TileConfig, TopKBuffer,
};
use crate::similarity::{norm2_rows, SimilarityMatch};

/// Band height the engines use by default: 256 rows × 8760 h × 8 B
/// ≈ 18 MB per band buffer, two buffers per worker.
pub const DEFAULT_BAND_ROWS: usize = 256;

/// Anything that can materialize contiguous bands of **raw** rows on
/// demand: the out-of-core kernel's view of a dataset. Implementations
/// must hand back exactly the bits the in-memory path would have been
/// built from — normalization happens inside the kernel so that the
/// arithmetic (and therefore every output bit) is shared.
pub trait SeriesSource: Sync {
    /// Number of series (rows).
    fn rows(&self) -> usize;

    /// Row length (the paper's 8760 hours).
    fn stride(&self) -> usize;

    /// Fill `out` (cleared first) with rows `rows.start..rows.end`,
    /// row-major: exactly `rows.len() * stride()` values.
    fn load_band(&self, rows: Range<usize>, out: &mut Vec<f64>) -> Result<()>;
}

/// A borrowed in-memory row-major matrix as a [`SeriesSource`] — the
/// zero-I/O tier (and the reference implementation the proptests pin
/// the file-backed tiers against).
#[derive(Debug, Clone, Copy)]
pub struct SliceSource<'a> {
    data: &'a [f64],
    rows: usize,
    stride: usize,
}

impl<'a> SliceSource<'a> {
    /// Wrap `data` as a `rows × stride` matrix.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * stride`.
    pub fn new(data: &'a [f64], rows: usize, stride: usize) -> SliceSource<'a> {
        assert_eq!(data.len(), rows * stride, "matrix shape disagrees");
        SliceSource { data, rows, stride }
    }
}

impl SeriesSource for SliceSource<'_> {
    fn rows(&self) -> usize {
        self.rows
    }

    fn stride(&self) -> usize {
        self.stride
    }

    fn load_band(&self, rows: Range<usize>, out: &mut Vec<f64>) -> Result<()> {
        out.clear();
        out.extend_from_slice(&self.data[rows.start * self.stride..rows.end * self.stride]);
        Ok(())
    }
}

/// What the out-of-core kernel did, for observability: the shared
/// pair-scoring stats plus how much data was streamed to do it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OoocStats {
    /// Pair-scoring stats, same meaning as the in-memory kernel's.
    pub kernel: KernelStats,
    /// Band buffers filled from the source (reloads included).
    pub bands_loaded: u64,
    /// Total `f64` bytes streamed through band buffers.
    pub bytes_streamed: u64,
    /// Row norms computed for unit-normalized bands; a reloaded row's
    /// norm comes from the worker's memo and is not counted again.
    pub norms_computed: u64,
}

impl OoocStats {
    /// Fold another worker's stats into this one.
    pub fn merge(&mut self, other: &OoocStats) {
        self.kernel.pairs_scored += other.kernel.pairs_scored;
        self.bands_loaded += other.bands_loaded;
        self.bytes_streamed += other.bytes_streamed;
        self.norms_computed += other.norms_computed;
    }
}

/// How many bands an `n`-row source splits into at `band_rows` rows
/// per band.
pub fn band_count(rows: usize, band_rows: usize) -> usize {
    rows.div_ceil(band_rows.max(1))
}

/// Number of band pairs (`bi ≤ bj`) — the unit of work a parallel
/// executor claims; hand indices `0..band_pair_count` to
/// [`top_k_oooc_partial`]'s `claim` closure.
pub fn band_pair_count(bands: usize) -> usize {
    bands * (bands + 1) / 2
}

/// Pairs `(bi, bj)` with `bi ≤ bj`, row `bi` of the triangle after row
/// `bi − 1`, boustrophedon within a row: an even row walks `bj` up from
/// `bi` to the last band, an odd row back down to `bi`. Consecutive
/// indices share a band — across a row turn too: an even row ends on
/// the last band, where the odd row after it starts, and an odd row's
/// last off-diagonal pair already holds band `bi + 1`, the next row's
/// diagonal — so a worker claiming them in order loads `B(B−1)/2 + 1`
/// bands in all: band 0, then one per off-diagonal pair.
fn band_pair_at(bands: usize, t: usize) -> (usize, usize) {
    debug_assert!(t < band_pair_count(bands));
    // offset(bi) = pairs before row bi = bi*bands - bi*(bi-1)/2,
    // monotonic in bi: binary-search the row, O(log B) per claim.
    let offset = |bi: usize| bi * bands - bi * bi.saturating_sub(1) / 2;
    let mut lo = 0usize; // invariant: offset(lo) <= t
    let mut hi = bands; // invariant: offset(hi) > t (t < total)
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if offset(mid) <= t {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let step = t - offset(lo);
    if lo.is_multiple_of(2) {
        (lo, lo + step)
    } else {
        (lo, bands - 1 - step)
    }
}

/// One memoized band buffer: rows `start..start + rows`, unit-normalized
/// for the exact tier, raw for the scaled one.
#[derive(Default)]
struct Band {
    idx: Option<usize>,
    start: usize,
    rows: usize,
    data: Vec<f64>,
}

impl Band {
    fn block(&self, stride: usize) -> RowBlock<'_> {
        RowBlock {
            data: &self.data,
            start: self.start,
            rows: self.rows,
            stride,
        }
    }
}

/// A norm memo entry not computed yet: `sqrt` returns no negative
/// number but `-0.0`, so no row's norm is this.
const UNKNOWN_NORM: f64 = -1.0;

/// Load band `bi` into `band` unless it is already resident. With a
/// norm memo (one entry per source row) the fresh rows are
/// unit-normalized, their norms read from or recorded in it; without
/// one they stay raw.
fn ensure_band(
    band: &mut Band,
    src: &dyn SeriesSource,
    band_rows: usize,
    bi: usize,
    norms: Option<&mut [f64]>,
    stats: &mut OoocStats,
) -> Result<()> {
    if band.idx == Some(bi) {
        return Ok(());
    }
    let (n, stride) = (src.rows(), src.stride());
    let start = bi * band_rows;
    let end = (start + band_rows).min(n);
    src.load_band(start..end, &mut band.data)?;
    let rows = end - start;
    if band.data.len() != rows * stride {
        return Err(Error::Invalid(format!(
            "series source filled {} values for band {start}..{end} (want {})",
            band.data.len(),
            rows * stride
        )));
    }
    if let Some(norms) = norms {
        let norms = &mut norms[start..end];
        // Bands of one height partition the rows, so in the pair walk a
        // band's norms are known together or not at all; a band with
        // any unknown is computed whole (same bits either way).
        if norms.contains(&UNKNOWN_NORM) {
            norm2_rows(&band.data, stride, norms);
            stats.norms_computed += rows as u64;
        }
        normalize_band(&mut band.data, stride, norms);
    }
    band.idx = Some(bi);
    band.start = start;
    band.rows = rows;
    stats.bands_loaded += 1;
    stats.bytes_streamed += (rows * stride * 8) as u64;
    Ok(())
}

/// Unit-normalize each row of `data` in place by its norm in `norms` —
/// bit-identical to [`crate::SeriesMatrixBuilder::set_row_normalized`]:
/// zero rows stay verbatim, others divide every element by the row's
/// `norm2`.
fn normalize_band(data: &mut [f64], stride: usize, norms: &[f64]) {
    for (r, &n) in norms.iter().enumerate() {
        if n != 0.0 {
            for v in &mut data[r * stride..(r + 1) * stride] {
                *v /= n;
            }
        }
    }
}

/// One worker's share of the out-of-core kernel: repeatedly claim a
/// band pair index in `0..band_pair_count(band_count(n, band_rows))`
/// from `claim` and score it — a diagonal pair is the in-memory tile
/// sweep inside one band buffer, an off-diagonal pair the cross product
/// of two — returning per-query partial top-k lists plus streaming
/// stats. Feed all workers' partials to
/// [`merge_partials`](crate::merge_partials); the claimed indices must
/// partition the band-pair range or pairs will be double-counted.
///
/// Without `scaling`, bands are unit-normalized on load and the output
/// is bit-identical to [`crate::top_k_tiled`] over the matrix the source
/// describes (see the module docs for the argument). With it, bands
/// stay **raw** and the output is bit-identical to
/// [`crate::top_k_tiled_with`] over the same raw rows and inverse norms
/// (compute them with [`oooc_inverse_norms`]).
///
/// # Panics
/// Panics on a claimed band pair out of range, or if `scaling` does not
/// hold one inverse norm per row.
pub fn top_k_oooc_partial(
    src: &dyn SeriesSource,
    scaling: Option<&[f64]>,
    k: usize,
    band_rows: usize,
    cfg: &TileConfig,
    claim: &dyn Fn() -> Option<usize>,
) -> Result<(Vec<Vec<SimilarityMatch>>, OoocStats)> {
    let stride = src.stride();
    let band_rows = band_rows.max(1);
    let bands = band_count(src.rows(), band_rows);
    let total = band_pair_count(bands);
    // Raw bands for the scaled tier; otherwise each row's norm is
    // computed on its first load and memoized for every reload.
    let mut norms = scaling.is_none().then(|| vec![UNKNOWN_NORM; src.rows()]);
    let mut stats = OoocStats::default();
    let mut scorer = PairScorer::new(src.rows(), k, cfg, scaling);
    let mut a = Band::default();
    let mut b = Band::default();
    while let Some(t) = claim() {
        assert!(t < total, "band pair {t} out of range ({total})");
        let (bi, bj) = band_pair_at(bands, t);
        // Consecutive pairs share a band, not always in the same role:
        // a row's first band may sit in `b`, the previous pair's other.
        if a.idx != Some(bi) && b.idx == Some(bi) {
            std::mem::swap(&mut a, &mut b);
        }
        ensure_band(&mut a, src, band_rows, bi, norms.as_deref_mut(), &mut stats)?;
        let other = if bi == bj {
            None
        } else {
            ensure_band(&mut b, src, band_rows, bj, norms.as_deref_mut(), &mut stats)?;
            Some(b.block(stride))
        };
        scorer.score(a.block(stride), 0..a.rows, other);
    }
    let (matches, kernel) = scorer.finish();
    stats.kernel = kernel;
    Ok((matches, stats))
}

/// The sequential out-of-core kernel — one worker claiming every band
/// pair: for every row of the source, the `k` most cosine-similar other
/// rows, best first — bit-identical to [`crate::top_k_tiled`] over the
/// same matrix, with resident memory bounded by two band buffers plus
/// the top-k state and one memoized norm per row.
pub fn top_k_oooc(
    src: &dyn SeriesSource,
    k: usize,
    band_rows: usize,
    cfg: &TileConfig,
) -> Result<(Vec<Vec<SimilarityMatch>>, OoocStats)> {
    let total = band_pair_count(band_count(src.rows(), band_rows));
    top_k_oooc_partial(src, None, k, band_rows, cfg, &claim_all(total))
}

/// Per-row `1/‖row‖` computed in one streaming pass — bit-identical to
/// [`crate::SeriesMatrix::inverse_norms`] over the same raw rows (the
/// same [`crate::simd::sumsq4`] reduction, `0.0` for zero rows).
pub fn oooc_inverse_norms(src: &dyn SeriesSource, band_rows: usize) -> Result<Vec<f64>> {
    let band_rows = band_rows.max(1);
    let mut band = Band::default();
    let mut out = Vec::with_capacity(src.rows());
    let mut unused = OoocStats::default();
    for bi in 0..band_count(src.rows(), band_rows) {
        ensure_band(&mut band, src, band_rows, bi, None, &mut unused)?;
        let block = band.block(src.stride());
        out.extend((0..block.rows).map(|r| inverse_norm(block.row(r))));
    }
    Ok(out)
}

/// Exact top-k for a fixed set of query rows against **all** rows of
/// the source, streaming the candidate bands exactly once: the
/// out-of-core analogue of [`crate::top_k_query`], bit-identical to it
/// per query over the same matrix. This is the query-workload tier the
/// sweep uses where all-pairs would be quadratic in a million rows.
/// A query index past the last row is an [`Error::Invalid`].
pub fn top_k_oooc_queries(
    src: &dyn SeriesSource,
    queries: &[usize],
    k: usize,
    band_rows: usize,
) -> Result<(Vec<Vec<SimilarityMatch>>, OoocStats)> {
    let n = src.rows();
    let stride = src.stride();
    let band_rows = band_rows.max(1);
    let mut stats = OoocStats::default();
    let mut norms = vec![UNKNOWN_NORM; n];
    let mut band = Band::default();
    let mut qrows: Vec<f64> = Vec::with_capacity(queries.len() * stride);
    for &q in queries {
        if q >= n {
            return Err(Error::Invalid(format!("query row {q} out of range ({n})")));
        }
        ensure_band(&mut band, src, 1, q, Some(&mut norms), &mut stats)?;
        qrows.extend_from_slice(&band.data);
    }
    let mut bufs: Vec<TopKBuffer> = queries.iter().map(|_| TopKBuffer::new(k)).collect();
    // A fresh buffer: the one above is keyed by one-row bands.
    let mut band = Band::default();
    for bi in 0..band_count(n, band_rows) {
        ensure_band(&mut band, src, band_rows, bi, Some(&mut norms), &mut stats)?;
        let block = band.block(stride);
        // Four candidate rows stay hot while every query passes over
        // them; a query skips its own row by scanning around it.
        for j in (0..block.rows).step_by(4) {
            let group = j..(j + 4).min(block.rows);
            for (slot, &q) in queries.iter().enumerate() {
                let query = &qrows[slot * stride..(slot + 1) * stride];
                let own = q.wrapping_sub(block.start);
                let parts = if group.contains(&own) {
                    [group.start..own, own + 1..group.end]
                } else {
                    [group.clone(), group.end..group.end]
                };
                for part in parts {
                    scan_rows(query, block, part, |jj, score| {
                        bufs[slot].push(SimilarityMatch {
                            index: block.start + jj,
                            score,
                        });
                        stats.kernel.pairs_scored += 1;
                    });
                }
            }
        }
    }
    Ok((bufs.into_iter().map(TopKBuffer::finish).collect(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{top_k_query, top_k_tiled, top_k_tiled_with, SeriesMatrix};
    use crate::merge_partials;
    use crate::testutil::{assert_bit_identical, flat, pseudo_series};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn band_pair_enumeration_is_a_bijection() {
        for bands in [0usize, 1, 2, 3, 7, 16] {
            let seen: Vec<(usize, usize)> = (0..band_pair_count(bands))
                .map(|t| band_pair_at(bands, t))
                .collect();
            // Each row's pairs are contiguous, rows in order.
            assert!(seen.windows(2).all(|w| w[0].0 <= w[1].0), "bands={bands}");
            let mut sorted = seen.clone();
            sorted.sort_unstable();
            let expect: Vec<(usize, usize)> = (0..bands)
                .flat_map(|bi| (bi..bands).map(move |bj| (bi, bj)))
                .collect();
            assert_eq!(sorted, expect, "bands={bands}");
        }
    }

    #[test]
    fn sequential_walk_loads_the_fewest_bands_and_each_norm_once() {
        let cfg = TileConfig::default();
        let band_rows = 3;
        for bands in 1usize..=9 {
            // A ragged last band.
            let n = bands * band_rows - 1;
            let rows = pseudo_series(n, 7, bands as u64);
            let (data, stride) = flat(&rows);
            let src = SliceSource::new(&data, n, stride);
            let (_, stats) = top_k_oooc(&src, 2, band_rows, &cfg).unwrap();
            assert_eq!(
                stats.bands_loaded,
                (bands * (bands - 1) / 2 + 1) as u64,
                "bands={bands}"
            );
            assert_eq!(stats.norms_computed, n as u64, "bands={bands}");
        }
    }

    #[test]
    fn oooc_matches_tiled_bitwise_across_band_sizes() {
        let cfg = TileConfig::default();
        for n in [0usize, 1, 2, 9, 33] {
            let rows = pseudo_series(n, 31, 11 + n as u64);
            let m = SeriesMatrix::from_rows_normalized(&rows);
            let (expect, expect_stats) = top_k_tiled(&m, 5, &cfg);
            let (data, stride) = flat(&rows);
            let src = SliceSource::new(&data, n, stride);
            // band=1 and band >= n are the degenerate extremes.
            for band_rows in [1usize, 3, 8, n.max(1), n + 7] {
                let (got, stats) = top_k_oooc(&src, 5, band_rows, &cfg).unwrap();
                assert_bit_identical(&expect, &got);
                assert_eq!(
                    stats.kernel.pairs_scored, expect_stats.pairs_scored,
                    "n={n} band={band_rows}"
                );
            }
        }
    }

    #[test]
    fn oooc_scaled_matches_tiled_scaled_bitwise() {
        let cfg = TileConfig::default();
        let rows = pseudo_series(29, 23, 77);
        let raw = SeriesMatrix::from_rows_raw(&rows);
        let inv = raw.inverse_norms();
        let tiles = claim_all(cfg.tile_rows(29));
        let (expect, _) = top_k_tiled_with(&raw, Some(&inv), 4, &cfg, &tiles);
        let (data, stride) = flat(&rows);
        let src = SliceSource::new(&data, 29, stride);
        let inv_oooc = oooc_inverse_norms(&src, 7).unwrap();
        assert_eq!(inv.len(), inv_oooc.len());
        for (a, b) in inv.iter().zip(&inv_oooc) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for band_rows in [1usize, 5, 64] {
            let pairs = claim_all(band_pair_count(band_count(29, band_rows)));
            let (got, _) =
                top_k_oooc_partial(&src, Some(&inv_oooc), 4, band_rows, &cfg, &pairs).unwrap();
            assert_bit_identical(&expect, &got);
        }
    }

    #[test]
    fn partial_merge_reproduces_sequential() {
        let cfg = TileConfig::default();
        let rows = pseudo_series(27, 19, 3);
        let (data, stride) = flat(&rows);
        let src = SliceSource::new(&data, 27, stride);
        let (seq, seq_stats) = top_k_oooc(&src, 3, 4, &cfg).unwrap();
        let total = band_pair_count(band_count(27, 4));
        let counter = AtomicUsize::new(0);
        let claim = || {
            let t = counter.fetch_add(1, Ordering::Relaxed);
            (t < total).then_some(t)
        };
        let mut partials = Vec::new();
        let mut merged_stats = OoocStats::default();
        for _ in 0..3 {
            let (p, s) = top_k_oooc_partial(&src, None, 3, 4, &cfg, &claim).unwrap();
            merged_stats.merge(&s);
            partials.push(p);
        }
        let merged = merge_partials(27, partials, 3);
        assert_bit_identical(&seq, &merged);
        assert_eq!(
            merged_stats.kernel.pairs_scored,
            seq_stats.kernel.pairs_scored
        );
    }

    #[test]
    fn queries_match_top_k_query_bitwise() {
        let rows = pseudo_series(23, 17, 9);
        let m = SeriesMatrix::from_rows_normalized(&rows);
        let (data, stride) = flat(&rows);
        let src = SliceSource::new(&data, 23, stride);
        let queries = [0usize, 7, 22];
        let (got, stats) = top_k_oooc_queries(&src, &queries, 4, 5).unwrap();
        for (slot, &q) in queries.iter().enumerate() {
            let expect = top_k_query(&m, q, 4);
            assert_bit_identical(
                std::slice::from_ref(&expect),
                std::slice::from_ref(&got[slot]),
            );
        }
        assert!(stats.bands_loaded > 0);
    }

    #[test]
    fn out_of_range_query_is_an_error_not_a_panic() {
        let (data, stride) = flat(&pseudo_series(5, 7, 1));
        let src = SliceSource::new(&data, 5, stride);
        let err = top_k_oooc_queries(&src, &[0, 5], 2, 3).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
    }

    #[test]
    fn zero_rows_and_k_zero_behave_like_the_in_memory_kernel() {
        let mut rows = pseudo_series(6, 9, 5);
        rows[2].iter_mut().for_each(|v| *v = 0.0);
        let m = SeriesMatrix::from_rows_normalized(&rows);
        let cfg = TileConfig::default();
        let (data, stride) = flat(&rows);
        let src = SliceSource::new(&data, 6, stride);
        for k in [0usize, 1, 4] {
            let (expect, _) = top_k_tiled(&m, k, &cfg);
            let (got, _) = top_k_oooc(&src, k, 2, &cfg).unwrap();
            assert_bit_identical(&expect, &got);
        }
    }

    #[test]
    fn short_source_fill_is_an_error_not_a_panic() {
        struct Short;
        impl SeriesSource for Short {
            fn rows(&self) -> usize {
                4
            }
            fn stride(&self) -> usize {
                8
            }
            fn load_band(&self, _rows: Range<usize>, out: &mut Vec<f64>) -> Result<()> {
                out.clear();
                out.push(1.0);
                Ok(())
            }
        }
        let err = top_k_oooc(&Short, 2, 2, &TileConfig::default()).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)));
        // The query and norm passes load through the same checked path.
        let err = top_k_oooc_queries(&Short, &[1], 2, 2).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)));
        let err = oooc_inverse_norms(&Short, 2).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The headline pin: out-of-core ≡ in-memory, bit for bit, over
        /// ragged sizes, band heights (incl. 1 and ≥ n), and k.
        #[test]
        fn prop_oooc_bit_identical_to_tiled(
            n in 0usize..40,
            stride in 1usize..24,
            band_rows in 1usize..48,
            k in 0usize..8,
            seed in any::<u64>(),
        ) {
            let rows = pseudo_series(n, stride, seed);
            let m = SeriesMatrix::from_rows_normalized(&rows);
            let cfg = TileConfig { query_block: 3 };
            let (expect, _) = top_k_tiled(&m, k, &cfg);
            let (data, _) = flat(&rows);
            let src = SliceSource::new(&data, n, stride);
            let (got, _) = top_k_oooc(&src, k, band_rows, &cfg).unwrap();
            assert_bit_identical(&expect, &got);
        }

        #[test]
        fn prop_oooc_scaled_bit_identical_to_tiled_scaled(
            n in 1usize..32,
            stride in 1usize..16,
            band_rows in 1usize..40,
            k in 0usize..6,
            seed in any::<u64>(),
        ) {
            let rows = pseudo_series(n, stride, seed);
            let raw = SeriesMatrix::from_rows_raw(&rows);
            let inv = raw.inverse_norms();
            let cfg = TileConfig::default();
            let tiles = claim_all(cfg.tile_rows(n));
            let (expect, _) = top_k_tiled_with(&raw, Some(&inv), k, &cfg, &tiles);
            let (data, _) = flat(&rows);
            let src = SliceSource::new(&data, n, stride);
            let inv2 = oooc_inverse_norms(&src, band_rows).unwrap();
            let pairs = claim_all(band_pair_count(band_count(n, band_rows)));
            let (got, _) =
                top_k_oooc_partial(&src, Some(&inv2), k, band_rows, &cfg, &pairs).unwrap();
            assert_bit_identical(&expect, &got);
        }
    }
}
