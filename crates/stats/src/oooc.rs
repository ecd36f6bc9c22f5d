//! The similarity walk's rows out of core.
//!
//! A million-consumer year is ~70 GB of `f64`, so the walk
//! ([`crate::similarity_walk`]) also reads its bands from a
//! [`SeriesSource`]: anything that can materialize a contiguous *band*
//! of raw rows on demand (an in-memory slice, or a `.smc` file read
//! band by band, raw rows as they are stored, packed ones decoded),
//! seen through a [`Streamed`] view with its band height. A worker then
//! holds two band buffers, normalized on load with the arithmetic of
//! [`crate::SeriesMatrixBuilder::set_row_normalized`], so every band
//! row equals the in-memory matrix row bit for bit; resident memory is
//! `O(2 · band_rows · stride)` per worker plus `O(n · (k + 2 + sketch))`
//! shared: the top-k lists, one norm and one floor per row, and for an
//! all-pairs walk that can skip, each row's 337-value sketch and the
//! chain over them, and the unit rows the source's
//! [`SeriesSource::cache_bytes`] budget holds — instead of
//! `O(n · stride)`. The query form over a source,
//! [`Streamed::top_k_queries`], is no walk: it holds the query rows and
//! one band buffer, and reads every band once, in file order.
//!
//! Memory model, scheduler diagram, and the kept rows: DESIGN.md §16.

use std::ops::Range;

use smda_types::Result;

use crate::kernels::{KernelStats, TileConfig};
use crate::similarity::SimilarityMatch;
use crate::walk::{similarity_walk, Streamed};

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

    /// Bytes of unit rows a walk over this source may keep beside its
    /// band buffers: the sketch pass keeps rows `0..m`, `m` this budget
    /// divided by the row bytes, and a chain band lends them in place
    /// instead of reading them again ([`Streamed`]). Zero, the default,
    /// keeps nothing.
    fn cache_bytes(&self) -> usize {
        0
    }
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

/// What a similarity walk did, for observability: the pair-scoring
/// stats plus how much data was streamed to do it (nothing, over
/// resident rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OoocStats {
    /// Pair-scoring stats, same meaning as the in-memory kernel's.
    pub kernel: KernelStats,
    /// Band buffers filled from the source (reloads included).
    pub bands_loaded: u64,
    /// `f64` bytes read from the source: rows a band lends from the
    /// kept rows are not read, and not counted.
    pub bytes_streamed: u64,
    /// Row norms computed for unit-normalized bands; a reloaded row's
    /// norm comes from the store every worker walking the same
    /// [`Streamed`] shares, and is not counted again.
    pub norms_computed: u64,
    /// Unit rows the sketch pass kept ([`SeriesSource::cache_bytes`]).
    pub rows_kept: u64,
    /// Band rows lent from the kept rows instead of read.
    pub rows_lent_kept: u64,
}

impl OoocStats {
    /// Fold another worker's stats into this one.
    pub fn merge(&mut self, other: &OoocStats) {
        self.kernel.pairs_scored += other.kernel.pairs_scored;
        self.bands_loaded += other.bands_loaded;
        self.bytes_streamed += other.bytes_streamed;
        self.norms_computed += other.norms_computed;
        self.rows_kept += other.rows_kept;
        self.rows_lent_kept += other.rows_lent_kept;
    }
}

/// The sequential out-of-core kernel — one worker walking every band
/// pair of `src` at `band_rows` rows per band: for every row of the
/// source, the `k` most cosine-similar other rows, best first —
/// bit-identical to [`crate::top_k_tiled`] over the same matrix, with
/// resident memory bounded by two band buffers plus the top-k state and
/// what is kept per row (module docs).
pub fn top_k_oooc(
    src: &dyn SeriesSource,
    k: usize,
    band_rows: usize,
    cfg: &TileConfig,
) -> Result<(Vec<Vec<SimilarityMatch>>, OoocStats)> {
    similarity_walk(&Streamed::new(src, band_rows), k, cfg, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{top_k_query, top_k_tiled, SeriesMatrix};
    use crate::merge_partials;
    use crate::testutil::{flat, pseudo_series, resident_pairs_ok};
    use crate::walk::{band_count, band_pair_count};
    use proptest::prelude::*;
    use smda_types::{BitEq, Error};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The query form over `src` at `band_rows` rows per band.
    fn top_k_queries(
        src: &dyn SeriesSource,
        queries: &[usize],
        k: usize,
        band_rows: usize,
    ) -> Result<(Vec<Vec<SimilarityMatch>>, OoocStats)> {
        Streamed::new(src, band_rows).top_k_queries(queries, k)
    }

    #[test]
    fn sequential_walk_loads_the_fewest_bands_and_each_norm_once() {
        let cfg = TileConfig::default();
        let band_rows = 3;
        for bands in 1usize..=9 {
            // A ragged last band; k = n, so every pair is live.
            let n = bands * band_rows - 1;
            let rows = pseudo_series(n, 7, bands as u64);
            let (data, stride) = flat(&rows);
            let src = SliceSource::new(&data, n, stride);
            let (_, stats) = top_k_oooc(&src, n, band_rows, &cfg).unwrap();
            // No sketch pass, since nothing can be skipped; the lead and
            // the rest share a band at every step (`lead_pair_at`).
            let fewest = bands * (bands - 1) / 2 + 1;
            assert_eq!(stats.bands_loaded, fewest as u64, "bands={bands}");
            assert_eq!(stats.norms_computed, n as u64, "bands={bands}");
        }
    }

    #[test]
    fn a_walk_that_can_skip_sketches_every_row_first_and_loads_no_more_than_that_pass_more() {
        // Three shapes, each with small changes: at k = 2 thresholds come
        // early, and band pairs of different shapes are skipped unloaded.
        let cfg = TileConfig::default();
        let band_rows = 4;
        let shapes = pseudo_series(3, 64, 5);
        let rows: Vec<Vec<f64>> = (0..48)
            .map(|i| {
                let mut row = shapes[i % 3].clone();
                row[i % 64] += 0.01;
                row
            })
            .collect();
        let (data, stride) = flat(&rows);
        let src = SliceSource::new(&data, rows.len(), stride);
        let (got, stats) = top_k_oooc(&src, 2, band_rows, &cfg).unwrap();
        let m = SeriesMatrix::from_rows_normalized(&rows);
        assert!(top_k_tiled(&m, 2, &cfg).0.bits_eq(&got));
        let bands = band_count(rows.len(), band_rows) as u64;
        let unpruned = bands * (bands - 1) / 2 + 1;
        assert!(stats.bands_loaded < bands + unpruned, "{stats:?}");
        assert!(stats.bands_loaded > bands, "{stats:?}");
        assert_eq!(stats.norms_computed, rows.len() as u64);
    }

    #[test]
    fn oooc_matches_tiled_bitwise_across_band_sizes() {
        let cfg = TileConfig::default();
        for n in [0usize, 1, 2, 9, 33] {
            let rows = pseudo_series(n, 31, 11 + n as u64);
            let m = SeriesMatrix::from_rows_normalized(&rows);
            let (expect, expect_stats) = top_k_tiled(&m, 5, &cfg);
            let scored = expect_stats.pairs_scored;
            assert!(resident_pairs_ok(scored, n, 5), "n={n}: {scored} pairs");
            let (data, stride) = flat(&rows);
            let src = SliceSource::new(&data, n, stride);
            // band=1 and band >= n are the degenerate extremes.
            for band_rows in [1usize, 3, 8, n.max(1), n + 7] {
                let (got, stats) = top_k_oooc(&src, 5, band_rows, &cfg).unwrap();
                assert!(expect.bits_eq(&got));
                let scored = stats.kernel.pairs_scored;
                assert!(
                    resident_pairs_ok(scored, n, 5),
                    "n={n} band={band_rows}: {scored} pairs"
                );
            }
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
            (t < total).then_some(t..t + 1)
        };
        let rows = Streamed::new(&src, 4);
        let mut partials = Vec::new();
        let mut merged_stats = OoocStats::default();
        for _ in 0..3 {
            let (p, s) = similarity_walk(&rows, 3, &cfg, Some(&claim)).unwrap();
            merged_stats.merge(&s);
            partials.push(p);
        }
        let merged = merge_partials(27, partials, 3);
        assert!(seq.bits_eq(&merged));
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
        let (got, stats) = top_k_queries(&src, &queries, 4, 5).unwrap();
        for (slot, &q) in queries.iter().enumerate() {
            let expect = top_k_query(&m, q, 4);
            assert!(expect.bits_eq(&got[slot]), "query {q}");
        }
        assert!(stats.bands_loaded > 0);
    }

    #[test]
    fn the_query_form_computes_each_norm_once() {
        // Queries in four of the five bands, two sharing one: each query
        // row is loaded before the band that holds it, whose other rows
        // alone are still unknown to the memo.
        let n = 23;
        let rows = pseudo_series(n, 17, 13);
        let m = SeriesMatrix::from_rows_normalized(&rows);
        let (data, stride) = flat(&rows);
        let src = SliceSource::new(&data, n, stride);
        let queries = [21usize, 2, 9, 6, 13];
        let (got, stats) = top_k_queries(&src, &queries, 4, 5).unwrap();
        assert_eq!(stats.norms_computed, n as u64);
        assert_eq!(
            stats.bands_loaded,
            (queries.len() + band_count(n, 5)) as u64
        );
        for (slot, &q) in queries.iter().enumerate() {
            let expect = top_k_query(&m, q, 4);
            assert!(expect.bits_eq(&got[slot]), "query {q}");
        }
    }

    #[test]
    fn out_of_range_query_is_an_error_not_a_panic() {
        let (data, stride) = flat(&pseudo_series(5, 7, 1));
        let src = SliceSource::new(&data, 5, stride);
        let err = top_k_queries(&src, &[0, 5], 2, 3).unwrap_err();
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
            assert!(expect.bits_eq(&got));
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
        // The query form loads through the same checked path.
        let err = top_k_queries(&Short, &[1], 2, 2).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)));
    }

    #[test]
    fn a_row_no_year_may_hold_is_refused_naming_it() {
        let (data, stride) = flat(&pseudo_series(6, 24, 5));
        for bad in [-0.25, f64::NAN] {
            let mut data = data.clone();
            data[4 * stride + 7] = bad;
            let src = SliceSource::new(&data, 6, stride);
            for band_rows in [1, 2, 6] {
                match top_k_oooc(&src, 2, band_rows, &TileConfig::default()) {
                    Err(Error::Schema(msg)) => {
                        assert!(msg.contains("row 4") && msg.contains("hour 7"), "{msg}")
                    }
                    other => panic!("{bad} at band height {band_rows}: {other:?}"),
                }
            }
            // The query form loads through the same checked path.
            assert!(matches!(
                top_k_queries(&src, &[4], 2, 2),
                Err(Error::Schema(_))
            ));
        }
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
            assert!(expect.bits_eq(&got));
        }
    }
}
