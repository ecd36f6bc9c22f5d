//! Out-of-core similarity over an `SMC1` store.
//!
//! The in-memory similarity path materializes the whole normalized
//! `n × hours` matrix before scoring — `O(n · hours)` resident doubles,
//! which at a million consumers is a 70 GB workspace. This module runs
//! the same pruned walk directly against the file through
//! [`smda_stats::SeriesSource`] bands instead, so resident memory is
//! `O(band_rows · hours + n · (k + 340))` — two band buffers, and per
//! row its top k, norm, floor and 337-value sketch — not `O(n · hours)`:
//!
//! * a **raw-contiguous** file is served by [`SmcSource`]'s raw tier —
//!   each band is one positioned read from the file straight into the
//!   band buffer, so no page of the file enters the resident set
//!   however much of it is streamed, and a file truncated under the
//!   run is a typed error;
//! * a **packed** file goes through the bounded
//!   [`RowGroupCache`] — checksum-verified
//!   decode on miss, LRU eviction, sequential prefetch.
//!
//! Scheduling is the same walk and pool driver as
//! [`top_k_matrix`](crate::parallel::top_k_matrix): band pairs are
//! claimed dynamically by pool workers and per-worker partials merged,
//! which keeps the output `to_bits`-identical to the in-memory tiled
//! kernel (and to the naive scan) at every thread count, band size, and
//! encoding.

use std::ops::Range;

use smda_core::{consumer_matches, TaskOutput};
use smda_obs::{counters, MetricsSink};
use smda_stats::{
    band_count, band_pair_count, similarity_walk, OoocStats, SeriesSource, SimilarityMatch,
    Streamed, TileConfig,
};
use smda_storage::{format_metrics, BinaryStore, FormatCounters, RowGroupCache};
use smda_types::{Error, Result};

use crate::parallel::pooled_top_k;

/// Cold binary similarity runs switch to the out-of-core tier at this
/// many consumers (≈2.3 GB of normalized matrix at 8760 hours — the
/// point where materializing the workspace starts to dominate).
pub const OOOC_ROW_THRESHOLD: usize = 32_768;

/// Default decode-cache budget for packed stores (shared across all
/// workers of a run).
pub const DEFAULT_CACHE_BYTES: usize = 128 << 20;

/// An open [`BinaryStore`] as a [`SeriesSource`]: the tier is picked
/// from the file itself — rows read straight from raw-contiguous files,
/// the bounded decode cache for packed ones.
pub struct SmcSource<'a> {
    rows: usize,
    stride: usize,
    tier: Tier<'a>,
}

enum Tier<'a> {
    /// Bands are read straight from the file
    /// ([`smda_format::SmcFile::read_raw_rows`]).
    Raw(&'a BinaryStore),
    /// Bands are assembled from checksum-verified decoded row groups
    /// held in a bounded LRU cache.
    Cached(RowGroupCache<'a>),
}

impl<'a> SmcSource<'a> {
    /// Wrap `store`, choosing the raw tier when the file is one
    /// row-major matrix (it serves a zero-copy matrix view) and the
    /// decode cache (grouped at `band_rows` rows, bounded by
    /// `cache_bytes`) otherwise.
    pub fn over(store: &'a BinaryStore, band_rows: usize, cache_bytes: usize) -> SmcSource<'a> {
        let rows = store.len();
        let stride = store.file().hours();
        let tier = match store.matrix_view() {
            Some(_) => Tier::Raw(store),
            None => Tier::Cached(store.group_cache(band_rows, cache_bytes)),
        };
        SmcSource { rows, stride, tier }
    }

    /// True on the raw tier, whose bands are the file's own bytes,
    /// rather than the decode cache.
    pub fn is_mapped(&self) -> bool {
        matches!(self.tier, Tier::Raw(_))
    }
}

impl SeriesSource for SmcSource<'_> {
    fn rows(&self) -> usize {
        self.rows
    }

    fn stride(&self) -> usize {
        self.stride
    }

    fn load_band(&self, rows: Range<usize>, out: &mut Vec<f64>) -> Result<()> {
        match &self.tier {
            Tier::Raw(store) => store.file().read_raw_rows(rows, out),
            Tier::Cached(cache) => cache.load_rows(rows, out),
        }
    }
}

/// All-pairs top-k over any [`SeriesSource`] streamed in bands of
/// `band_rows` rows — [`top_k_matrix`](crate::parallel::top_k_matrix)
/// with the bands loaded instead of lent: the same walk, the same
/// driver, the same bit-identity guarantee and counters, plus the
/// `oooc.*` streaming counters. `scaling` must be `None`: scaled scoring
/// was removed, and `Some` is an [`Error::Invalid`].
pub fn top_k_source_with(
    src: &dyn SeriesSource,
    scaling: Option<&[f64]>,
    k: usize,
    band_rows: usize,
    threads: usize,
    metrics: &MetricsSink,
) -> Result<(Vec<Vec<SimilarityMatch>>, OoocStats)> {
    if scaling.is_some() {
        return Err(Error::Invalid(
            "scaled scoring was removed: every walk scores unit rows exactly; pass `None`".into(),
        ));
    }
    let cfg = TileConfig::current();
    let rows = Streamed::new(src, band_rows);
    let shape = (src.rows(), src.stride());
    let pairs = band_pair_count(band_count(src.rows(), band_rows));
    let (matches, stats) = pooled_top_k(shape, pairs, k, threads, metrics, |claim| {
        similarity_walk(&rows, k, &cfg, Some(claim))
    })?;
    metrics.incr(counters::OOOC_RUNS, 1);
    metrics.incr(counters::OOOC_BANDS_LOADED, stats.bands_loaded);
    metrics.incr(counters::OOOC_BAND_PAIRS, pairs as u64);
    metrics.incr(counters::OOOC_BYTES_STREAMED, stats.bytes_streamed);
    metrics.incr(counters::OOOC_NORMS_COMPUTED, stats.norms_computed);
    Ok((matches, stats))
}

/// Record a format-counter delta (`snapshot` before the work,
/// `since` after) into the run's metrics, so `format.*` shows up in
/// per-run reports and the bench export.
pub fn record_format_counters(metrics: &MetricsSink, delta: &FormatCounters) {
    metrics.incr(counters::FORMAT_ZERO_COPY_HITS, delta.zero_copy_hits);
    metrics.incr(counters::FORMAT_BLOCKS_DECODED, delta.blocks_decoded);
    metrics.incr(counters::FORMAT_BYTES_CHECKSUMMED, delta.bytes_checksummed);
    metrics.incr(counters::FORMAT_BYTES_DECODED, delta.bytes_decoded);
    metrics.incr(counters::FORMAT_CACHE_HITS, delta.cache_hits);
    metrics.incr(counters::FORMAT_CACHE_MISSES, delta.cache_misses);
    metrics.incr(counters::FORMAT_CACHE_EVICTIONS, delta.cache_evictions);
}

/// The full out-of-core similarity task over an open store: stream the
/// file band-by-band (never materializing the matrix), score all pairs,
/// and shape the result exactly like the in-memory path.
pub fn run_similarity_oooc(
    store: &BinaryStore,
    k: usize,
    band_rows: usize,
    cache_bytes: usize,
    threads: usize,
    metrics: &MetricsSink,
) -> Result<TaskOutput> {
    let before = format_metrics::snapshot();
    let ids = {
        let _t = metrics.scope("plan");
        store.consumer_ids()?
    };
    if store.file().hours() == 0 {
        return Err(Error::Invalid("store has zero-length series".into()));
    }
    let source = SmcSource::over(store, band_rows, cache_bytes);
    let matches = {
        let _t = metrics.scope("score");
        top_k_source_with(&source, None, k, band_rows, threads, metrics)?.0
    };
    record_format_counters(metrics, &format_metrics::snapshot().since(&before));
    Ok(TaskOutput::Similarity(consumer_matches(&ids, matches)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::top_k_matrix;
    use proptest::prelude::*;
    use smda_obs::MetricsSink;
    use smda_stats::{
        merge_partials, top_k_cosine, top_k_oooc, top_k_tiled, top_k_tiled_partial, SeriesMatrix,
        SeriesMatrixBuilder, SliceSource,
    };
    use smda_storage::BinaryEncoding;
    use smda_types::{ConsumerId, ConsumerSeries, Dataset, TemperatureSeries, HOURS_PER_YEAR};
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("smda-eng-oooc-{tag}-{}.smc", std::process::id()))
    }

    fn pseudo_dataset(n: u32, hours: usize) -> Dataset {
        let temp =
            TemperatureSeries::new((0..hours).map(|h| ((h % 31) as f64) - 4.0).collect()).unwrap();
        let consumers = (0..n)
            .map(|i| {
                let mut state = (i as u64).wrapping_mul(0x9e37) | 1;
                let readings = (0..hours)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state % 1000) as f64 / 250.0
                    })
                    .collect();
                ConsumerSeries::new(ConsumerId(i), readings).unwrap()
            })
            .collect();
        Dataset::new(consumers, temp).unwrap()
    }

    fn matches_bits(m: &[Vec<SimilarityMatch>]) -> Vec<(usize, u64)> {
        m.iter()
            .flat_map(|hits| hits.iter().map(|h| (h.index, h.score.to_bits())))
            .collect()
    }

    #[test]
    fn smc_source_matches_in_memory_on_both_encodings() {
        let ds = pseudo_dataset(23, HOURS_PER_YEAR);
        let builder = SeriesMatrixBuilder::new(23, HOURS_PER_YEAR);
        for (i, c) in ds.consumers().iter().enumerate() {
            builder.set_row_normalized(i, c.readings());
        }
        let matrix = builder.finish();
        let sink = MetricsSink::disabled();
        let (want, _) = top_k_matrix(&matrix, 5, 3, &sink);
        for encoding in [BinaryEncoding::Raw, BinaryEncoding::Packed] {
            let path = tmp(&format!("parity-{encoding:?}"));
            let store = BinaryStore::create(&path, &ds, encoding).unwrap();
            for band_rows in [1usize, 7, 23, 64] {
                for threads in [1usize, 4] {
                    let source = SmcSource::over(&store, band_rows, 1 << 20);
                    assert_eq!(source.rows(), 23);
                    assert_eq!(source.stride(), HOURS_PER_YEAR);
                    let (got, stats) =
                        top_k_source_with(&source, None, 5, band_rows, threads, &sink).unwrap();
                    assert_eq!(
                        matches_bits(&got),
                        matches_bits(&want),
                        "{encoding:?} band={band_rows} threads={threads}"
                    );
                    assert!(stats.bands_loaded > 0);
                    assert!(stats.bytes_streamed > 0);
                }
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn the_streamed_query_form_matches_top_k_query_on_both_encodings() {
        use smda_stats::{band_count, top_k_query, Streamed};
        let (n, band_rows, k) = (23, 4, 5);
        let ds = pseudo_dataset(n as u32, HOURS_PER_YEAR);
        let builder = SeriesMatrixBuilder::new(n, HOURS_PER_YEAR);
        for (i, c) in ds.consumers().iter().enumerate() {
            builder.set_row_normalized(i, c.readings());
        }
        let matrix = builder.finish();
        // Two of the six row groups: reading every band in file order
        // through the packed tier's cache evicts.
        let cache_bytes = 2 * band_rows * HOURS_PER_YEAR * 8;
        // Queries in four of the six bands, two sharing one.
        let queries = [21usize, 2, 9, 6, 13];
        for encoding in [BinaryEncoding::Raw, BinaryEncoding::Packed] {
            let path = tmp(&format!("queries-{encoding:?}"));
            let store = BinaryStore::create(&path, &ds, encoding).unwrap();
            assert!((cache_bytes as u64) < store.total_bytes().unwrap());
            let source = SmcSource::over(&store, band_rows, cache_bytes);
            let before = format_metrics::snapshot();
            let (got, stats) = Streamed::new(&source, band_rows)
                .top_k_queries(&queries, k)
                .unwrap();
            for (slot, &q) in queries.iter().enumerate() {
                let want = top_k_query(&matrix, q, k);
                assert_eq!(
                    matches_bits(&got[slot..=slot]),
                    matches_bits(&[want]),
                    "{encoding:?} query {q}"
                );
            }
            assert_eq!(stats.norms_computed, n as u64, "{encoding:?}");
            let loads = queries.len() + band_count(n, band_rows);
            assert_eq!(stats.bands_loaded, loads as u64, "{encoding:?}");
            if encoding == BinaryEncoding::Packed {
                // The counters are process-wide: other tests only add.
                let counted = format_metrics::snapshot().since(&before);
                assert!(counted.cache_evictions > 0, "{counted:?}");
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn a_scaling_vector_is_refused_not_scored() {
        let rows = [1.0, 2.0, 3.0, 4.0];
        let src = SliceSource::new(&rows, 2, 2);
        let sink = MetricsSink::disabled();
        let err = top_k_source_with(&src, Some(&[1.0, 1.0]), 1, 1, 1, &sink).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
        assert!(
            err.to_string().contains("scaled scoring was removed"),
            "{err}"
        );
    }

    #[test]
    fn run_similarity_oooc_records_streaming_counters() {
        let ds = pseudo_dataset(12, HOURS_PER_YEAR);
        let path = tmp("counters");
        let store = BinaryStore::create(&path, &ds, BinaryEncoding::Packed).unwrap();
        let sink = MetricsSink::recording();
        let out = run_similarity_oooc(&store, 3, 4, 1 << 20, 2, &sink).unwrap();
        let TaskOutput::Similarity(matches) = &out else {
            panic!("unexpected output");
        };
        assert_eq!(matches.len(), 12);
        assert_eq!(matches[0].consumer, ConsumerId(0));
        let report = sink.finish(smda_obs::RunManifest::new("similarity", "oooc"));
        assert_eq!(report.counter(counters::OOOC_RUNS), Some(1));
        assert!(report.counter(counters::OOOC_BANDS_LOADED).unwrap_or(0) > 0);
        assert!(report.counter(counters::OOOC_BAND_PAIRS).unwrap_or(0) > 0);
        assert!(report.counter(counters::OOOC_BYTES_STREAMED).unwrap_or(0) > 0);
        let blocks = report.counter(counters::FORMAT_BLOCKS_DECODED).unwrap_or(0);
        assert!(blocks > 0);
        // Every decoded block yields one year of f64s and was
        // checksummed first (packed: fewer stored bytes than decoded).
        assert_eq!(
            report.counter(counters::FORMAT_BYTES_DECODED),
            Some(blocks * HOURS_PER_YEAR as u64 * 8)
        );
        assert!(
            report
                .counter(counters::FORMAT_BYTES_CHECKSUMMED)
                .unwrap_or(0)
                > 0
        );
        assert!(report.counter(counters::PAIRS_SCORED).unwrap_or(0) > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_mapped_file_truncated_between_band_loads_is_an_error_not_a_fault() {
        let ds = pseudo_dataset(8, HOURS_PER_YEAR);
        let path = tmp("truncated");
        let store = BinaryStore::create(&path, &ds, BinaryEncoding::Raw).unwrap();
        let source = SmcSource::over(&store, 4, 1 << 20);
        assert!(source.is_mapped());
        let mut band = Vec::new();
        source.load_band(0..4, &mut band).unwrap();
        // Cut the file inside its first row: every row's bytes are gone.
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(4096).unwrap();
        for rows in [4..8, 0..4] {
            let err = source.load_band(rows.clone(), &mut band).unwrap_err();
            assert!(
                matches!(&err, Error::BadFormat { .. }) && err.to_string().contains("truncated"),
                "{rows:?}: {err}"
            );
        }
        let sink = MetricsSink::disabled();
        let walked = top_k_source_with(&source, None, 3, 4, 1, &sink);
        assert!(matches!(walked, Err(Error::BadFormat { .. })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_nan_reading_in_a_binary_is_an_error_on_both_similarity_paths() {
        use crate::parallel::execute_task;
        use crate::BinarySource;
        use smda_core::Task;
        use smda_storage::BinaryWriter;
        use std::sync::Arc;
        let ds = pseudo_dataset(6, HOURS_PER_YEAR);
        for encoding in [BinaryEncoding::Raw, BinaryEncoding::Packed] {
            // One reading of consumer 3 is a NaN, written past the
            // `Dataset`, which would refuse it.
            let path = tmp(&format!("nan-{encoding:?}"));
            let mut writer = BinaryWriter::create(&path, 6, HOURS_PER_YEAR, encoding).unwrap();
            for c in ds.consumers() {
                let mut kwh = c.readings().to_vec();
                if c.id == ConsumerId(3) {
                    kwh[100] = f64::NAN;
                }
                writer.append_consumer(c.id, &kwh).unwrap();
            }
            writer.finish(ds.temperature().values()).unwrap();
            let store = Arc::new(BinaryStore::open(&path).unwrap());
            let sink = MetricsSink::disabled();
            let streamed = run_similarity_oooc(&store, 3, 4, 1 << 20, 2, &sink);
            assert!(
                matches!(&streamed, Err(Error::Schema(msg)) if msg.contains("row 3")),
                "{encoding:?} out of core: {streamed:?}"
            );
            let make = || -> Result<Box<dyn crate::parallel::ConsumerSource>> {
                Ok(Box::new(BinarySource::new(store.clone())))
            };
            let resident = execute_task(&make, Task::Similarity, 2, 3, &sink);
            assert!(
                matches!(&resident, Err(Error::Schema(msg)) if msg.contains("consumer")),
                "{encoding:?} resident: {resident:?}"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// A claim closure several sequentially-run "workers" can share.
    fn counter(total: usize) -> impl Fn() -> Option<usize> {
        let next = std::sync::atomic::AtomicUsize::new(0);
        move || {
            let t = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            (t < total).then_some(t)
        }
    }

    /// Row length of the generated matrices: a one-element ragged tail
    /// past the last four-wide chunk.
    const STRIDE: usize = 13;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every similarity entry point over one generated matrix —
        /// sequential, three workers' partials merged, banded at the
        /// degenerate and a random band height, pooled at 1/2/4 threads
        /// — is `to_bits`-equal to the naive scan. Every walk, resident or
        /// banded, scores each unordered pair once where `k ≥ n − 1`, and
        /// at most that many pairs elsewhere, where sketch bounds may skip
        /// register blocks and, over a streamed source, band pairs.
        #[test]
        fn prop_every_entry_point_matches_the_naive_scan(
            rows in prop::collection::vec(prop::collection::vec(0.0f64..4.0, STRIDE), 0..28),
            k in 0usize..6,
            band in 1usize..40,
            query_block in 0usize..=9,
        ) {
            let n = rows.len();
            let want = top_k_cosine(&rows, k);
            let pairs = (n * n.saturating_sub(1) / 2) as u64;
            let check_resident = |label: &str, got: &[Vec<SimilarityMatch>], scored: u64| {
                assert_eq!(matches_bits(got), matches_bits(&want), "{label}");
                if k + 1 >= n {
                    assert_eq!(scored, pairs, "{label}");
                } else {
                    assert!(scored <= pairs, "{label}: {scored} of {pairs} pairs");
                }
            };
            let matrix = SeriesMatrix::from_rows_normalized(&rows);
            let flat: Vec<f64> = rows.iter().flatten().copied().collect();
            let src = SliceSource::new(&flat, n, STRIDE);
            let sink = MetricsSink::disabled();
            // With n and the band height, the query block (zero is read
            // as one) makes every shape of the block walk occur: one to
            // three query rows past a group of four, an odd candidate.
            let cfg = TileConfig { query_block };

            let (got, stats) = top_k_tiled(&matrix, k, &cfg);
            check_resident("tiled", &got, stats.pairs_scored);
            let claim = counter(cfg.tile_rows(n));
            let (parts, scored): (Vec<_>, Vec<_>) = (0..3)
                .map(|_| top_k_tiled_partial(&matrix, k, &cfg, &claim))
                .map(|(p, s)| (p, s.pairs_scored))
                .unzip();
            check_resident("tiled partials", &merge_partials(n, parts, k), scored.iter().sum());

            for band_rows in [1, band, n + band] {
                let (got, stats) = top_k_oooc(&src, k, band_rows, &cfg).unwrap();
                check_resident("banded", &got, stats.kernel.pairs_scored);
                let claim = counter(band_pair_count(band_count(n, band_rows)));
                let pair = || claim().map(|t| t..t + 1);
                let bands = Streamed::new(&src, band_rows);
                let (parts, scored): (Vec<_>, Vec<_>) = (0..3)
                    .map(|_| similarity_walk(&bands, k, &cfg, Some(&pair)).unwrap())
                    .map(|(p, s)| (p, s.kernel.pairs_scored))
                    .unzip();
                check_resident("banded partials", &merge_partials(n, parts, k), scored.iter().sum());
            }

            for threads in [1usize, 2, 4] {
                let (got, stats) = top_k_matrix(&matrix, k, threads, &sink);
                check_resident("pooled resident", &got, stats.pairs_scored);
                let (got, stats) = top_k_source_with(&src, None, k, band, threads, &sink).unwrap();
                check_resident("pooled banded", &got, stats.kernel.pairs_scored);
            }
        }
    }
}
