//! Benchmark task 4 (Section 3.4): top-k similar consumers.
//!
//! For every consumer the task returns the `k = 10` most similar other
//! consumers under cosine similarity of their full 8760-point consumption
//! series. Quadratic in the number of consumers — the task the paper uses
//! to stress cross-series computation.

use smda_stats::{top_k_tiled, SeriesMatrix, SeriesMatrixBuilder, SimilarityMatch, TileConfig};
use smda_types::{ConsumerId, Dataset, HOURS_PER_YEAR};

/// The benchmark fixes `k = 10`.
pub const SIMILARITY_TOP_K: usize = 10;

/// The top matches for one consumer, best first.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsumerMatches {
    /// The query household.
    pub consumer: ConsumerId,
    /// Up to `k` matches: household and cosine similarity, best first.
    pub matches: Vec<(ConsumerId, f64)>,
}

smda_types::bit_eq_fields!(ConsumerMatches { consumer, matches });

/// Run task 4 over a whole dataset — the single-threaded reference
/// implementation (the engines parallelize their own variants).
///
/// Runs on the tiled symmetric kernel (`smda_stats::kernels`), which is
/// bit-identical to a naive per-query scan built on the same canonical
/// [`smda_stats::dot`]: every engine path can therefore be compared to
/// this reference with exact equality.
pub fn similarity_search(ds: &Dataset, k: usize) -> Vec<ConsumerMatches> {
    let ids: Vec<ConsumerId> = ds.consumers().iter().map(|c| c.id).collect();
    let (matches, _stats) = top_k_tiled(&unit_matrix(ds), k, &TileConfig::default());
    consumer_matches(&ids, matches)
}

/// Every household's year of `ds` as one unit-norm row, in dataset
/// order: the matrix each all-pairs similarity over a resident dataset
/// scores (the reference, the real cluster's shipped rows, a sealed
/// ingest snapshot).
pub fn unit_matrix(ds: &Dataset) -> SeriesMatrix {
    let builder = SeriesMatrixBuilder::new(ds.len(), HOURS_PER_YEAR);
    for (row, c) in ds.consumers().iter().enumerate() {
        builder.set_row_normalized(row, c.readings());
    }
    builder.finish()
}

/// Name an all-pairs top-k result by household: row `q` of `rows`
/// holds the matches of `ids[q]`, and each hit's `index` is a row of
/// the same matrix.
pub fn consumer_matches(
    ids: &[ConsumerId],
    rows: Vec<Vec<SimilarityMatch>>,
) -> Vec<ConsumerMatches> {
    rows.into_iter()
        .enumerate()
        .map(|(q, hits)| ConsumerMatches {
            consumer: ids[q],
            matches: hits.into_iter().map(|h| (ids[h.index], h.score)).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_types::{ConsumerSeries, TemperatureSeries, HOURS_PER_YEAR};

    /// A consumer id and its reading at each hour.
    type Pattern = (u32, fn(usize) -> f64);

    fn dataset_with_patterns(patterns: &[Pattern]) -> Dataset {
        let temp = TemperatureSeries::new(vec![0.0; HOURS_PER_YEAR]).unwrap();
        let consumers = patterns
            .iter()
            .map(|(id, f)| {
                ConsumerSeries::new(ConsumerId(*id), (0..HOURS_PER_YEAR).map(f).collect()).unwrap()
            })
            .collect();
        Dataset::new(consumers, temp).unwrap()
    }

    fn day_person(h: usize) -> f64 {
        if (8..20).contains(&(h % 24)) {
            2.0
        } else {
            0.2
        }
    }

    fn day_person_scaled(h: usize) -> f64 {
        day_person(h) * 3.0
    }

    fn night_person(h: usize) -> f64 {
        if (8..20).contains(&(h % 24)) {
            0.2
        } else {
            2.0
        }
    }

    #[test]
    fn similar_patterns_match_first() {
        let ds =
            dataset_with_patterns(&[(0, day_person), (1, day_person_scaled), (2, night_person)]);
        let results = similarity_search(&ds, 2);
        // Consumer 0's best match is the scaled copy of itself (cosine is
        // scale-invariant), not the night owl.
        assert_eq!(results[0].matches[0].0, ConsumerId(1));
        assert!((results[0].matches[0].1 - 1.0).abs() < 1e-9);
        assert_eq!(results[0].matches[1].0, ConsumerId(2));
        assert!(results[0].matches[1].1 < 0.5);
    }

    #[test]
    fn no_self_matches_and_k_respected() {
        let ds = dataset_with_patterns(&[
            (0, day_person),
            (1, night_person),
            (2, day_person_scaled),
            (3, |h| (h % 7) as f64 + 0.1),
        ]);
        let results = similarity_search(&ds, 2);
        assert_eq!(results.len(), 4);
        for r in &results {
            assert_eq!(r.matches.len(), 2);
            assert!(r.matches.iter().all(|(id, _)| *id != r.consumer));
            assert!(r.matches[0].1 >= r.matches[1].1);
        }
    }

    #[test]
    fn scores_bounded_by_one() {
        let ds = dataset_with_patterns(&[
            (0, day_person),
            (1, night_person),
            (2, |h| ((h * 31) % 17) as f64),
        ]);
        for r in similarity_search(&ds, 10) {
            for (_, s) in r.matches {
                assert!((-1.0..=1.0 + 1e-9).contains(&s), "score {s}");
            }
        }
    }

    #[test]
    fn the_query_form_skips_rows_on_generator_data() {
        use smda_stats::{
            dot_scalar, select_top_k, top_k_query_counted, SeriesMatrix, SimilarityMatch,
        };
        use smda_types::BitEq;
        let ds = crate::generator::generate_seed(&crate::generator::SeedConfig {
            consumers: 96,
            seed: 7,
            ..Default::default()
        })
        .unwrap();
        let rows: Vec<Vec<f64>> = ds
            .consumers()
            .iter()
            .map(|c| c.readings().to_vec())
            .collect();
        let m = SeriesMatrix::from_rows_normalized(&rows);
        let n = m.rows();
        let mut scored = 0;
        for q in 0..n {
            let (hits, stats) = top_k_query_counted(&m, q, SIMILARITY_TOP_K);
            let mut naive: Vec<SimilarityMatch> = (0..n)
                .filter(|&j| j != q)
                .map(|j| SimilarityMatch {
                    index: j,
                    score: dot_scalar(m.row(q), m.row(j)),
                })
                .collect();
            select_top_k(&mut naive, SIMILARITY_TOP_K);
            assert!(hits.bits_eq(&naive), "query {q}");
            assert!(
                stats.pairs_scored < (n - 1) as u64,
                "query {q} scored every row"
            );
            scored += stats.pairs_scored;
        }
        // Step 0 measured about two rows in three skipped at n = 96.
        assert!(
            scored * 2 < (n * (n - 1)) as u64,
            "{scored} of {} rows scored",
            n * (n - 1)
        );
    }

    #[test]
    fn the_all_pairs_walk_skips_blocks_on_generator_data() {
        use smda_stats::{dot_scalar, select_top_k, top_k_tiled, SeriesMatrix, SimilarityMatch};
        use smda_types::BitEq;
        let ds = crate::generator::generate_seed(&crate::generator::SeedConfig {
            consumers: 96,
            seed: 7,
            ..Default::default()
        })
        .unwrap();
        let rows: Vec<Vec<f64>> = ds
            .consumers()
            .iter()
            .map(|c| c.readings().to_vec())
            .collect();
        let m = SeriesMatrix::from_rows_normalized(&rows);
        let n = m.rows();
        let (matches, stats) = top_k_tiled(&m, SIMILARITY_TOP_K, &TileConfig::default());
        for (q, hits) in matches.iter().enumerate() {
            let mut naive: Vec<SimilarityMatch> = (0..n)
                .filter(|&j| j != q)
                .map(|j| SimilarityMatch {
                    index: j,
                    score: dot_scalar(m.row(q), m.row(j)),
                })
                .collect();
            select_top_k(&mut naive, SIMILARITY_TOP_K);
            assert!(hits.bits_eq(&naive), "row {q}");
        }
        // The chain-ordered walk scored about three pairs in ten at
        // n = 96 on the seed generator's data.
        let pairs = (n * (n - 1) / 2) as u64;
        assert!(
            stats.pairs_scored * 2 < pairs,
            "{} of {pairs} pairs scored",
            stats.pairs_scored
        );
    }

    #[test]
    fn singleton_dataset_yields_empty_matches() {
        let ds = dataset_with_patterns(&[(0, day_person)]);
        let results = similarity_search(&ds, 10);
        assert_eq!(results.len(), 1);
        assert!(results[0].matches.is_empty());
    }
}
