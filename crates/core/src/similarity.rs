//! Benchmark task 4 (Section 3.4): top-k similar consumers.
//!
//! For every consumer the task returns the `k = 10` most similar other
//! consumers under cosine similarity of their full 8760-point consumption
//! series. Quadratic in the number of consumers — the task the paper uses
//! to stress cross-series computation.

use smda_stats::{top_k_tiled, SeriesMatrixBuilder, TileConfig};
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

impl ConsumerMatches {
    /// Every field equal, scores by bit pattern (what
    /// [`TaskOutput::bits_eq`](crate::TaskOutput::bits_eq) compares).
    pub fn bits_eq(&self, other: &ConsumerMatches) -> bool {
        self.consumer == other.consumer
            && self.matches.len() == other.matches.len()
            && self
                .matches
                .iter()
                .zip(&other.matches)
                .all(|((a, x), (b, y))| a == b && x.to_bits() == y.to_bits())
    }
}

/// Run task 4 over a whole dataset — the single-threaded reference
/// implementation (the engines parallelize their own variants).
///
/// Runs on the tiled symmetric kernel (`smda_stats::kernels`), which is
/// bit-identical to a naive per-query scan built on the same canonical
/// [`smda_stats::dot`]: every engine path can therefore be compared to
/// this reference with exact equality.
pub fn similarity_search(ds: &Dataset, k: usize) -> Vec<ConsumerMatches> {
    let ids: Vec<ConsumerId> = ds.consumers().iter().map(|c| c.id).collect();
    let builder = SeriesMatrixBuilder::new(ids.len(), HOURS_PER_YEAR);
    for (row, c) in ds.consumers().iter().enumerate() {
        builder.set_row_normalized(row, c.readings());
    }
    let matrix = builder.finish();
    let (matches, _stats) = top_k_tiled(&matrix, k, &TileConfig::default());
    matches
        .into_iter()
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

    fn dataset_with_patterns(patterns: &[(u32, fn(usize) -> f64)]) -> Dataset {
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
    fn singleton_dataset_yields_empty_matches() {
        let ds = dataset_with_patterns(&[(0, day_person)]);
        let results = similarity_search(&ds, 10);
        assert_eq!(results.len(), 1);
        assert!(results[0].matches.is_empty());
    }
}
