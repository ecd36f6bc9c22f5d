//! Benchmark task 1 (Section 3.1): per-consumer consumption histograms.
//!
//! For every consumer, the distribution of hourly consumption is
//! summarized by an equi-width histogram: the x-axis spans the consumer's
//! own consumption range split into ten buckets, the y-axis counts the
//! hours of the year falling in each bucket.

use smda_stats::{EquiWidthHistogram, HistogramSpec};
use smda_types::{ConsumerId, ConsumerSeries, Dataset};

/// The benchmark fixes histograms to ten equi-width buckets.
pub const HISTOGRAM_BUCKETS: usize = 10;

/// One consumer's consumption histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsumerHistogram {
    /// The household the histogram describes.
    pub consumer: ConsumerId,
    /// Ten-bucket equi-width histogram over the hourly readings.
    pub histogram: EquiWidthHistogram,
}

impl ConsumerHistogram {
    /// Build the benchmark histogram for one series.
    ///
    /// Every valid series yields a histogram (8760 readings is never
    /// empty), so this is total over the crate's data model.
    pub fn build(series: &ConsumerSeries) -> Self {
        ConsumerHistogram::of_valid_year(series.id, series.readings())
    }

    /// A valid year is 8760 finite readings: it has a range, and
    /// [`HistogramSpec::spanning`] need not ask. Lent slices reach this
    /// through [`ConsumerTask::run`](crate::tasks::ConsumerTask::run),
    /// which holds them to [`ConsumerSeries::validate`] first.
    pub(crate) fn of_valid_year(consumer: ConsumerId, readings: &[f64]) -> Self {
        let spec = HistogramSpec::spanning(readings, HISTOGRAM_BUCKETS);
        ConsumerHistogram {
            consumer,
            histogram: EquiWidthHistogram::build_with_spec(readings, spec),
        }
    }

    /// The fraction of the year spent in the modal bucket — a simple
    /// variability indicator used by the feedback example.
    pub fn modal_fraction(&self) -> f64 {
        let total = self.histogram.total();
        if total == 0 {
            return 0.0;
        }
        self.histogram.counts[self.histogram.mode_bucket()] as f64 / total as f64
    }

    /// Every field equal, the range's `f64`s by bit pattern (what
    /// [`TaskOutput::bits_eq`](crate::TaskOutput::bits_eq) compares).
    pub fn bits_eq(&self, other: &ConsumerHistogram) -> bool {
        let (a, b) = (&self.histogram, &other.histogram);
        self.consumer == other.consumer
            && a.spec.min.to_bits() == b.spec.min.to_bits()
            && a.spec.max.to_bits() == b.spec.max.to_bits()
            && a.spec.buckets == b.spec.buckets
            && a.counts == b.counts
    }
}

/// Run task 1 over a whole dataset (the single-threaded reference
/// implementation the platforms are validated against).
pub fn consumer_histograms(ds: &Dataset) -> Vec<ConsumerHistogram> {
    ds.consumers()
        .iter()
        .map(ConsumerHistogram::build)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_types::{ConsumerId, ConsumerSeries, TemperatureSeries, HOURS_PER_YEAR};

    fn series(values: Vec<f64>) -> ConsumerSeries {
        ConsumerSeries::new(ConsumerId(1), values).unwrap()
    }

    #[test]
    fn histogram_covers_all_hours() {
        let values: Vec<f64> = (0..HOURS_PER_YEAR)
            .map(|h| (h % 100) as f64 / 10.0)
            .collect();
        let h = ConsumerHistogram::build(&series(values));
        assert_eq!(h.histogram.total(), HOURS_PER_YEAR as u64);
        assert_eq!(h.histogram.counts.len(), HISTOGRAM_BUCKETS);
    }

    #[test]
    fn uniform_consumption_fills_first_bucket() {
        let h = ConsumerHistogram::build(&series(vec![1.5; HOURS_PER_YEAR]));
        assert_eq!(h.histogram.counts[0], HOURS_PER_YEAR as u64);
        assert_eq!(h.modal_fraction(), 1.0);
    }

    #[test]
    fn whole_dataset_yields_one_histogram_per_consumer() {
        let temp = TemperatureSeries::new(vec![0.0; HOURS_PER_YEAR]).unwrap();
        let consumers = (0..4)
            .map(|i| {
                ConsumerSeries::new(
                    ConsumerId(i),
                    (0..HOURS_PER_YEAR)
                        .map(|h| ((h + i as usize) % 24) as f64 * 0.1)
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        let ds = Dataset::new(consumers, temp).unwrap();
        let hs = consumer_histograms(&ds);
        assert_eq!(hs.len(), 4);
        assert!(hs
            .iter()
            .enumerate()
            .all(|(i, h)| h.consumer == ConsumerId(i as u32)));
    }

    #[test]
    fn bimodal_consumption_shows_two_occupied_extremes() {
        // Half the year at ~0.2 kWh, half at ~3.0 kWh.
        let values: Vec<f64> = (0..HOURS_PER_YEAR)
            .map(|h| if h % 2 == 0 { 0.2 } else { 3.0 })
            .collect();
        let h = ConsumerHistogram::build(&series(values));
        assert!(h.histogram.counts[0] > 0);
        assert!(h.histogram.counts[9] > 0);
        assert_eq!(h.histogram.counts[4], 0);
        assert!((h.modal_fraction() - 0.5).abs() < 1e-9);
    }
}
