//! The benchmark dataset: `n` consumption series plus shared weather.

use serde::{Deserialize, Serialize};

use crate::calendar::HOURS_PER_YEAR;
use crate::error::{Error, Result};
use crate::reading::Reading;
use crate::series::{ConsumerId, ConsumerSeries, TemperatureSeries};

/// The input to every benchmark task (Section 3 of the paper): `n` hourly
/// consumption time series, one per consumer, plus one hourly outdoor
/// temperature series shared by all consumers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    consumers: Vec<ConsumerSeries>,
    temperature: TemperatureSeries,
}

impl Dataset {
    /// Assemble a dataset, validating that consumer ids are unique.
    pub fn new(consumers: Vec<ConsumerSeries>, temperature: TemperatureSeries) -> Result<Self> {
        let mut ids: Vec<u32> = consumers.iter().map(|c| c.id.raw()).collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(Error::Schema(format!(
                "duplicate consumer id {}",
                ConsumerId(w[0])
            )));
        }
        Ok(Dataset {
            consumers,
            temperature,
        })
    }

    /// Number of consumers, `n`.
    pub fn len(&self) -> usize {
        self.consumers.len()
    }

    /// True when the dataset holds no consumers.
    pub fn is_empty(&self) -> bool {
        self.consumers.is_empty()
    }

    /// The consumption series, in insertion order.
    pub fn consumers(&self) -> &[ConsumerSeries] {
        &self.consumers
    }

    /// The shared outdoor temperature series.
    pub fn temperature(&self) -> &TemperatureSeries {
        &self.temperature
    }

    /// Look up one consumer's series by id (linear scan; the storage crates
    /// provide indexed access).
    pub fn consumer(&self, id: ConsumerId) -> Option<&ConsumerSeries> {
        self.consumers.iter().find(|c| c.id == id)
    }

    /// A sub-dataset holding the first `n` consumers (used by the harness
    /// for scale sweeps). `n` is clamped to the dataset size.
    pub fn head(&self, n: usize) -> Dataset {
        Dataset {
            consumers: self.consumers[..n.min(self.consumers.len())].to_vec(),
            temperature: self.temperature.clone(),
        }
    }

    /// Iterate all readings row-by-row, joined with temperature — the view
    /// row-oriented layouts and Format 1 are built from.
    pub fn readings(&self) -> impl Iterator<Item = Reading> + '_ {
        self.consumers.iter().flat_map(|c| self.readings_of(c))
    }

    /// One household's readings in hour order, joined with this dataset's
    /// temperature — the rows a Format-3 file holds for it.
    pub fn readings_of<'a>(&'a self, c: &'a ConsumerSeries) -> impl Iterator<Item = Reading> + 'a {
        let temp = self.temperature.values();
        c.readings()
            .iter()
            .zip(temp)
            .enumerate()
            .map(|(h, (&kwh, &temperature))| Reading {
                consumer: c.id,
                hour: h as u32,
                temperature,
                kwh,
            })
    }

    /// Total number of readings (`n × 8760`).
    pub fn reading_count(&self) -> usize {
        self.consumers.len() * HOURS_PER_YEAR
    }

    /// Nominal size in bytes under the paper's CSV encoding; used to label
    /// scale sweeps in GB as the paper does.
    pub fn nominal_bytes(&self) -> usize {
        self.reading_count() * Reading::NOMINAL_BYTES
    }

    /// Summary statistics across the dataset.
    pub fn stats(&self) -> DatasetStats {
        let n = self.consumers.len();
        let mut total = 0.0;
        let mut peak: f64 = 0.0;
        for c in &self.consumers {
            total += c.annual_total();
            peak = peak.max(c.peak());
        }
        DatasetStats {
            consumers: n,
            readings: self.reading_count(),
            total_kwh: total,
            mean_annual_kwh: if n == 0 { 0.0 } else { total / n as f64 },
            peak_hourly_kwh: peak,
            nominal_bytes: self.nominal_bytes(),
        }
    }
}

/// Aggregate description of a dataset, for reports and sanity checks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Number of consumers.
    pub consumers: usize,
    /// Number of readings (`consumers × 8760`).
    pub readings: usize,
    /// Sum of all hourly readings, kWh.
    pub total_kwh: f64,
    /// Mean annual consumption per household, kWh.
    pub mean_annual_kwh: f64,
    /// Largest single hourly reading in the dataset, kWh.
    pub peak_hourly_kwh: f64,
    /// Nominal CSV footprint in bytes.
    pub nominal_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(n: u32) -> Dataset {
        let temp = TemperatureSeries::new(vec![5.0; HOURS_PER_YEAR]).unwrap();
        let consumers = (0..n)
            .map(|i| {
                ConsumerSeries::new(ConsumerId(i), vec![0.5 + i as f64 * 0.1; HOURS_PER_YEAR])
                    .unwrap()
            })
            .collect();
        Dataset::new(consumers, temp).unwrap()
    }

    #[test]
    fn rejects_duplicate_ids() {
        let temp = TemperatureSeries::new(vec![5.0; HOURS_PER_YEAR]).unwrap();
        let c = ConsumerSeries::new(ConsumerId(7), vec![1.0; HOURS_PER_YEAR]).unwrap();
        let err = Dataset::new(vec![c.clone(), c], temp).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn readings_iterator_joins_temperature() {
        let ds = tiny(2);
        let rows: Vec<Reading> = ds.readings().collect();
        assert_eq!(rows.len(), 2 * HOURS_PER_YEAR);
        assert_eq!(rows[0].consumer, ConsumerId(0));
        assert_eq!(rows[0].temperature, 5.0);
        assert_eq!(rows[HOURS_PER_YEAR].consumer, ConsumerId(1));
        assert_eq!(rows[HOURS_PER_YEAR].hour, 0);
    }

    #[test]
    fn head_truncates_and_clamps() {
        let ds = tiny(5);
        assert_eq!(ds.head(3).len(), 3);
        assert_eq!(ds.head(100).len(), 5);
        assert!(ds.head(0).is_empty());
    }

    #[test]
    fn stats_are_consistent() {
        let ds = tiny(3);
        let st = ds.stats();
        assert_eq!(st.consumers, 3);
        assert_eq!(st.readings, 3 * HOURS_PER_YEAR);
        assert!((st.peak_hourly_kwh - 0.7).abs() < 1e-12);
        assert_eq!(st.nominal_bytes, ds.nominal_bytes());
    }

    #[test]
    fn consumer_lookup() {
        let ds = tiny(4);
        assert!(ds.consumer(ConsumerId(2)).is_some());
        assert!(ds.consumer(ConsumerId(9)).is_none());
    }
}
