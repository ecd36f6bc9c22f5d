//! The sealed world: the bridge from streaming state to batch engines.
//!
//! When every consumer's year has closed, the pipeline folds the sealed
//! series into a [`Snapshot`]: a validated [`Dataset`], plus what the
//! batch code derives from it — the pre-normalized [`SeriesMatrix`] for
//! similarity search and the task-1 histograms. The snapshot then
//! serves the existing batch engines through [`MemorySource`] —
//! [`Snapshot::run_task`] is the lambda architecture's hand-off point,
//! and the integration tests pin its output bit-identical to the
//! offline load path.

use std::path::Path;
use std::sync::Arc;

use smda_core::{consumer_histograms, unit_matrix, ConsumerHistogram, Task, TaskOutput};
use smda_engines::parallel::{execute_task, ConsumerSource, MemorySource};
use smda_obs::MetricsSink;
use smda_stats::SeriesMatrix;
use smda_storage::{BinaryEncoding, BinaryStore};
use smda_types::{ConsumerSeries, Dataset, Result, TemperatureSeries};

/// Everything the batch layer needs, derived from the sealed year.
pub struct Snapshot {
    dataset: Arc<Dataset>,
    matrix: SeriesMatrix,
    histograms: Vec<ConsumerHistogram>,
}

impl Snapshot {
    /// Assemble a snapshot from sealed series (already sorted by id) and
    /// the year's temperature series. The similarity rows and histograms
    /// come from the batch path's own builders.
    pub fn from_sealed(
        sealed: Vec<ConsumerSeries>,
        temperature: TemperatureSeries,
    ) -> Result<Snapshot> {
        let dataset = Dataset::new(sealed, temperature)?;
        Ok(Snapshot {
            matrix: unit_matrix(&dataset),
            histograms: consumer_histograms(&dataset),
            dataset: Arc::new(dataset),
        })
    }

    /// The sealed dataset, identical to an offline-loaded one.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// Unit-normalized similarity rows, in consumer-id order.
    pub fn matrix(&self) -> &SeriesMatrix {
        &self.matrix
    }

    /// Ten-bucket histograms, in consumer-id order.
    pub fn histograms(&self) -> &[ConsumerHistogram] {
        &self.histograms
    }

    /// Seal the snapshot to one `SMC1` binary file at `path` — the
    /// lambda hand-off to disk. Any engine (or another machine) can
    /// later cold-start off the file with zero re-parsing, and every
    /// reading survives `to_bits`-identical. Returns the file size in
    /// bytes.
    pub fn write_smc(&self, path: impl AsRef<Path>, encoding: BinaryEncoding) -> Result<u64> {
        let store = BinaryStore::create(path.as_ref(), &self.dataset, encoding)?;
        store.total_bytes()
    }

    /// Run one benchmark task against the sealed data with the existing
    /// batch engine, unchanged: each worker opens its own
    /// [`MemorySource`] exactly as the offline path does.
    pub fn run_task(
        &self,
        task: Task,
        threads: usize,
        k: usize,
        metrics: &MetricsSink,
    ) -> Result<TaskOutput> {
        let ds = self.dataset.clone();
        execute_task(
            &move || Ok(Box::new(MemorySource::new(ds.clone())) as Box<dyn ConsumerSource>),
            task,
            threads,
            k,
            metrics,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_types::{ConsumerId, DirtyDataPolicy, Reading, HOURS_PER_YEAR};

    fn sealed_consumer(id: u32, scale: f64) -> ConsumerSeries {
        let mut acc = crate::state::ConsumerAccumulator::new(ConsumerId(id), None);
        for h in 0..HOURS_PER_YEAR as u32 {
            acc.admit(&Reading {
                consumer: ConsumerId(id),
                hour: h,
                temperature: 10.0,
                kwh: scale * (1.0 + (h % 24) as f64),
            });
        }
        let mut missing = 0;
        acc.seal(DirtyDataPolicy::FailFast, &mut missing, &mut Vec::new())
            .unwrap()
    }

    #[test]
    fn snapshot_matches_offline_batch_path() {
        let sealed = vec![sealed_consumer(1, 0.5), sealed_consumer(2, 2.0)];
        let temps = TemperatureSeries::new(vec![10.0; HOURS_PER_YEAR]).unwrap();
        let snap = Snapshot::from_sealed(sealed, temps).unwrap();

        // The matrix equals the canonical batch normalization, bitwise.
        let rows: Vec<Vec<f64>> = snap
            .dataset
            .consumers()
            .iter()
            .map(|c| c.readings().to_vec())
            .collect();
        let batch = SeriesMatrix::from_rows_normalized(&rows);
        for i in 0..2 {
            for (a, b) in snap.matrix().row(i).iter().zip(batch.row(i)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        // Histograms equal the batch task output.
        for (h, c) in snap.histograms().iter().zip(snap.dataset.consumers()) {
            assert_eq!(*h, ConsumerHistogram::build(c));
        }

        // The bridge runs a real task.
        let out = snap
            .run_task(Task::Histogram, 2, 5, &MetricsSink::disabled())
            .unwrap();
        match out {
            TaskOutput::Histograms(hs) => assert_eq!(hs.len(), 2),
            other => panic!("unexpected output: {other:?}"),
        }
    }

    #[test]
    fn sealed_snapshot_writes_bit_identical_smc() {
        let sealed = vec![sealed_consumer(3, 1.0), sealed_consumer(9, 0.25)];
        let temps = TemperatureSeries::new(vec![4.0; HOURS_PER_YEAR]).unwrap();
        let snap = Snapshot::from_sealed(sealed, temps).unwrap();
        for encoding in [BinaryEncoding::Raw, BinaryEncoding::Packed] {
            let path = std::env::temp_dir().join(format!(
                "smda-snapshot-{encoding:?}-{}.smc",
                std::process::id()
            ));
            let bytes = snap.write_smc(&path, encoding).unwrap();
            assert!(bytes > 0);
            let back = BinaryStore::open(&path).unwrap().read_all().unwrap();
            for (a, b) in back.consumers().iter().zip(snap.dataset().consumers()) {
                assert_eq!(a.id, b.id);
                assert!(a
                    .readings()
                    .iter()
                    .zip(b.readings())
                    .all(|(x, y)| x.to_bits() == y.to_bits()));
            }
            std::fs::remove_file(&path).unwrap();
        }
    }
}
