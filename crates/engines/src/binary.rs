//! [`BinarySource`]: a [`ConsumerSource`] served from one `SMC1` file.
//!
//! Every platform's task execution already flows through
//! [`ConsumerSource`]; this adapter lets any of them run straight off a
//! binary store. For raw-encoded files in a live memory mapping the
//! per-consumer slice is handed out **zero-copy** from the mapped page
//! cache — a cold run faults pages in, touches each `f64` exactly
//! once, and never parses or copies. Packed blocks (and the owned
//! fallback backing) decode into a per-worker scratch buffer instead,
//! still `to_bits`-identical to the CSV path.

use std::sync::Arc;

use smda_storage::BinaryStore;
use smda_types::{ConsumerId, Result};

use crate::parallel::ConsumerSource;

/// Streams consumers out of a shared [`BinaryStore`].
///
/// Clone-cheap per worker: the store (and its mapping) is shared via
/// `Arc`; only the decode scratch is per-source.
#[derive(Debug)]
pub struct BinarySource {
    store: Arc<BinaryStore>,
    temps: Arc<Vec<f64>>,
    scratch: Vec<f64>,
}

impl BinarySource {
    /// A source over `store`. The temperature year is decoded once at
    /// store open and shared across workers.
    pub fn new(store: Arc<BinaryStore>) -> Self {
        let temps = Arc::new(store.file().temperature().to_vec());
        BinarySource {
            store,
            temps,
            scratch: Vec::new(),
        }
    }
}

impl ConsumerSource for BinarySource {
    fn consumer_ids(&mut self) -> Result<Vec<ConsumerId>> {
        self.store.consumer_ids()
    }

    fn consumer_kwh(&mut self, id: ConsumerId) -> Result<&[f64]> {
        // Zero-copy when the block is raw and the mapping serves
        // aligned pages; decode into scratch otherwise.
        if let Some(view) = self.store.consumer_view(id) {
            return Ok(view);
        }
        self.store.read_consumer_into(id, &mut self.scratch)?;
        Ok(&self.scratch)
    }

    fn temperature_year(&mut self) -> Result<&[f64]> {
        Ok(&self.temps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_core::tasks::run_reference;
    use smda_core::{Task, SIMILARITY_TOP_K};
    use smda_storage::BinaryEncoding;
    use smda_types::{ConsumerSeries, Dataset, TemperatureSeries, HOURS_PER_YEAR};

    use crate::parallel::execute_task;
    use smda_cluster::real::task_output_bits_eq;
    use smda_obs::MetricsSink;

    fn tiny(n: u32) -> Dataset {
        let temp = TemperatureSeries::new(
            (0..HOURS_PER_YEAR)
                .map(|h| ((h % 45) as f64) - 10.0)
                .collect(),
        )
        .unwrap();
        let consumers = (0..n)
            .map(|i| {
                ConsumerSeries::new(
                    ConsumerId(i),
                    (0..HOURS_PER_YEAR)
                        .map(|h| 0.3 + 0.07 * (((h % 24) + 2 * i as usize) % 24) as f64)
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        Dataset::new(consumers, temp).unwrap()
    }

    #[test]
    fn tasks_from_smc_match_the_in_memory_reference_bit_for_bit() {
        let ds = tiny(4);
        for encoding in [BinaryEncoding::Raw, BinaryEncoding::Packed] {
            let path = std::env::temp_dir().join(format!(
                "smda-binsource-{encoding:?}-{}.smc",
                std::process::id()
            ));
            let store = Arc::new(BinaryStore::create(&path, &ds, encoding).unwrap());
            for task in [
                Task::Par,
                Task::Histogram,
                Task::ThreeLine,
                Task::Similarity,
            ] {
                let store = store.clone();
                let make = move || -> Result<Box<dyn ConsumerSource>> {
                    Ok(Box::new(BinarySource::new(store.clone())))
                };
                let metrics = MetricsSink::disabled();
                let got = execute_task(&make, task, 2, SIMILARITY_TOP_K, &metrics).unwrap();
                let want = run_reference(task, &ds);
                // The binary path stores exact f64 bits, so outputs are
                // bitwise equal — no CSV quantization caveats.
                assert!(
                    task_output_bits_eq(&got, &want),
                    "{task:?} via {encoding:?} diverged from the reference"
                );
            }
            std::fs::remove_file(&path).unwrap();
        }
    }
}
