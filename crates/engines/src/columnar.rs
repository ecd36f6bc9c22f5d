//! The "System C"-like columnar engine.
//!
//! Data lives in raw `f64` column files (see [`smda_storage::colstore`]).
//! Loading is a straight column append — the fastest load in Figure 4 —
//! and queries run tight kernels over values faulted in by chunk. The
//! chunk cache is shared across workers behind a mutex, like pages of a
//! memory-mapped file shared by threads; extraction happens under the
//! lock, computation outside it.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use smda_core::SIMILARITY_TOP_K;
use smda_storage::{ColumnStore, ColumnStoreStats};
use smda_types::{ConsumerId, Dataset, Error, Result};

use smda_obs::counters;

use crate::capabilities::Capabilities;
use crate::parallel::{execute_task, ConsumerSource};
use crate::platform::{Platform, RunResult, RunSpec};

/// The System C analogue.
pub struct ColumnarEngine {
    dir: PathBuf,
    store: Option<Arc<Mutex<ColumnStore>>>,
}

impl std::fmt::Debug for ColumnarEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnarEngine")
            .field("dir", &self.dir)
            .finish()
    }
}

struct ColumnSource {
    store: Arc<Mutex<ColumnStore>>,
    /// id → storage position, built once per source.
    positions: HashMap<ConsumerId, usize>,
    /// Per-worker decode buffer, lent out by `consumer_kwh`.
    scratch: Vec<f64>,
    /// Temperature column, materialized at most once per source.
    temps: Option<Vec<f64>>,
}

impl ColumnSource {
    fn new(store: Arc<Mutex<ColumnStore>>) -> Self {
        let positions = store
            .lock()
            .consumer_ids()
            .iter()
            .enumerate()
            .map(|(i, id)| (*id, i))
            .collect();
        ColumnSource {
            store,
            positions,
            scratch: Vec::new(),
            temps: None,
        }
    }
}

impl ConsumerSource for ColumnSource {
    fn consumer_ids(&mut self) -> Result<Vec<ConsumerId>> {
        let mut ids: Vec<ConsumerId> = self.store.lock().consumer_ids().to_vec();
        ids.sort();
        Ok(ids)
    }

    fn consumer_kwh(&mut self, id: ConsumerId) -> Result<&[f64]> {
        let index = *self
            .positions
            .get(&id)
            .ok_or_else(|| Error::Invalid(format!("unknown consumer {id}")))?;
        self.store.lock().readings_into(index, &mut self.scratch)?;
        Ok(&self.scratch)
    }

    fn temperature_year(&mut self) -> Result<&[f64]> {
        if self.temps.is_none() {
            self.temps = Some(self.store.lock().temperature()?.to_vec());
        }
        Ok(self.temps.as_deref().expect("temperature just cached"))
    }
}

impl ColumnarEngine {
    /// An engine storing its columns under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ColumnarEngine {
            dir: dir.into(),
            store: None,
        }
    }

    /// Residency/fault counters of the shared store.
    pub fn store_stats(&self) -> Option<ColumnStoreStats> {
        self.store.as_ref().map(|s| s.lock().stats())
    }

    fn shared(&self) -> Result<Arc<Mutex<ColumnStore>>> {
        self.store
            .clone()
            .ok_or_else(|| Error::Invalid("columnar engine has no data loaded".into()))
    }
}

impl Platform for ColumnarEngine {
    fn name(&self) -> &'static str {
        "System C"
    }

    fn load(&mut self, ds: &Dataset) -> Result<Duration> {
        let start = Instant::now();
        let store = ColumnStore::create(&self.dir, ds)?;
        self.store = Some(Arc::new(Mutex::new(store)));
        Ok(start.elapsed())
    }

    fn make_cold(&mut self) {
        if let Some(store) = &self.store {
            store.lock().evict_all();
        }
    }

    fn warm(&mut self) -> Result<Duration> {
        // Fault every chunk in — the mapped table becomes fully resident.
        let start = Instant::now();
        let store = self.shared()?;
        let mut guard = store.lock();
        let n = guard.len();
        for i in 0..n {
            guard.readings(i)?;
        }
        guard.temperature()?;
        Ok(start.elapsed())
    }

    fn run(&mut self, spec: &RunSpec) -> Result<RunResult> {
        let start = Instant::now();
        let store = self.shared()?;
        let before = store.lock().stats();
        let make = {
            let store = store.clone();
            move || -> Result<Box<dyn ConsumerSource>> {
                Ok(Box::new(ColumnSource::new(store.clone())))
            }
        };
        let output = execute_task(
            &make,
            spec.task,
            spec.threads,
            SIMILARITY_TOP_K,
            &spec.metrics,
        )?;
        // Chunk-cache traffic attributable to this run.
        let after = store.lock().stats();
        spec.metrics.incr(
            counters::PAGES_FAULTED,
            after.chunk_faults - before.chunk_faults,
        );
        spec.metrics
            .incr(counters::CACHE_HITS, after.chunk_hits - before.chunk_hits);
        Ok(RunResult {
            output,
            elapsed: start.elapsed(),
        })
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::system_c()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_core::tasks::run_reference;
    use smda_core::{Task, TaskOutput};
    use smda_types::{ConsumerSeries, TemperatureSeries, HOURS_PER_YEAR};

    fn tiny(n: u32) -> Dataset {
        let temp = TemperatureSeries::new(
            (0..HOURS_PER_YEAR)
                .map(|h| ((h % 41) as f64) - 9.0)
                .collect(),
        )
        .unwrap();
        let consumers = (0..n)
            .map(|i| {
                ConsumerSeries::new(
                    ConsumerId(i),
                    (0..HOURS_PER_YEAR)
                        .map(|h| 0.2 + 0.06 * (((h % 24) + 3 * i as usize) % 24) as f64)
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        Dataset::new(consumers, temp).unwrap()
    }

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("smda-coleng-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn all_tasks_match_reference() {
        let ds = tiny(4);
        let mut engine = ColumnarEngine::new(tmp("ref"));
        engine.load(&ds).unwrap();
        for task in Task::ALL {
            let got = engine
                .run(&RunSpec::builder(task).threads(2).build())
                .unwrap();
            let want = run_reference(task, &ds);
            assert_eq!(got.output.len(), want.len(), "{task}");
            match (&got.output, &want) {
                (TaskOutput::Histograms(a), TaskOutput::Histograms(b)) => assert_eq!(a, b),
                (TaskOutput::Similarity(a), TaskOutput::Similarity(b)) => assert_eq!(a, b),
                (TaskOutput::ThreeLine(a), TaskOutput::ThreeLine(b)) => assert_eq!(a, b),
                (TaskOutput::Par(a), TaskOutput::Par(b)) => assert_eq!(a, b),
                _ => panic!("unexpected outputs"),
            }
        }
        std::fs::remove_dir_all(&engine.dir).unwrap();
    }

    #[test]
    fn warm_faults_everything_in() {
        let ds = tiny(3);
        let mut engine = ColumnarEngine::new(tmp("warm"));
        engine.load(&ds).unwrap();
        engine.make_cold();
        assert_eq!(engine.store_stats().unwrap().resident_bytes, 0);
        engine.warm().unwrap();
        let stats = engine.store_stats().unwrap();
        // 3 consumers + temperature, 8760 f64 each.
        assert!(stats.resident_bytes >= 3 * HOURS_PER_YEAR * 8);
        std::fs::remove_dir_all(&engine.dir).unwrap();
    }

    #[test]
    fn run_before_load_errors() {
        let mut engine = ColumnarEngine::new(tmp("noload"));
        assert!(engine
            .run(&RunSpec::builder(Task::Histogram).build())
            .is_err());
        assert!(engine.warm().is_err());
    }

    #[test]
    fn cold_and_warm_runs_agree() {
        let ds = tiny(3);
        let mut engine = ColumnarEngine::new(tmp("cw"));
        engine.load(&ds).unwrap();
        engine.make_cold();
        let sink = smda_obs::MetricsSink::recording();
        let cold_spec = RunSpec::builder(Task::Par)
            .threads(2)
            .metrics(sink.clone())
            .build();
        let cold = engine.run(&cold_spec).unwrap();
        let cold_report = sink.finish(smda_obs::RunManifest::new("par", engine.name()).cold(true));
        // A cold run faults chunks in from disk.
        assert!(cold_report.counter(counters::PAGES_FAULTED).unwrap_or(0) > 0);
        engine.warm().unwrap();
        let warm_spec = RunSpec::builder(Task::Par)
            .threads(2)
            .metrics(sink.clone())
            .build();
        let warm = engine.run(&warm_spec).unwrap();
        let warm_report = sink.finish(smda_obs::RunManifest::new("par", engine.name()));
        // A warm run is served from the chunk cache.
        assert_eq!(warm_report.counter(counters::PAGES_FAULTED).unwrap_or(0), 0);
        assert!(warm_report.counter(counters::CACHE_HITS).unwrap_or(0) > 0);
        match (&cold.output, &warm.output) {
            (TaskOutput::Par(a), TaskOutput::Par(b)) => assert_eq!(a, b),
            _ => panic!("unexpected outputs"),
        }
        std::fs::remove_dir_all(&engine.dir).unwrap();
    }
}
