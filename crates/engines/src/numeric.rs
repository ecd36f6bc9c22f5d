//! The Matlab-like numeric engine.
//!
//! Reads CSV data directly from files at query time. With partitioned
//! files, per-consumer tasks stream one small file per household
//! (shared-nothing across workers). With one big file, the engine must
//! first parse and group the whole file into an in-memory index before it
//! can touch any single household — the pathology Figure 5 measures.
//! [`Platform::warm`] materializes the full "workspace" (Matlab arrays),
//! after which tasks compute purely in memory.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smda_core::{Task, SIMILARITY_TOP_K};
use smda_stats::DEFAULT_BAND_ROWS;
use smda_storage::{format_metrics, BinaryEncoding, BinaryStore, FileLayout, FileStore};
use smda_types::{ConsumerId, Dataset, Error, Result};

use crate::binary::BinarySource;
use crate::capabilities::Capabilities;
use crate::oooc::{
    record_format_counters, run_similarity_oooc, DEFAULT_CACHE_BYTES, OOOC_ROW_THRESHOLD,
};
use crate::parallel::{execute_task, ConsumerSource, MemorySource};
use crate::platform::{Platform, RunResult, RunSpec};

/// What the engine reads at query time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backing {
    /// CSV files in one of the two Figure 4/5 layouts.
    Csv(FileLayout),
    /// One raw-contiguous `SMC1` file at `dir`, memory-mapped on each
    /// cold run — page faults instead of parsing.
    Binary,
}

/// The Matlab analogue.
#[derive(Debug)]
pub struct NumericEngine {
    dir: PathBuf,
    backing: Backing,
    loaded: bool,
    workspace: Option<Arc<Dataset>>,
    /// Run cold binary similarity out-of-core regardless of row count
    /// (the automatic switch is [`OOOC_ROW_THRESHOLD`]).
    force_oooc: bool,
}

impl NumericEngine {
    /// An engine that keeps its files under `dir` in `layout`.
    pub fn new(dir: impl Into<PathBuf>, layout: FileLayout) -> Self {
        NumericEngine {
            dir: dir.into(),
            backing: Backing::Csv(layout),
            loaded: false,
            workspace: None,
            force_oooc: false,
        }
    }

    /// An engine backed by one `SMC1` file at `path` instead of CSV —
    /// the same compute paths, cold starts served by the memory
    /// mapping. `load` writes the file raw-contiguous so cold runs are
    /// zero-copy.
    pub fn binary(path: impl Into<PathBuf>) -> Self {
        NumericEngine {
            dir: path.into(),
            backing: Backing::Binary,
            loaded: false,
            workspace: None,
            force_oooc: false,
        }
    }

    /// [`NumericEngine::binary`] with cold similarity always served by
    /// the out-of-core tier ([`crate::oooc`]): bands are streamed from
    /// the file instead of materializing the normalized matrix, so
    /// resident memory is bounded by the band size rather than `n`.
    /// Output stays `to_bits`-identical to the in-memory path.
    pub fn binary_oooc(path: impl Into<PathBuf>) -> Self {
        NumericEngine {
            force_oooc: true,
            ..NumericEngine::binary(path)
        }
    }

    fn csv_store(&self, layout: FileLayout) -> Result<FileStore> {
        if !self.loaded {
            return Err(Error::Invalid("numeric engine has no data loaded".into()));
        }
        Ok(FileStore::open(&self.dir, layout))
    }

    fn binary_store(&self) -> Result<BinaryStore> {
        if !self.loaded {
            return Err(Error::Invalid("numeric engine has no data loaded".into()));
        }
        BinaryStore::open(&self.dir)
    }

    fn read_all(&self) -> Result<Dataset> {
        match self.backing {
            Backing::Csv(layout) => self.csv_store(layout)?.read_all(),
            Backing::Binary => self.binary_store()?.read_all(),
        }
    }
}

/// Per-worker source streaming one consumer file at a time. The
/// temperature year is parsed once per run and shared (`Arc`) across all
/// workers; consumer reads land in a per-worker scratch buffer that is
/// lent out instead of handed over.
struct PartitionedSource {
    store: FileStore,
    temps: Arc<Vec<f64>>,
    scratch: Vec<f64>,
}

impl ConsumerSource for PartitionedSource {
    fn consumer_ids(&mut self) -> Result<Vec<ConsumerId>> {
        self.store.consumer_ids()
    }

    fn consumer_kwh(&mut self, id: ConsumerId) -> Result<&[f64]> {
        self.store.read_consumer_into(id, &mut self.scratch)?;
        Ok(&self.scratch)
    }

    fn temperature_year(&mut self) -> Result<&[f64]> {
        Ok(&self.temps)
    }
}

impl Platform for NumericEngine {
    fn name(&self) -> &'static str {
        "Matlab"
    }

    fn load(&mut self, ds: &Dataset) -> Result<Duration> {
        // Matlab performs no load; the reported cost is writing/splitting
        // the files themselves (the single Figure 4 bar).
        let start = Instant::now();
        match self.backing {
            Backing::Csv(layout) => {
                FileStore::create(&self.dir, ds, layout)?;
            }
            Backing::Binary => {
                BinaryStore::create(&self.dir, ds, BinaryEncoding::Raw)?;
            }
        }
        self.loaded = true;
        self.workspace = None;
        Ok(start.elapsed())
    }

    fn make_cold(&mut self) {
        self.workspace = None;
    }

    fn warm(&mut self) -> Result<Duration> {
        let start = Instant::now();
        self.workspace = Some(Arc::new(self.read_all()?));
        Ok(start.elapsed())
    }

    fn run(&mut self, spec: &RunSpec) -> Result<RunResult> {
        let RunSpec {
            task,
            threads,
            metrics,
            ..
        } = spec;
        let start = Instant::now();
        let output = if let Some(ws) = &self.workspace {
            // Warm: compute from the in-memory workspace.
            let ws = ws.clone();
            let make = move || -> Result<Box<dyn ConsumerSource>> {
                Ok(Box::new(MemorySource::new(ws.clone())))
            };
            execute_task(&make, *task, *threads, SIMILARITY_TOP_K, metrics)?
        } else {
            match self.backing {
                Backing::Csv(FileLayout::Partitioned) => {
                    // Cold, partitioned: stream per-consumer files.
                    let dir = self.dir.clone();
                    let temps = Arc::new(
                        self.csv_store(FileLayout::Partitioned)?
                            .read_temperature()?
                            .values()
                            .to_vec(),
                    );
                    let make = move || -> Result<Box<dyn ConsumerSource>> {
                        Ok(Box::new(PartitionedSource {
                            store: FileStore::open(&dir, FileLayout::Partitioned),
                            temps: temps.clone(),
                            scratch: Vec::new(),
                        }))
                    };
                    execute_task(&make, *task, *threads, SIMILARITY_TOP_K, metrics)?
                }
                Backing::Csv(FileLayout::Unpartitioned) => {
                    // Cold, one big file: parse and group everything first
                    // (Matlab's whole-file index), then compute in memory.
                    // The workspace is NOT retained — the next cold run
                    // pays the parse again.
                    let data = {
                        let _parse = metrics.scope("parse");
                        Arc::new(self.csv_store(FileLayout::Unpartitioned)?.read_all()?)
                    };
                    let make = move || -> Result<Box<dyn ConsumerSource>> {
                        Ok(Box::new(MemorySource::new(data.clone())))
                    };
                    execute_task(&make, *task, *threads, SIMILARITY_TOP_K, metrics)?
                }
                Backing::Binary => {
                    // Cold, binary: map the file and read rows in place —
                    // no parse phase at all. The mapping is dropped with
                    // the run, so the next cold run faults pages again.
                    let before = format_metrics::snapshot();
                    let store = {
                        let _open = metrics.scope("map");
                        Arc::new(self.binary_store()?)
                    };
                    let oooc = *task == Task::Similarity
                        && (self.force_oooc || store.len() >= OOOC_ROW_THRESHOLD);
                    if oooc {
                        // Past the threshold the normalized matrix no
                        // longer fits comfortably; stream band pairs
                        // straight off the file instead. Same bits.
                        // (`run_similarity_oooc` records its own
                        // format-counter delta.)
                        run_similarity_oooc(
                            &store,
                            SIMILARITY_TOP_K,
                            DEFAULT_BAND_ROWS,
                            DEFAULT_CACHE_BYTES,
                            *threads,
                            metrics,
                        )?
                    } else {
                        let make = {
                            let store = store.clone();
                            move || -> Result<Box<dyn ConsumerSource>> {
                                Ok(Box::new(BinarySource::new(store.clone())))
                            }
                        };
                        let output =
                            execute_task(&make, *task, *threads, SIMILARITY_TOP_K, metrics)?;
                        record_format_counters(metrics, &format_metrics::snapshot().since(&before));
                        output
                    }
                }
            }
        };
        Ok(RunResult {
            output,
            elapsed: start.elapsed(),
        })
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::matlab()
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

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("smda-numeric-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn cold_partitioned_matches_reference() {
        let ds = tiny(4);
        let mut engine = NumericEngine::new(tmp("cp"), FileLayout::Partitioned);
        engine.load(&ds).unwrap();
        for task in [Task::Histogram, Task::Par] {
            let got = engine
                .run(&RunSpec::builder(task).threads(2).build())
                .unwrap();
            let want = run_reference(task, &ds);
            match (&got.output, &want) {
                (TaskOutput::Histograms(a), TaskOutput::Histograms(b)) => {
                    // The CSV round-trip quantizes readings to 4 decimals,
                    // so bucket counts must match but spec edges only to
                    // that precision.
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.consumer, y.consumer);
                        assert_eq!(x.histogram.counts, y.histogram.counts);
                        assert!((x.histogram.spec.min - y.histogram.spec.min).abs() < 1e-4);
                        assert!((x.histogram.spec.max - y.histogram.spec.max).abs() < 1e-4);
                    }
                }
                (TaskOutput::Par(a), TaskOutput::Par(b)) => {
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.consumer, y.consumer);
                        for (p, q) in x.profile.iter().zip(&y.profile) {
                            assert!((p - q).abs() < 1e-3, "{p} vs {q}");
                        }
                    }
                }
                _ => panic!("unexpected outputs"),
            }
        }
        std::fs::remove_dir_all(&engine.dir).unwrap();
    }

    #[test]
    fn warm_run_equals_cold_run_output() {
        let ds = tiny(3);
        let mut engine = NumericEngine::new(tmp("warm"), FileLayout::Unpartitioned);
        engine.load(&ds).unwrap();
        let cold = engine
            .run(&RunSpec::builder(Task::Similarity).build())
            .unwrap();
        engine.warm().unwrap();
        let warm = engine
            .run(&RunSpec::builder(Task::Similarity).build())
            .unwrap();
        match (&cold.output, &warm.output) {
            (TaskOutput::Similarity(a), TaskOutput::Similarity(b)) => assert_eq!(a, b),
            _ => panic!("unexpected outputs"),
        }
        std::fs::remove_dir_all(&engine.dir).unwrap();
    }

    #[test]
    fn binary_backing_matches_reference_bit_for_bit() {
        let ds = tiny(4);
        let path =
            std::env::temp_dir().join(format!("smda-numeric-bin-{}.smc", std::process::id()));
        let mut engine = NumericEngine::binary(&path);
        engine.load(&ds).unwrap();
        for task in [
            Task::Par,
            Task::Histogram,
            Task::ThreeLine,
            Task::Similarity,
        ] {
            // Cold (mapped, zero-copy) run.
            let cold = engine
                .run(&RunSpec::builder(task).threads(2).build())
                .unwrap();
            let want = run_reference(task, &ds);
            assert!(
                smda_cluster::real::task_output_bits_eq(&cold.output, &want),
                "cold {task:?} diverged from reference"
            );
            // Warm run computes from the workspace; same bits.
            engine.warm().unwrap();
            let warm = engine.run(&RunSpec::builder(task).build()).unwrap();
            assert!(
                smda_cluster::real::task_output_bits_eq(&warm.output, &want),
                "warm {task:?} diverged from reference"
            );
            engine.make_cold();
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn binary_oooc_matches_in_memory_engine_bit_for_bit() {
        let ds = tiny(9);
        let base = std::env::temp_dir().join(format!("smda-numeric-oooc-{}", std::process::id()));
        let in_mem_path = base.with_extension("mem.smc");
        let oooc_path = base.with_extension("oooc.smc");

        let mut reference = NumericEngine::binary(&in_mem_path);
        reference.load(&ds).unwrap();
        let want = reference
            .run(&RunSpec::builder(Task::Similarity).threads(2).build())
            .unwrap();

        let mut engine = NumericEngine::binary_oooc(&oooc_path);
        engine.load(&ds).unwrap();
        for threads in [1, 4] {
            let got = engine
                .run(&RunSpec::builder(Task::Similarity).threads(threads).build())
                .unwrap();
            assert!(
                smda_cluster::real::task_output_bits_eq(&got.output, &want.output),
                "out-of-core similarity diverged at {threads} threads"
            );
        }
        // Non-similarity tasks and warm runs take the ordinary paths.
        let hist = engine
            .run(&RunSpec::builder(Task::Histogram).build())
            .unwrap();
        assert!(smda_cluster::real::task_output_bits_eq(
            &hist.output,
            &run_reference(Task::Histogram, &ds)
        ));
        engine.warm().unwrap();
        let warm = engine
            .run(&RunSpec::builder(Task::Similarity).build())
            .unwrap();
        assert!(smda_cluster::real::task_output_bits_eq(
            &warm.output,
            &want.output
        ));
        std::fs::remove_file(&in_mem_path).unwrap();
        std::fs::remove_file(&oooc_path).unwrap();
    }

    #[test]
    fn run_without_load_errors() {
        let mut engine = NumericEngine::new(tmp("noload"), FileLayout::Partitioned);
        assert!(engine
            .run(&RunSpec::builder(Task::Histogram).build())
            .is_err());
    }

    #[test]
    fn make_cold_drops_workspace() {
        let ds = tiny(2);
        let mut engine = NumericEngine::new(tmp("cold"), FileLayout::Partitioned);
        engine.load(&ds).unwrap();
        engine.warm().unwrap();
        assert!(engine.workspace.is_some());
        engine.make_cold();
        assert!(engine.workspace.is_none());
        std::fs::remove_dir_all(&engine.dir).unwrap();
    }
}
