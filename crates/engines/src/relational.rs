//! The PostgreSQL/MADLib-like relational engine.
//!
//! Data lives in slotted heap pages behind a buffer pool with a B+tree on
//! the household id, in one of the three Figure 9 layouts. Every task
//! extracts households through the storage layer, paying per-tuple decode
//! and page-fault costs — the overhead that makes MADLib the slowest
//! single-server platform in Figure 7. Parallel runs open one handle per
//! worker, mirroring the paper's "multiple database connections".

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smda_core::SIMILARITY_TOP_K;
use smda_storage::layout::{dataset_from_layout, table_path};
use smda_storage::{ArrayTable, DayTable, ReadingTable, TableLayout};
use smda_types::{ConsumerId, Dataset, Error, Result};

use crate::capabilities::Capabilities;
use crate::parallel::{execute_task, ConsumerSource, MemorySource};
use crate::platform::{Platform, RunResult, RunSpec};

/// Which Figure 9 table layout the engine stores data in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelationalLayout {
    /// One reading per row (Table 1 of Figure 9).
    ReadingPerRow,
    /// One consumer per row with arrays (Table 2 of Figure 9).
    ArrayPerConsumer,
    /// One consumer-day per row (the in-between layout of §5.3.3).
    DayPerRow,
}

impl RelationalLayout {
    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            RelationalLayout::ReadingPerRow => "row",
            RelationalLayout::ArrayPerConsumer => "array",
            RelationalLayout::DayPerRow => "day",
        }
    }
}

/// Shared immutable metadata handed to worker connections.
enum SharedMeta {
    Index(Arc<smda_storage::BTreeIndex>),
    Directory(Arc<Vec<(ConsumerId, u64)>>),
}

/// The PostgreSQL/MADLib analogue.
pub struct RelationalEngine {
    dir: PathBuf,
    layout: RelationalLayout,
    meta: Option<SharedMeta>,
    workspace: Option<Arc<Dataset>>,
}

impl std::fmt::Debug for RelationalEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelationalEngine")
            .field("dir", &self.dir)
            .field("layout", &self.layout)
            .finish()
    }
}

struct TableSource {
    table: Box<dyn TableLayout>,
    /// Per-connection decode buffer, lent out by `consumer_kwh`.
    kwh: Vec<f64>,
    /// Temperature decode buffer, reused once `temps` is cached.
    temp_scratch: Vec<f64>,
    /// Temperature year, kept from the first extraction instead of
    /// re-decoded per consumer.
    temps: Option<Vec<f64>>,
}

impl TableSource {
    fn new(table: Box<dyn TableLayout>) -> Self {
        TableSource {
            table,
            kwh: Vec::new(),
            temp_scratch: Vec::new(),
            temps: None,
        }
    }
}

impl ConsumerSource for TableSource {
    fn consumer_ids(&mut self) -> Result<Vec<ConsumerId>> {
        self.table.consumer_ids()
    }

    fn consumer_kwh(&mut self, id: ConsumerId) -> Result<&[f64]> {
        self.table
            .consumer_year_into(id, &mut self.kwh, &mut self.temp_scratch)?;
        if self.temps.is_none() {
            self.temps = Some(std::mem::take(&mut self.temp_scratch));
        }
        Ok(&self.kwh)
    }

    fn temperature_year(&mut self) -> Result<&[f64]> {
        if self.temps.is_none() {
            let id = self
                .table
                .consumer_ids()?
                .first()
                .copied()
                .ok_or_else(|| Error::Invalid("table has no consumers".into()))?;
            self.table
                .consumer_year_into(id, &mut self.kwh, &mut self.temp_scratch)?;
            self.temps = Some(std::mem::take(&mut self.temp_scratch));
        }
        Ok(self.temps.as_deref().expect("temperature just cached"))
    }
}

impl RelationalEngine {
    /// An engine storing its table under `dir` in `layout`.
    pub fn new(dir: impl Into<PathBuf>, layout: RelationalLayout) -> Self {
        RelationalEngine {
            dir: dir.into(),
            layout,
            meta: None,
            workspace: None,
        }
    }

    /// The table layout in use.
    pub fn layout(&self) -> RelationalLayout {
        self.layout
    }

    fn table_file(&self) -> PathBuf {
        table_path(&self.dir, self.layout.label())
    }

    /// Open a fresh "connection": a new handle with its own buffer pool,
    /// sharing the immutable index/directory.
    fn connect(&self) -> Result<Box<dyn TableLayout>> {
        let path = self.table_file();
        match (&self.meta, self.layout) {
            (Some(SharedMeta::Index(idx)), RelationalLayout::ReadingPerRow) => {
                Ok(Box::new(ReadingTable::open_with_index(path, idx.clone())?))
            }
            (Some(SharedMeta::Index(idx)), RelationalLayout::DayPerRow) => {
                Ok(Box::new(DayTable::open_with_index(path, idx.clone())?))
            }
            (Some(SharedMeta::Directory(dir)), RelationalLayout::ArrayPerConsumer) => Ok(Box::new(
                ArrayTable::open_with_directory(path, dir.clone())?,
            )),
            _ => Err(Error::Invalid(
                "relational engine has no table loaded".into(),
            )),
        }
    }
}

impl Platform for RelationalEngine {
    fn name(&self) -> &'static str {
        "MADLib"
    }

    fn load(&mut self, ds: &Dataset) -> Result<Duration> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| Error::io(format!("creating {}", self.dir.display()), e))?;
        let start = Instant::now();
        let path = self.table_file();
        self.meta = Some(match self.layout {
            RelationalLayout::ReadingPerRow => {
                SharedMeta::Index(ReadingTable::create(path, ds)?.index())
            }
            RelationalLayout::DayPerRow => SharedMeta::Index(DayTable::create(path, ds)?.index()),
            RelationalLayout::ArrayPerConsumer => {
                SharedMeta::Directory(ArrayTable::create(path, ds)?.directory())
            }
        });
        self.workspace = None;
        Ok(start.elapsed())
    }

    fn make_cold(&mut self) {
        self.workspace = None;
    }

    fn warm(&mut self) -> Result<Duration> {
        // "Warm" for MADLib in the paper: run the SELECTs that extract
        // the needed data into memory first.
        let start = Instant::now();
        let mut conn = self.connect()?;
        self.workspace = Some(Arc::new(dataset_from_layout(conn.as_mut())?));
        Ok(start.elapsed())
    }

    fn run(&mut self, spec: &RunSpec) -> Result<RunResult> {
        let start = Instant::now();
        let output = if let Some(ws) = &self.workspace {
            let ws = ws.clone();
            let make = move || -> Result<Box<dyn ConsumerSource>> {
                Ok(Box::new(MemorySource::new(ws.clone())))
            };
            execute_task(
                &make,
                spec.task,
                spec.threads,
                SIMILARITY_TOP_K,
                &spec.metrics,
            )?
        } else {
            let make = || -> Result<Box<dyn ConsumerSource>> {
                Ok(Box::new(TableSource::new(self.connect()?)))
            };
            execute_task(
                &make,
                spec.task,
                spec.threads,
                SIMILARITY_TOP_K,
                &spec.metrics,
            )?
        };
        Ok(RunResult {
            output,
            elapsed: start.elapsed(),
        })
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::madlib()
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
                .map(|h| ((h % 38) as f64) - 8.0)
                .collect(),
        )
        .unwrap();
        let consumers = (0..n)
            .map(|i| {
                ConsumerSeries::new(
                    ConsumerId(i),
                    (0..HOURS_PER_YEAR)
                        .map(|h| 0.4 + 0.05 * (((h % 24) + i as usize) % 24) as f64)
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        Dataset::new(consumers, temp).unwrap()
    }

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("smda-rel-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn every_layout_matches_reference_histograms() {
        let ds = tiny(3);
        for layout in [
            RelationalLayout::ReadingPerRow,
            RelationalLayout::ArrayPerConsumer,
            RelationalLayout::DayPerRow,
        ] {
            let mut engine = RelationalEngine::new(tmp(layout.label()), layout);
            engine.load(&ds).unwrap();
            let got = engine
                .run(&RunSpec::builder(Task::Histogram).threads(2).build())
                .unwrap();
            let want = run_reference(Task::Histogram, &ds);
            match (&got.output, &want) {
                (TaskOutput::Histograms(a), TaskOutput::Histograms(b)) => {
                    assert_eq!(a, b, "layout {}", layout.label())
                }
                _ => panic!("unexpected outputs"),
            }
            std::fs::remove_dir_all(&engine.dir).unwrap();
        }
    }

    #[test]
    fn warm_workspace_produces_identical_results() {
        let ds = tiny(3);
        let mut engine = RelationalEngine::new(tmp("warm"), RelationalLayout::ArrayPerConsumer);
        engine.load(&ds).unwrap();
        let cold = engine
            .run(&RunSpec::builder(Task::ThreeLine).build())
            .unwrap();
        let wtime = engine.warm().unwrap();
        assert!(wtime > Duration::ZERO);
        let warm = engine
            .run(&RunSpec::builder(Task::ThreeLine).build())
            .unwrap();
        match (&cold.output, &warm.output) {
            (TaskOutput::ThreeLine(a), TaskOutput::ThreeLine(b)) => assert_eq!(a, b),
            _ => panic!("unexpected outputs"),
        }
        std::fs::remove_dir_all(&engine.dir).unwrap();
    }

    #[test]
    fn run_before_load_errors() {
        let mut engine = RelationalEngine::new(tmp("noload"), RelationalLayout::ReadingPerRow);
        assert!(engine
            .run(&RunSpec::builder(Task::Histogram).build())
            .is_err());
    }

    #[test]
    fn parallel_connections_agree_with_single() {
        let ds = tiny(5);
        let mut engine = RelationalEngine::new(tmp("par"), RelationalLayout::ReadingPerRow);
        engine.load(&ds).unwrap();
        let one = engine
            .run(&RunSpec::builder(Task::Similarity).build())
            .unwrap();
        let four = engine
            .run(&RunSpec::builder(Task::Similarity).threads(4).build())
            .unwrap();
        match (&one.output, &four.output) {
            (TaskOutput::Similarity(a), TaskOutput::Similarity(b)) => assert_eq!(a, b),
            _ => panic!("unexpected outputs"),
        }
        std::fs::remove_dir_all(&engine.dir).unwrap();
    }
}
