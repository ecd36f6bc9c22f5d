//! The Spark engine: plans each benchmark task into RDD pipelines
//! according to the table's text format.

use std::sync::Arc;
use std::time::Duration;

use smda_cluster::{
    parse_consumer_policed, parse_reading_policed, ClusterTopology, TextTable, TwinShell,
};
use smda_core::tasks::collect_consumer_results;
use smda_core::{ConsumerMatches, ConsumerTask, Task, TaskOutput, SIMILARITY_TOP_K};
use smda_engines::{Capabilities, ClusterTwin, Platform, RunResult, RunSpec};
use smda_obs::counters;
use smda_stats::{top_k_query, with_fit_scratch, SeriesMatrix};
use smda_types::formats::{assemble_households, assemble_year, HouseholdYear};
use smda_types::{
    ConsumerId, ConsumerSeries, DataFormat, Dataset, Reading, Result, TemperatureSeries,
};

use crate::rdd::{Rdd, SparkContext, SparkStats};
use crate::sizeof::SizeOf;

/// Result of one Spark job chain.
#[derive(Debug)]
pub struct SparkRunResult {
    /// The task output, identical to the reference implementation's.
    pub output: TaskOutput,
    /// Virtual wall-clock of the whole chain.
    pub virtual_elapsed: Duration,
    /// The context's accumulated accounting.
    pub stats: SparkStats,
}

/// The Spark-like engine.
///
/// All run-scoped configuration — metrics sink, fault plan, dirty-row
/// policy — arrives through the [`RunSpec`]: pass it to
/// [`SparkEngine::run_with`] (or [`Platform::run`]) and, for load-time
/// replica-loss faults, to [`ClusterTwin::load_observed`].
pub struct SparkEngine {
    topology: ClusterTopology,
    /// The DFS and the text input loaded into it.
    pub shell: TwinShell,
    /// Text format [`Platform::load`] renders the dataset in.
    pub format: DataFormat,
    /// Shuffle partitions for wide operations (default: 2 × workers).
    pub shuffle_partitions: usize,
}

impl std::fmt::Debug for SparkEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparkEngine")
            .field("workers", &self.topology.workers)
            .finish()
    }
}

/// How format 1 moves a reading through the shuffle, keyed by its
/// household: what of it is packed map-side, and how the reduce side
/// reads that back.
struct Shuffled<V> {
    pack: fn(&Reading) -> V,
    unpack: fn(ConsumerId, V) -> Reading,
}

const WITH_TEMPERATURE: Shuffled<(u32, f64, f64)> = Shuffled {
    pack: |r| (r.hour, r.temperature, r.kwh),
    unpack: |consumer, (hour, temperature, kwh)| Reading {
        consumer,
        hour,
        temperature,
        kwh,
    },
};

/// Similarity reads no temperature, so none is shuffled.
const KWH_ONLY: Shuffled<(u32, f64)> = Shuffled {
    pack: |r| (r.hour, r.kwh),
    unpack: |consumer, (hour, kwh)| Reading {
        consumer,
        hour,
        temperature: 0.0,
        kwh,
    },
};

impl SparkEngine {
    /// An engine on `topology` with `block_bytes`-sized DFS blocks.
    pub fn new(topology: ClusterTopology, block_bytes: u64) -> Self {
        SparkEngine {
            topology,
            shell: TwinShell::new(topology.workers, block_bytes),
            format: DataFormat::ReadingPerLine,
            shuffle_partitions: topology.workers * 2,
        }
    }

    /// Render `ds` in `format` and register it in the DFS, fault-free
    /// and unobserved.
    pub fn load(&mut self, ds: &Dataset, format: DataFormat) -> Result<()> {
        self.load_observed(ds, format, &RunSpec::builder(Task::Histogram).build())
    }

    /// Every household of `table` through `on_year` (formats 1 and 3: its
    /// year put together from its rows by the one assembler) or
    /// `on_series` (format 2: the row is the year). Format 1 shuffles
    /// readings by household first; 2 and 3 stay narrow. A refused line
    /// or household yields nothing and defers its error to the job's end.
    fn per_household<V, O>(
        &self,
        sc: &SparkContext,
        table: &TextTable,
        spec: &RunSpec,
        shuffled: Shuffled<V>,
        on_year: impl Fn(HouseholdYear) -> Result<Option<O>> + Send + Sync + 'static,
        on_series: impl Fn(ConsumerSeries) -> Result<Option<O>> + Send + Sync + 'static,
    ) -> Result<Rdd<O>>
    where
        V: SizeOf + Clone + Send + Sync + 'static,
        O: Clone + Send + Sync + 'static,
    {
        let lines = sc.text_table(table)?;
        let (policy, m) = (spec.dirty_policy, spec.metrics.clone());
        let (sc2, sc3) = (sc.clone(), sc.clone());
        Ok(match table.format {
            DataFormat::ReadingPerLine => lines
                .flat_map(move |l| {
                    let row = parse_reading_policed(&l, policy, &m);
                    let pair = |r: Reading| (r.consumer, (shuffled.pack)(&r));
                    sc2.collect_or_defer(row.map(|row| row.map(pair)))
                })
                .group_by_key(self.shuffle_partitions)
                .flat_map(move |(id, rows)| {
                    let rows = rows.into_iter().map(|v| (shuffled.unpack)(id, v));
                    sc3.collect_or_defer(assemble_year(id, rows.collect()).and_then(&on_year))
                }),
            DataFormat::ConsumerPerLine => lines.flat_map(move |l| {
                let row = parse_consumer_policed(&l, policy, &m);
                sc2.collect_or_defer(row.and_then(|row| row.map_or(Ok(None), &on_series)))
            }),
            DataFormat::ManyFiles { .. } => lines.map_partitions(move |part| {
                let rows = part
                    .iter()
                    .flat_map(|l| sc2.ok_or_defer(parse_reading_policed(l, policy, &m)));
                assemble_households(rows.collect())
                    .flat_map(|year| sc2.ok_or_defer(year.and_then(&on_year)))
                    .collect()
            }),
        })
    }

    /// Run `spec.task`, returning output + virtual-time stats. Metrics,
    /// faults and the dirty-row policy all come from the spec.
    ///
    /// # Errors
    /// Typed failures deferred from any stage — retry exhaustion, a
    /// cluster-wide outage, a malformed row under the fail-fast
    /// dirty-data policy, or a household whose rows are not a whole year.
    pub fn run_with(&mut self, spec: &RunSpec) -> Result<SparkRunResult> {
        let task = spec.task;
        let sc =
            SparkContext::configured(self.topology, spec.metrics.clone(), spec.fault_plan.clone());
        let table = self.shell.table()?;

        let output = match task {
            Task::Similarity => {
                let series = self.per_household(
                    &sc,
                    table,
                    spec,
                    KWH_ONLY,
                    |y| {
                        ConsumerSeries::validate(y.consumer, &y.kwh)?;
                        Ok(Some((y.consumer, y.kwh)))
                    },
                    |s| Ok(Some((s.id, s.into_readings()))),
                )?;
                // Driver-side normalize into one contiguous matrix,
                // broadcast, map-side join: the plan the paper's Spark
                // implementation used, on the shared similarity kernel.
                let mut series = series.collect();
                series.sort_by_key(|(id, _)| *id);
                let (ids, vectors): (Vec<ConsumerId>, Vec<Vec<f64>>) = series.into_iter().unzip();
                let n = vectors.len();
                let matrix = SeriesMatrix::from_rows_normalized(&vectors);
                drop(vectors);
                let broadcast = sc.broadcast(matrix);
                let ids = Arc::new(ids);
                let queries =
                    sc.parallelize((0..n).collect::<Vec<usize>>(), self.shuffle_partitions);
                let mut matches: Vec<ConsumerMatches> = queries
                    .map(move |q| {
                        let hits = top_k_query(broadcast.value(), q, SIMILARITY_TOP_K);
                        ConsumerMatches {
                            consumer: ids[q],
                            matches: hits.into_iter().map(|h| (ids[h.index], h.score)).collect(),
                        }
                    })
                    .collect();
                matches.sort_by_key(|m| m.consumer);
                // Map-side join: each of the n queries scans the other
                // n - 1 broadcast rows.
                spec.metrics
                    .incr(counters::PAIRS_SCORED, (n * n.saturating_sub(1)) as u64);
                TaskOutput::Similarity(matches)
            }
            _ => {
                // The sidecar year is checked once, here; its type carries
                // the verdict into the per-line closure.
                let temps = Arc::new(TemperatureSeries::new(table.temperature.to_vec())?);
                let results = self.per_household(
                    &sc,
                    table,
                    spec,
                    WITH_TEMPERATURE,
                    move |y| ConsumerTask::run_assembled(task, y.consumer, &y.kwh, &y.temperature),
                    move |s| {
                        let kernel = ConsumerTask::over(task, &temps);
                        Ok(with_fit_scratch(|scratch| kernel.run_series(&s, scratch)))
                    },
                )?;
                collect_consumer_results(task, results.collect())
            }
        };

        if let Some(e) = sc.take_error() {
            return Err(e);
        }
        Ok(SparkRunResult {
            output,
            virtual_elapsed: sc.virtual_time(),
            stats: sc.stats(),
        })
    }
}

impl ClusterTwin for SparkEngine {
    fn load_observed(&mut self, ds: &Dataset, format: DataFormat, spec: &RunSpec) -> Result<()> {
        let (faults, metrics) = (spec.fault_plan.as_ref(), &spec.metrics);
        self.shell.load(ds, format, faults, metrics)?;
        self.format = format;
        Ok(())
    }
}

impl Platform for SparkEngine {
    fn name(&self) -> &'static str {
        "spark"
    }

    fn load(&mut self, ds: &Dataset) -> Result<Duration> {
        let start = std::time::Instant::now();
        let format = self.format;
        SparkEngine::load(self, ds, format)?;
        Ok(start.elapsed())
    }

    fn make_cold(&mut self) {}

    fn warm(&mut self) -> Result<Duration> {
        Ok(Duration::ZERO)
    }

    fn run(&mut self, spec: &RunSpec) -> Result<RunResult> {
        let r = self.run_with(spec)?;
        Ok(RunResult {
            output: r.output,
            elapsed: r.virtual_elapsed,
        })
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::spark()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_cluster::{CostModel, FaultPlan};
    use smda_core::tasks::run_reference;
    use smda_types::{DirtyDataPolicy, Error, HOURS_PER_YEAR};

    fn tiny(n: u32) -> Dataset {
        let temp = TemperatureSeries::new(
            (0..HOURS_PER_YEAR)
                .map(|h| ((h % 37) as f64) - 8.0)
                .collect(),
        )
        .unwrap();
        let consumers = (0..n)
            .map(|i| {
                ConsumerSeries::new(
                    ConsumerId(i),
                    (0..HOURS_PER_YEAR)
                        .map(|h| 0.3 + 0.05 * (((h % 24) + 7 * i as usize) % 24) as f64)
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        Dataset::new(consumers, temp).unwrap()
    }

    fn engine(workers: usize) -> SparkEngine {
        SparkEngine::new(
            ClusterTopology {
                workers,
                slots_per_worker: 2,
                cost: CostModel::spark(),
            },
            256 * 1024,
        )
    }

    fn check(ds: &Dataset, got: &TaskOutput, task: Task) {
        let want = run_reference(task, ds);
        assert_eq!(got.len(), want.len(), "{task}");
        match (got, &want) {
            (TaskOutput::Histograms(a), TaskOutput::Histograms(b)) => {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.consumer, y.consumer);
                    assert_eq!(x.histogram.counts, y.histogram.counts);
                }
            }
            (TaskOutput::Par(a), TaskOutput::Par(b)) => {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.consumer, y.consumer);
                    for (p, q) in x.profile.iter().zip(&y.profile) {
                        assert!((p - q).abs() < 1e-3);
                    }
                }
            }
            (TaskOutput::ThreeLine(a), TaskOutput::ThreeLine(b)) => {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.consumer, y.consumer);
                    assert!((x.cooling_gradient() - y.cooling_gradient()).abs() < 1e-2);
                }
            }
            (TaskOutput::Similarity(a), TaskOutput::Similarity(b)) => {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.consumer, y.consumer);
                    let xi: Vec<ConsumerId> = x.matches.iter().map(|(i, _)| *i).collect();
                    let yi: Vec<ConsumerId> = y.matches.iter().map(|(i, _)| *i).collect();
                    assert_eq!(xi, yi);
                }
            }
            _ => panic!("mismatched outputs"),
        }
    }

    #[test]
    fn format1_pipeline_matches_reference() {
        let ds = tiny(4);
        let mut spark = engine(4);
        spark.load(&ds, DataFormat::ReadingPerLine).unwrap();
        for task in [Task::Histogram, Task::Par] {
            let r = spark.run_with(&RunSpec::builder(task).build()).unwrap();
            check(&ds, &r.output, task);
            assert!(r.stats.shuffle_bytes > 0, "format 1 requires a shuffle");
            assert!(r.virtual_elapsed > Duration::ZERO);
        }
    }

    #[test]
    fn format2_pipeline_is_shuffle_free() {
        let ds = tiny(4);
        let mut spark = engine(4);
        spark.load(&ds, DataFormat::ConsumerPerLine).unwrap();
        let r = spark
            .run_with(&RunSpec::builder(Task::Histogram).build())
            .unwrap();
        check(&ds, &r.output, Task::Histogram);
        assert_eq!(r.stats.shuffle_bytes, 0);
    }

    #[test]
    fn format3_pipeline_matches_reference() {
        let ds = tiny(6);
        let mut spark = engine(4);
        spark.load(&ds, DataFormat::ManyFiles { files: 3 }).unwrap();
        let r = spark
            .run_with(&RunSpec::builder(Task::ThreeLine).build())
            .unwrap();
        check(&ds, &r.output, Task::ThreeLine);
        assert_eq!(r.stats.shuffle_bytes, 0);
    }

    #[test]
    fn similarity_uses_broadcast_join() {
        let ds = tiny(5);
        let mut spark = engine(4);
        spark.load(&ds, DataFormat::ConsumerPerLine).unwrap();
        let r = spark
            .run_with(&RunSpec::builder(Task::Similarity).build())
            .unwrap();
        check(&ds, &r.output, Task::Similarity);
        assert!(
            r.stats.broadcast_bytes > 0,
            "similarity broadcasts the series"
        );
        // Broadcast replaces the reduce-side join: shuffle stays zero
        // under format 2.
        assert_eq!(r.stats.shuffle_bytes, 0);
    }

    #[test]
    fn similarity_from_format1() {
        let ds = tiny(4);
        let mut spark = engine(2);
        spark.load(&ds, DataFormat::ReadingPerLine).unwrap();
        let r = spark
            .run_with(&RunSpec::builder(Task::Similarity).build())
            .unwrap();
        check(&ds, &r.output, Task::Similarity);
    }

    #[test]
    fn run_before_load_errors() {
        let mut spark = engine(2);
        assert!(spark
            .run_with(&RunSpec::builder(Task::Histogram).build())
            .is_err());
    }

    #[test]
    fn crash_and_injected_failures_leave_results_exact() {
        let ds = tiny(4);
        let mut spark = engine(4);
        let mut plan = FaultPlan::seeded(11);
        plan.task_failure_rate = 0.4;
        plan.max_attempts = 32;
        plan.crashes.push(smda_cluster::NodeCrash {
            node: 1,
            at: Duration::ZERO,
        });
        spark.load(&ds, DataFormat::ReadingPerLine).unwrap();
        let spec = RunSpec::builder(Task::Histogram).fault_plan(plan).build();
        let r = spark.run_with(&spec).unwrap();
        check(&ds, &r.output, Task::Histogram);
        assert!(r.stats.retries > 0, "a 40% failure rate must retry");
    }

    #[test]
    fn retry_exhaustion_surfaces_from_run_task() {
        let ds = tiny(3);
        let mut spark = engine(2);
        let mut plan = FaultPlan::seeded(2);
        plan.task_failure_rate = 0.999;
        plan.max_attempts = 2;
        spark.load(&ds, DataFormat::ConsumerPerLine).unwrap();
        let spec = RunSpec::builder(Task::Histogram).fault_plan(plan).build();
        match spark.run_with(&spec) {
            Err(Error::TaskFailed { .. }) => {}
            other => panic!("want TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn losing_every_replica_fails_the_load_with_a_typed_error() {
        let ds = tiny(3);
        let mut spark = engine(3);
        let plan = FaultPlan {
            replica_losses: usize::MAX,
            ..FaultPlan::default()
        };
        let spec = RunSpec::builder(Task::Histogram).fault_plan(plan).build();
        match spark.load_observed(&ds, DataFormat::ReadingPerLine, &spec) {
            Err(Error::BlockUnavailable { .. }) => {}
            other => panic!("want BlockUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn dirty_line_fails_fast_by_default_but_skips_under_policy() {
        let ds = tiny(2);
        let mut spark = engine(2);
        spark.load(&ds, DataFormat::ReadingPerLine).unwrap();
        {
            let split = &mut spark.shell.table_mut().unwrap().splits[0];
            let mut lines = (*split.lines).clone();
            lines.push("not,a,valid,row".into());
            split.lines = Arc::new(lines);
        }
        assert!(spark
            .run_with(&RunSpec::builder(Task::Histogram).build())
            .is_err());
        let spec = RunSpec {
            dirty_policy: DirtyDataPolicy::SkipAndCount,
            ..RunSpec::builder(Task::Histogram).build()
        };
        let r = spark.run_with(&spec).unwrap();
        check(&ds, &r.output, Task::Histogram);
    }

    #[test]
    fn a_damaged_reading_is_a_schema_error_naming_its_household_not_a_panic() {
        let ds = tiny(2);
        for format in [
            DataFormat::ReadingPerLine,
            DataFormat::ManyFiles { files: 2 },
        ] {
            for task in [Task::Histogram, Task::ThreeLine, Task::Par] {
                let mut spark = engine(2);
                spark.load(&ds, format).unwrap();
                // Overwrite one real reading line: its household is left
                // with 8759 hours once the policy drops the garbage.
                let split = &mut spark.shell.table_mut().unwrap().splits[0];
                let mut lines = (*split.lines).clone();
                let id: u32 = lines[1234].split(',').next().unwrap().parse().unwrap();
                let victim = ConsumerId(id).to_string();
                lines[1234] = "not,a,valid,row".into();
                split.lines = Arc::new(lines);

                match spark.run_with(&RunSpec::builder(task).build()) {
                    Err(Error::Parse { .. }) => {}
                    other => {
                        panic!("{format:?}/{task}: fail-fast wants the parse error, got {other:?}")
                    }
                }
                let sink = smda_obs::MetricsSink::recording();
                let spec = RunSpec {
                    dirty_policy: DirtyDataPolicy::SkipAndCount,
                    ..RunSpec::builder(task).metrics(sink.clone()).build()
                };
                match spark.run_with(&spec) {
                    Err(Error::Schema(msg)) => {
                        assert!(msg.contains(&victim), "{format:?}/{task}: {msg}")
                    }
                    other => panic!("{format:?}/{task}: want a schema error, got {other:?}"),
                }
                let report = sink.finish(smda_obs::RunManifest::new(task.name(), "spark"));
                assert_eq!(report.counter(counters::ROWS_SKIPPED_DIRTY), Some(1));
            }
        }
    }
}
