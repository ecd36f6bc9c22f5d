//! The Spark engine: plans each benchmark task into RDD pipelines
//! according to the table's text format.

use std::sync::Arc;
use std::time::Duration;

use smda_cluster::textdata::{parse_consumer, parse_reading_policed};
use smda_cluster::{ClusterTopology, DfsConfig, SimDfs, TextTable};
use smda_core::tasks::{collect_consumer_results, ConsumerResult};
use smda_core::{ConsumerMatches, ConsumerTask, Task, TaskOutput, SIMILARITY_TOP_K};
use smda_engines::{Capabilities, Platform, RunResult, RunSpec};
use smda_stats::{top_k_query, with_fit_scratch, SeriesMatrix};
use smda_types::{
    ConsumerId, DataFormat, Dataset, Error, Result, TemperatureSeries, HOURS_PER_YEAR,
};

use smda_obs::counters;

use crate::rdd::{SparkContext, SparkStats};

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
/// replica-loss faults, to [`SparkEngine::load_observed`].
pub struct SparkEngine {
    topology: ClusterTopology,
    dfs: SimDfs,
    table: Option<TextTable>,
    /// The dataset as loaded — real-transport runs ship series to live
    /// worker processes rather than re-parsing the text rendition.
    dataset: Option<Dataset>,
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

impl SparkEngine {
    /// An engine on `topology` with `block_bytes`-sized DFS blocks.
    pub fn new(topology: ClusterTopology, block_bytes: u64) -> Self {
        let dfs = SimDfs::new(DfsConfig {
            block_bytes,
            replication: 3,
            nodes: topology.workers,
        });
        SparkEngine {
            topology,
            dfs,
            table: None,
            dataset: None,
            format: DataFormat::ReadingPerLine,
            shuffle_partitions: topology.workers * 2,
        }
    }

    /// The modeled topology.
    pub fn topology(&self) -> ClusterTopology {
        self.topology
    }

    /// Render `ds` in `format` and register it in the DFS, fault-free
    /// and unobserved.
    pub fn load(&mut self, ds: &Dataset, format: DataFormat) -> Result<()> {
        self.load_observed(ds, format, &RunSpec::builder(Task::Histogram).build())
    }

    /// [`SparkEngine::load`] under a [`RunSpec`]: the spec's
    /// replica-loss faults are applied to the fresh DFS placement and
    /// its counters flow into the spec's sink. (The spec's task is
    /// irrelevant here.)
    pub fn load_observed(
        &mut self,
        ds: &Dataset,
        format: DataFormat,
        spec: &RunSpec,
    ) -> Result<()> {
        if self.table.is_some() {
            self.dfs = SimDfs::new(self.dfs.config());
        }
        let mut table = TextTable::build("meter_data", ds, format, &mut self.dfs)?;
        if let Some(plan) = spec.fault_plan.clone() {
            if plan.replica_losses > 0 {
                let lost = self.dfs.drop_replicas(plan.replica_losses);
                if lost > 0 {
                    spec.metrics
                        .incr(counters::FAULTS_INJECTED_REPLICA_LOSS, lost as u64);
                }
                if plan.re_replicate {
                    let restored = self.dfs.re_replicate();
                    if restored > 0 {
                        spec.metrics
                            .incr(counters::FAULTS_RECOVERED_REPLICA_LOSS, restored as u64);
                    }
                }
                // Surfaces `BlockUnavailable` here if a block lost every
                // replica and re-replication could not bring it back.
                table.refresh_hosts(&self.dfs)?;
            }
        }
        self.format = format;
        self.table = Some(table);
        self.dataset = Some(ds.clone());
        Ok(())
    }

    /// Real-transport backend: forked worker processes, socket shuffle,
    /// WAL-backed recovery. The spec's fault plan becomes real SIGKILLs.
    fn run_real_transport(
        &mut self,
        config: &smda_cluster::RealClusterConfig,
        spec: &RunSpec,
    ) -> Result<SparkRunResult> {
        let ds = self
            .dataset
            .as_ref()
            .ok_or_else(|| Error::Invalid("no RDD input loaded".into()))?;
        let mut config = config.clone();
        if config.fault_plan.is_none() {
            config.fault_plan = spec.fault_plan.clone();
        }
        let report = smda_cluster::run_real(spec.task, ds, &config, &spec.metrics)?;
        Ok(SparkRunResult {
            output: report.output,
            virtual_elapsed: report.elapsed,
            stats: SparkStats {
                stages: if report.map_tasks > 0 { 2 } else { 1 },
                tasks: (report.map_tasks + report.reduce_tasks) as u64,
                ..SparkStats::default()
            },
        })
    }

    fn table(&self) -> Result<&TextTable> {
        self.table
            .as_ref()
            .ok_or_else(|| Error::Invalid("no RDD input loaded".into()))
    }

    /// Run one benchmark task with default run-scoped configuration
    /// (no metrics, no faults, fail-fast dirty handling).
    pub fn run_task(&mut self, task: Task) -> Result<SparkRunResult> {
        let spec = RunSpec::builder(task).build();
        self.run_with(&spec)
    }

    /// Run `spec.task`, returning output + virtual-time stats. Metrics,
    /// faults and the dirty-row policy all come from the spec.
    ///
    /// # Errors
    /// Typed failures deferred from any stage — retry exhaustion, a
    /// cluster-wide outage, or a malformed row under the fail-fast
    /// dirty-data policy.
    pub fn run_with(&mut self, spec: &RunSpec) -> Result<SparkRunResult> {
        if let Some(config) = &spec.real_transport {
            return self.run_real_transport(config, spec);
        }
        let task = spec.task;
        let sc =
            SparkContext::configured(self.topology, spec.metrics.clone(), spec.fault_plan.clone());
        let policy = spec.dirty_policy;
        let table = self.table()?;
        let lines = sc.text_table(table)?;
        let format = table.format;
        let temperature = table.temperature.clone();

        let output = match task {
            Task::Similarity => {
                let series = match format {
                    DataFormat::ReadingPerLine => {
                        // Shuffle readings by household, then assemble.
                        let sc2 = sc.clone();
                        let m = spec.metrics.clone();
                        lines
                            .flat_map(move |l| match parse_reading_policed(&l, policy, &m) {
                                Ok(Some(r)) => vec![(r.consumer.raw(), (r.hour, r.kwh))],
                                Ok(None) => vec![],
                                Err(e) => {
                                    sc2.defer_error(e);
                                    vec![]
                                }
                            })
                            .group_by_key(self.shuffle_partitions)
                            .map(|(id, mut rows)| {
                                rows.sort_by_key(|(h, _)| *h);
                                (
                                    ConsumerId(id),
                                    rows.into_iter().map(|(_, v)| v).collect::<Vec<f64>>(),
                                )
                            })
                            .collect()
                    }
                    DataFormat::ConsumerPerLine => {
                        let sc2 = sc.clone();
                        let m = spec.metrics.clone();
                        lines
                            .flat_map(move |l| match parse_consumer(&l) {
                                Ok(row) => vec![row],
                                Err(_) if policy.skips() => {
                                    m.incr(counters::ROWS_SKIPPED_DIRTY, 1);
                                    vec![]
                                }
                                Err(e) => {
                                    sc2.defer_error(e);
                                    vec![]
                                }
                            })
                            .collect()
                    }
                    DataFormat::ManyFiles { .. } => {
                        let sc2 = sc.clone();
                        let m = spec.metrics.clone();
                        lines
                            .map_partitions(move |part| {
                                let mut rows = Vec::with_capacity(part.len());
                                for l in &part {
                                    match parse_reading_policed(l, policy, &m) {
                                        Ok(Some(r)) => rows.push(r),
                                        Ok(None) => {}
                                        Err(e) => sc2.defer_error(e),
                                    }
                                }
                                rows.sort_by_key(|r| (r.consumer, r.hour));
                                let mut out = Vec::new();
                                let mut i = 0;
                                while i < rows.len() {
                                    let id = rows[i].consumer;
                                    let mut kwh = Vec::with_capacity(HOURS_PER_YEAR);
                                    while i < rows.len() && rows[i].consumer == id {
                                        kwh.push(rows[i].kwh);
                                        i += 1;
                                    }
                                    out.push((id, kwh));
                                }
                                out
                            })
                            .collect()
                    }
                };
                // Driver-side normalize into one contiguous matrix,
                // broadcast, map-side join: the plan the paper's Spark
                // implementation used, on the shared similarity kernel.
                // Ragged years (dirty-row drops) are zero-padded by the
                // matrix builder, which changes no norm or score.
                let mut series = series;
                series.sort_by_key(|(id, _)| *id);
                let ids: Vec<ConsumerId> = series.iter().map(|(id, _)| *id).collect();
                let vectors: Vec<Vec<f64>> = series.into_iter().map(|(_, v)| v).collect();
                let n = vectors.len();
                let matrix = SeriesMatrix::from_ragged_rows_normalized(&vectors);
                drop(vectors);
                let broadcast = sc.broadcast(matrix);
                let ids_arc = Arc::new(ids);
                let ids_for_map = ids_arc.clone();
                let queries = sc.parallelize(
                    (0..ids_arc.len()).collect::<Vec<usize>>(),
                    self.shuffle_partitions,
                );
                let bval = broadcast.clone();
                let mut matches: Vec<ConsumerMatches> = queries
                    .map(move |q| {
                        let hits = top_k_query(bval.value(), q, SIMILARITY_TOP_K);
                        ConsumerMatches {
                            consumer: ids_for_map[q],
                            matches: hits
                                .into_iter()
                                .map(|h| (ids_for_map[h.index], h.score))
                                .collect(),
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
                let results: Vec<ConsumerResult> = match format {
                    DataFormat::ReadingPerLine => {
                        let (sc2, sc3) = (sc.clone(), sc.clone());
                        let m = spec.metrics.clone();
                        lines
                            .flat_map(move |l| match parse_reading_policed(&l, policy, &m) {
                                Ok(Some(r)) => {
                                    vec![(r.consumer.raw(), (r.hour, r.temperature, r.kwh))]
                                }
                                Ok(None) => vec![],
                                Err(e) => {
                                    sc2.defer_error(e);
                                    vec![]
                                }
                            })
                            .group_by_key(self.shuffle_partitions)
                            .flat_map(move |(id, mut rows)| {
                                rows.sort_by_key(|(h, _, _)| *h);
                                let mut kwh = Vec::with_capacity(HOURS_PER_YEAR);
                                let mut temps = Vec::with_capacity(HOURS_PER_YEAR);
                                for (_, t, v) in rows {
                                    temps.push(t);
                                    kwh.push(v);
                                }
                                let id = ConsumerId(id);
                                sc3.collect_or_defer(ConsumerTask::run_assembled(
                                    task, id, &kwh, &temps,
                                ))
                            })
                            .collect()
                    }
                    DataFormat::ConsumerPerLine => {
                        // The sidecar year is checked once, here; its type
                        // carries the verdict into the per-line closure.
                        let temps = Arc::new(TemperatureSeries::new(temperature.to_vec())?);
                        let sc2 = sc.clone();
                        let m = spec.metrics.clone();
                        lines
                            .flat_map(move |l| match parse_consumer(&l) {
                                Ok((id, kwh)) => {
                                    let kernel = ConsumerTask::over(task, &temps);
                                    sc2.collect_or_defer(with_fit_scratch(|scratch| {
                                        kernel.run(id, &kwh, scratch)
                                    }))
                                }
                                Err(_) if policy.skips() => {
                                    m.incr(counters::ROWS_SKIPPED_DIRTY, 1);
                                    vec![]
                                }
                                Err(e) => {
                                    sc2.defer_error(e);
                                    vec![]
                                }
                            })
                            .collect()
                    }
                    DataFormat::ManyFiles { .. } => {
                        let sc2 = sc.clone();
                        let m = spec.metrics.clone();
                        lines
                            .map_partitions(move |part| {
                                let mut rows = Vec::with_capacity(part.len());
                                for l in &part {
                                    match parse_reading_policed(l, policy, &m) {
                                        Ok(Some(r)) => rows.push(r),
                                        Ok(None) => {}
                                        Err(e) => sc2.defer_error(e),
                                    }
                                }
                                rows.sort_by_key(|r| (r.consumer, r.hour));
                                let mut out = Vec::new();
                                let mut i = 0;
                                while i < rows.len() {
                                    let id = rows[i].consumer;
                                    let mut kwh = Vec::with_capacity(HOURS_PER_YEAR);
                                    let mut temps = Vec::with_capacity(HOURS_PER_YEAR);
                                    while i < rows.len() && rows[i].consumer == id {
                                        kwh.push(rows[i].kwh);
                                        temps.push(rows[i].temperature);
                                        i += 1;
                                    }
                                    out.extend(sc2.collect_or_defer(ConsumerTask::run_assembled(
                                        task, id, &kwh, &temps,
                                    )));
                                }
                                out
                            })
                            .collect()
                    }
                };
                collect_consumer_results(task, results)
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
    use smda_types::{ConsumerSeries, DirtyDataPolicy, TemperatureSeries};

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
            let r = spark.run_task(task).unwrap();
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
        let r = spark.run_task(Task::Histogram).unwrap();
        check(&ds, &r.output, Task::Histogram);
        assert_eq!(r.stats.shuffle_bytes, 0);
    }

    #[test]
    fn format3_pipeline_matches_reference() {
        let ds = tiny(6);
        let mut spark = engine(4);
        spark.load(&ds, DataFormat::ManyFiles { files: 3 }).unwrap();
        let r = spark.run_task(Task::ThreeLine).unwrap();
        check(&ds, &r.output, Task::ThreeLine);
        assert_eq!(r.stats.shuffle_bytes, 0);
    }

    #[test]
    fn similarity_uses_broadcast_join() {
        let ds = tiny(5);
        let mut spark = engine(4);
        spark.load(&ds, DataFormat::ConsumerPerLine).unwrap();
        let r = spark.run_task(Task::Similarity).unwrap();
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
        let r = spark.run_task(Task::Similarity).unwrap();
        check(&ds, &r.output, Task::Similarity);
    }

    #[test]
    fn run_before_load_errors() {
        let mut spark = engine(2);
        assert!(spark.run_task(Task::Histogram).is_err());
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
        let mut plan = FaultPlan::default();
        plan.replica_losses = usize::MAX;
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
            let split = &mut spark.table.as_mut().unwrap().splits[0];
            let mut lines = (*split.lines).clone();
            lines.push("not,a,valid,row".into());
            split.lines = Arc::new(lines);
        }
        assert!(spark.run_task(Task::Histogram).is_err());
        let spec = RunSpec::builder(Task::Histogram)
            .dirty_policy(DirtyDataPolicy::SkipAndCount)
            .build();
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
                let split = &mut spark.table.as_mut().unwrap().splits[0];
                let mut lines = (*split.lines).clone();
                let id: u32 = lines[1234].split(',').next().unwrap().parse().unwrap();
                let victim = ConsumerId(id).to_string();
                lines[1234] = "not,a,valid,row".into();
                split.lines = Arc::new(lines);

                match spark.run_task(task) {
                    Err(Error::Parse { .. }) => {}
                    other => {
                        panic!("{format:?}/{task}: fail-fast wants the parse error, got {other:?}")
                    }
                }
                let sink = smda_obs::MetricsSink::recording();
                let spec = RunSpec::builder(task)
                    .metrics(sink.clone())
                    .dirty_policy(DirtyDataPolicy::SkipAndCount)
                    .build();
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
