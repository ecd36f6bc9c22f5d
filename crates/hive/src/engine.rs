//! The Hive engine: plans each benchmark task into MapReduce jobs
//! according to the table's text format.

use std::sync::Arc;

use smda_cluster::{ClusterTopology, DfsConfig, SimDfs, TextTable, VirtualScheduler};
use smda_core::tasks::{collect_consumer_results, ConsumerResult};
use smda_core::{ConsumerMatches, ConsumerTask, Task, TaskOutput, SIMILARITY_TOP_K};
use smda_engines::pool::host_parallelism;
use smda_engines::{Capabilities, Platform, RunResult, RunSpec};
use smda_obs::counters;
use smda_stats::{dot, normalize_all, select_top_k, SimilarityMatch};
use smda_types::{ConsumerId, DataFormat, Dataset, Error, Result, HOURS_PER_YEAR};

use crate::mapreduce::{
    run_map_only, run_map_reduce, run_map_reduce_partitioned, JobInput, JobStats,
};
use crate::parse::{parse_consumer, parse_reading_policed};
use crate::udf::{GenericUdf, HiveOperator, TaskUdaf, TaskUdf, TaskUdtf, Udaf, Udtf};

/// Result of one Hive job (or job chain).
#[derive(Debug)]
pub struct HiveRunResult {
    /// The task output, identical to the reference implementation's.
    pub output: TaskOutput,
    /// Aggregated job accounting (virtual time spans all chained jobs).
    pub stats: JobStats,
    /// Which Hive mechanism the planner chose.
    pub operator: HiveOperator,
}

/// The Hive-like engine.
///
/// All run-scoped configuration — metrics sink, fault plan, dirty-row
/// policy — arrives through the [`RunSpec`]: pass it to
/// [`HiveEngine::run_with`] (or [`Platform::run`]) and, for load-time
/// replica-loss faults, to [`HiveEngine::load_observed`].
pub struct HiveEngine {
    topology: ClusterTopology,
    /// Tasks of one phase in flight at once on the process's worker pool.
    parallelism: usize,
    reduce_tasks: usize,
    dfs: SimDfs,
    table: Option<TextTable>,
    /// The dataset as loaded — real-transport runs ship series to live
    /// worker processes rather than re-parsing the text rendition.
    dataset: Option<Dataset>,
    /// Text format [`Platform::load`] renders the dataset in.
    pub format: DataFormat,
    /// For format 3: run the UDAF (reduce-full) plan instead of the UDTF
    /// (map-only) plan — the Figure 18 comparison.
    pub force_udaf: bool,
}

impl std::fmt::Debug for HiveEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HiveEngine")
            .field("workers", &self.topology.workers)
            .field("reduce_tasks", &self.reduce_tasks)
            .finish()
    }
}

/// Modeled bytes of one shuffled `(household, (hour, temp, kwh))` pair.
const READING_PAIR_BYTES: u64 = 24;
/// Modeled bytes of one assembled series (id + 8760 doubles).
const SERIES_BYTES: u64 = 8 + HOURS_PER_YEAR as u64 * 8;

impl HiveEngine {
    /// An engine on `topology`, with `block_bytes`-sized DFS blocks.
    pub fn new(topology: ClusterTopology, block_bytes: u64) -> Self {
        let dfs = SimDfs::new(DfsConfig {
            block_bytes,
            replication: 3,
            nodes: topology.workers,
        });
        // The paper found Hive "generally performed better with more
        // MapReduce tasks up to a certain point": default to one reducer
        // per worker core-pair.
        let reduce_tasks = (topology.workers * topology.slots_per_worker / 2).max(1);
        HiveEngine {
            topology,
            parallelism: host_parallelism(),
            reduce_tasks,
            dfs,
            table: None,
            dataset: None,
            format: DataFormat::ReadingPerLine,
            force_udaf: false,
        }
    }

    /// A fresh scheduler on the engine's topology, wired to the spec's
    /// sink and fault plan.
    fn scheduler(&self, spec: &RunSpec) -> VirtualScheduler {
        let mut scheduler = VirtualScheduler::new(self.topology).with_metrics(spec.metrics.clone());
        if let Some(plan) = &spec.fault_plan {
            scheduler = scheduler.with_fault_plan(plan.clone());
        }
        scheduler
    }

    /// Override the number of reduce tasks.
    pub fn set_reduce_tasks(&mut self, n: usize) {
        self.reduce_tasks = n.max(1);
    }

    /// The modeled topology.
    pub fn topology(&self) -> ClusterTopology {
        self.topology
    }

    /// Create the external table: render `ds` in `format` and register
    /// it in the DFS, fault-free and unobserved.
    pub fn load(&mut self, ds: &Dataset, format: DataFormat) -> Result<()> {
        self.load_observed(ds, format, &RunSpec::builder(Task::Histogram).build())
    }

    /// [`HiveEngine::load`] under a [`RunSpec`]: the spec's replica-loss
    /// faults are applied to the fresh DFS placement and its counters
    /// flow into the spec's sink. (The spec's task is irrelevant here.)
    pub fn load_observed(
        &mut self,
        ds: &Dataset,
        format: DataFormat,
        spec: &RunSpec,
    ) -> Result<()> {
        if self.table.is_some() {
            // Replace: drop old placement for determinism.
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

    fn table(&self) -> Result<&TextTable> {
        self.table
            .as_ref()
            .ok_or_else(|| Error::Invalid("no external table loaded".into()))
    }

    fn inputs(&self) -> Result<Vec<JobInput<Arc<Vec<String>>>>> {
        Ok(self
            .table()?
            .splits
            .iter()
            .map(|s| JobInput {
                data: s.lines.clone(),
                bytes: s.bytes,
                hosts: s.hosts.clone(),
            })
            .collect())
    }

    /// Run one benchmark task with default run-scoped configuration
    /// (no metrics, no faults, fail-fast dirty handling).
    pub fn run_task(&mut self, task: Task) -> Result<HiveRunResult> {
        let spec = RunSpec::builder(task).build();
        self.run_with(&spec)
    }

    /// Run `spec.task`, returning output + virtual-time stats. Metrics,
    /// faults and the dirty-row policy all come from the spec.
    pub fn run_with(&mut self, spec: &RunSpec) -> Result<HiveRunResult> {
        if let Some(config) = &spec.real_transport {
            return self.run_real_transport(config, spec);
        }
        let format = self.table()?.format;
        match spec.task {
            Task::Similarity => self.run_similarity(spec),
            task => match format {
                DataFormat::ReadingPerLine => self.run_udaf_plan(task, spec),
                DataFormat::ConsumerPerLine => self.run_udf_plan(task, spec),
                DataFormat::ManyFiles { .. } => {
                    if self.force_udaf {
                        self.run_udaf_plan(task, spec)
                    } else {
                        self.run_udtf_plan(task, spec)
                    }
                }
            },
        }
    }

    /// Real-transport backend: the same map/shuffle/reduce decomposition
    /// executed by forked worker processes over local TCP, with WAL-backed
    /// shuffle recovery. The spec's fault plan becomes real SIGKILLs.
    fn run_real_transport(
        &mut self,
        config: &smda_cluster::RealClusterConfig,
        spec: &RunSpec,
    ) -> Result<HiveRunResult> {
        let ds = self
            .dataset
            .as_ref()
            .ok_or_else(|| Error::Invalid("no external table loaded".into()))?;
        let mut config = config.clone();
        if config.fault_plan.is_none() {
            config.fault_plan = spec.fault_plan.clone();
        }
        let report = smda_cluster::run_real(spec.task, ds, &config, &spec.metrics)?;
        Ok(HiveRunResult {
            output: report.output,
            stats: JobStats {
                virtual_elapsed: report.elapsed,
                map_tasks: report.map_tasks,
                reduce_tasks: report.reduce_tasks,
                ..JobStats::default()
            },
            operator: HiveOperator::Udaf,
        })
    }

    /// Format 1 (or forced): full map/shuffle/reduce with the task UDAF.
    fn run_udaf_plan(&mut self, task: Task, spec: &RunSpec) -> Result<HiveRunResult> {
        let inputs = self.inputs()?;
        let udaf = TaskUdaf { task };
        let policy = spec.dirty_policy;
        let metrics = spec.metrics.clone();
        let mut scheduler = self.scheduler(spec);
        let (results, stats) = run_map_reduce(
            inputs,
            &|lines: &Arc<Vec<String>>, emit: &mut Vec<(u32, (u32, f64, f64))>| {
                for line in lines.iter() {
                    if let Some(r) = parse_reading_policed(line, policy, &metrics)? {
                        emit.push((r.consumer.raw(), (r.hour, r.temperature, r.kwh)));
                    }
                }
                Ok(())
            },
            &|_, _| READING_PAIR_BYTES,
            &|key, rows| {
                let mut partial = udaf.init();
                for &row in rows {
                    udaf.iterate(&mut partial, row);
                }
                Ok(udaf
                    .terminate(ConsumerId(*key), partial)?
                    .into_iter()
                    .collect())
            },
            self.reduce_tasks,
            &mut scheduler,
            self.parallelism,
        )?;
        Ok(HiveRunResult {
            output: collect_consumer_results(task, results),
            stats,
            operator: HiveOperator::Udaf,
        })
    }

    /// Format 2: map-only with the generic UDF.
    fn run_udf_plan(&mut self, task: Task, spec: &RunSpec) -> Result<HiveRunResult> {
        let inputs = self.inputs()?;
        let temperature = self.table()?.temperature.clone();
        let udf = TaskUdf {
            kernel: ConsumerTask::new(task, &temperature)?,
        };
        let policy = spec.dirty_policy;
        let metrics = spec.metrics.clone();
        let mut scheduler = self.scheduler(spec);
        let (results, stats) = run_map_only(
            inputs,
            &|lines: &Arc<Vec<String>>, emit: &mut Vec<ConsumerResult>| {
                for line in lines.iter() {
                    match parse_consumer(line) {
                        Ok(row) => emit.extend(udf.evaluate(row)?),
                        Err(_) if policy.skips() => {
                            metrics.incr(counters::ROWS_SKIPPED_DIRTY, 1);
                        }
                        Err(e) => return Err(e),
                    }
                }
                Ok(())
            },
            64,
            &mut scheduler,
            self.parallelism,
        )?;
        Ok(HiveRunResult {
            output: collect_consumer_results(task, results),
            stats,
            operator: HiveOperator::GenericUdf,
        })
    }

    /// Format 3: map-only with the UDTF over non-split files.
    fn run_udtf_plan(&mut self, task: Task, spec: &RunSpec) -> Result<HiveRunResult> {
        let inputs = self.inputs()?;
        let udtf = TaskUdtf { task };
        let policy = spec.dirty_policy;
        let metrics = spec.metrics.clone();
        let mut scheduler = self.scheduler(spec);
        let (results, stats) = run_map_only(
            inputs,
            &|lines: &Arc<Vec<String>>, emit: &mut Vec<ConsumerResult>| {
                let mut rows = Vec::with_capacity(lines.len());
                for line in lines.iter() {
                    if let Some(r) = parse_reading_policed(line, policy, &metrics)? {
                        rows.push(r);
                    }
                }
                udtf.process(rows, &mut |r| emit.push(r))
            },
            64,
            &mut scheduler,
            self.parallelism,
        )?;
        Ok(HiveRunResult {
            output: collect_consumer_results(task, results),
            stats,
            operator: HiveOperator::Udtf,
        })
    }

    /// Similarity as a self-join: assemble series (job 1, format-
    /// dependent), then shuffle **every** series to **every** reducer
    /// (job 2) — the plan Hive produces without map-side joins.
    fn run_similarity(&mut self, spec: &RunSpec) -> Result<HiveRunResult> {
        let (series, mut stats, operator) = self.assemble_series(spec)?;
        let n = series.len();
        if n == 0 {
            return Ok(HiveRunResult {
                output: TaskOutput::Similarity(Vec::new()),
                stats,
                operator,
            });
        }
        // Normalize once (id order), then self-join. Dirty-row drops can
        // leave ragged years, so pad with zeros first: every pair then
        // goes through the canonical fixed-order `dot` (the zeros add
        // nothing to a norm or a score).
        let ids: Vec<ConsumerId> = series.iter().map(|(id, _)| *id).collect();
        let mut vectors: Vec<Vec<f64>> = series.into_iter().map(|(_, v)| v).collect();
        let stride = vectors.iter().map(Vec::len).max().unwrap_or(0);
        for v in &mut vectors {
            v.resize(stride, 0.0);
        }
        let normalized: Vec<Arc<Vec<f64>>> =
            normalize_all(&vectors).into_iter().map(Arc::new).collect();
        let reduce_tasks = self.reduce_tasks.min(n).max(1);

        // Job 2 inputs: chunks of the assembled series.
        let chunk = n.div_ceil(reduce_tasks);
        let mut inputs = Vec::new();
        for (ci, idx_chunk) in (0..n).collect::<Vec<_>>().chunks(chunk).enumerate() {
            let data: Vec<(usize, Arc<Vec<f64>>)> = idx_chunk
                .iter()
                .map(|&i| (i, normalized[i].clone()))
                .collect();
            let _ = ci;
            inputs.push(JobInput {
                data,
                bytes: idx_chunk.len() as u64 * SERIES_BYTES,
                hosts: Vec::new(),
            });
        }

        let ids_ref = &ids;
        let normalized_ref = &normalized;
        let mut scheduler = self.scheduler(spec);
        let (mut matches, join_stats) = run_map_reduce_partitioned(
            inputs,
            // Map: replicate every series to every reduce partition (the
            // reduce-side join's data explosion).
            &move |chunk: &Vec<(usize, Arc<Vec<f64>>)>,
                   emit: &mut Vec<(u64, (usize, Arc<Vec<f64>>))>| {
                for (i, v) in chunk {
                    for r in 0..reduce_tasks as u64 {
                        emit.push((r, (*i, v.clone())));
                    }
                }
                Ok(())
            },
            &|_, _| SERIES_BYTES,
            // Reduce: partition r owns queries with index ≡ r (mod R) and
            // scores them against everything it received (= everything).
            &move |r: &u64, received: &[(usize, Arc<Vec<f64>>)]| {
                let mut by_index: Vec<Option<&[f64]>> = vec![None; n];
                for (i, v) in received {
                    by_index[*i] = Some(v);
                }
                let by_index = by_index
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| {
                        v.ok_or_else(|| {
                            Error::Invalid(format!("series {i} never reached reducer {r}"))
                        })
                    })
                    .collect::<Result<Vec<&[f64]>>>()?;
                let mut out = Vec::new();
                for q in (*r as usize..n).step_by(reduce_tasks) {
                    let mut hits: Vec<SimilarityMatch> = Vec::with_capacity(n - 1);
                    for (i, v) in by_index.iter().enumerate() {
                        if i == q {
                            continue;
                        }
                        let score = dot(by_index[q], v);
                        hits.push(SimilarityMatch { index: i, score });
                    }
                    select_top_k(&mut hits, SIMILARITY_TOP_K);
                    out.push(ConsumerMatches {
                        consumer: ids_ref[q],
                        matches: hits
                            .into_iter()
                            .map(|h| (ids_ref[h.index], h.score))
                            .collect(),
                    });
                }
                Ok(out)
            },
            reduce_tasks,
            &|key, parts| (*key as usize) % parts,
            &mut scheduler,
            self.parallelism,
        )?;
        let _ = normalized_ref;
        matches.sort_by_key(|m| m.consumer);
        // The reduce-side join scores every ordered pair — no symmetric
        // halving; that cost is exactly what this plan models.
        spec.metrics
            .incr(counters::PAIRS_SCORED, (n * (n - 1)) as u64);

        stats = combine(stats, join_stats);
        Ok(HiveRunResult {
            output: TaskOutput::Similarity(matches),
            stats,
            operator,
        })
    }

    /// Job 1 of similarity: produce `(id, readings)` per household.
    #[allow(clippy::type_complexity)]
    fn assemble_series(
        &mut self,
        spec: &RunSpec,
    ) -> Result<(Vec<(ConsumerId, Vec<f64>)>, JobStats, HiveOperator)> {
        let format = self.table()?.format;
        let inputs = self.inputs()?;
        let policy = spec.dirty_policy;
        let metrics = spec.metrics.clone();
        let mut scheduler = self.scheduler(spec);
        match format {
            DataFormat::ReadingPerLine => {
                let (mut series, stats) = run_map_reduce(
                    inputs,
                    &|lines: &Arc<Vec<String>>, emit: &mut Vec<(u32, (u32, f64))>| {
                        for line in lines.iter() {
                            if let Some(r) = parse_reading_policed(line, policy, &metrics)? {
                                emit.push((r.consumer.raw(), (r.hour, r.kwh)));
                            }
                        }
                        Ok(())
                    },
                    &|_, _| 16,
                    &|key, rows| {
                        let mut rows = rows.to_vec();
                        rows.sort_by_key(|(h, _)| *h);
                        let kwh = rows.into_iter().map(|(_, v)| v).collect();
                        Ok(vec![(ConsumerId(*key), kwh)])
                    },
                    self.reduce_tasks,
                    &mut scheduler,
                    self.parallelism,
                )?;
                series.sort_by_key(|(id, _)| *id);
                Ok((series, stats, HiveOperator::Udaf))
            }
            DataFormat::ConsumerPerLine => {
                let (mut series, stats) = run_map_only(
                    inputs,
                    &|lines: &Arc<Vec<String>>, emit: &mut Vec<(ConsumerId, Vec<f64>)>| {
                        for line in lines.iter() {
                            match parse_consumer(line) {
                                Ok(row) => emit.push(row),
                                Err(_) if policy.skips() => {
                                    metrics.incr(counters::ROWS_SKIPPED_DIRTY, 1);
                                }
                                Err(e) => return Err(e),
                            }
                        }
                        Ok(())
                    },
                    SERIES_BYTES,
                    &mut scheduler,
                    self.parallelism,
                )?;
                series.sort_by_key(|(id, _)| *id);
                Ok((series, stats, HiveOperator::GenericUdf))
            }
            DataFormat::ManyFiles { .. } => {
                let (mut series, stats) = run_map_only(
                    inputs,
                    &|lines: &Arc<Vec<String>>, emit: &mut Vec<(ConsumerId, Vec<f64>)>| {
                        let mut rows = Vec::with_capacity(lines.len());
                        for line in lines.iter() {
                            if let Some(r) = parse_reading_policed(line, policy, &metrics)? {
                                rows.push(r);
                            }
                        }
                        rows.sort_by_key(|r| (r.consumer, r.hour));
                        let mut i = 0;
                        while i < rows.len() {
                            let id = rows[i].consumer;
                            let mut kwh = Vec::with_capacity(HOURS_PER_YEAR);
                            while i < rows.len() && rows[i].consumer == id {
                                kwh.push(rows[i].kwh);
                                i += 1;
                            }
                            emit.push((id, kwh));
                        }
                        Ok(())
                    },
                    SERIES_BYTES,
                    &mut scheduler,
                    self.parallelism,
                )?;
                series.sort_by_key(|(id, _)| *id);
                Ok((series, stats, HiveOperator::Udtf))
            }
        }
    }
}

impl Platform for HiveEngine {
    fn name(&self) -> &'static str {
        "hive"
    }

    /// Render the dataset in the engine's current [`HiveEngine::format`]
    /// and register it in the DFS; returns the wall time spent.
    fn load(&mut self, ds: &Dataset) -> Result<std::time::Duration> {
        let start = std::time::Instant::now();
        let format = self.format;
        self.load(ds, format)?;
        Ok(start.elapsed())
    }

    /// The DFS text table is re-read by every job; there is no cache to
    /// drop.
    fn make_cold(&mut self) {}

    /// No warm-up phase: jobs always scan the table.
    fn warm(&mut self) -> Result<std::time::Duration> {
        Ok(std::time::Duration::ZERO)
    }

    /// [`HiveEngine::run_with`], reporting the modeled cluster's
    /// virtual wall-clock as the elapsed time.
    fn run(&mut self, spec: &RunSpec) -> Result<RunResult> {
        let r = self.run_with(spec)?;
        Ok(RunResult {
            output: r.output,
            elapsed: r.stats.virtual_elapsed,
        })
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::hive()
    }
}

/// Sum two job-chain accountings (virtual times are sequential).
pub fn combine(a: JobStats, b: JobStats) -> JobStats {
    JobStats {
        virtual_elapsed: a.virtual_elapsed + b.virtual_elapsed,
        map_tasks: a.map_tasks + b.map_tasks,
        reduce_tasks: a.reduce_tasks + b.reduce_tasks,
        shuffle_bytes: a.shuffle_bytes + b.shuffle_bytes,
        network_bytes: a.network_bytes + b.network_bytes,
        map_locality: (a.map_locality + b.map_locality) / 2.0,
        map_output_records: a.map_output_records + b.map_output_records,
        retries: a.retries + b.retries,
        speculative: a.speculative + b.speculative,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_cluster::FaultPlan;
    use smda_core::tasks::run_reference;
    use smda_obs::MetricsSink;
    use smda_types::{ConsumerSeries, DirtyDataPolicy, TemperatureSeries};

    fn tiny(n: u32) -> Dataset {
        let temp = TemperatureSeries::new(
            (0..HOURS_PER_YEAR)
                .map(|h| ((h % 43) as f64) - 9.0)
                .collect(),
        )
        .unwrap();
        let consumers = (0..n)
            .map(|i| {
                ConsumerSeries::new(
                    ConsumerId(i),
                    (0..HOURS_PER_YEAR)
                        .map(|h| 0.3 + 0.04 * (((h % 24) + 5 * i as usize) % 24) as f64)
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        Dataset::new(consumers, temp).unwrap()
    }

    fn engine(workers: usize) -> HiveEngine {
        HiveEngine::new(
            ClusterTopology {
                workers,
                slots_per_worker: 2,
                cost: smda_cluster::CostModel::mapreduce(),
            },
            256 * 1024,
        )
    }

    fn assert_matches_reference(ds: &Dataset, got: &TaskOutput, task: Task) {
        let want = run_reference(task, ds);
        match (got, &want) {
            (TaskOutput::Histograms(a), TaskOutput::Histograms(b)) => {
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.consumer, y.consumer);
                    assert_eq!(x.histogram.counts, y.histogram.counts);
                }
            }
            (TaskOutput::Par(a), TaskOutput::Par(b)) => {
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.consumer, y.consumer);
                    for (p, q) in x.profile.iter().zip(&y.profile) {
                        assert!((p - q).abs() < 1e-3, "{p} vs {q}");
                    }
                }
            }
            (TaskOutput::ThreeLine(a), TaskOutput::ThreeLine(b)) => {
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.consumer, y.consumer);
                    assert!((x.heating_gradient() - y.heating_gradient()).abs() < 1e-2);
                }
            }
            (TaskOutput::Similarity(a), TaskOutput::Similarity(b)) => {
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.consumer, y.consumer);
                    let xi: Vec<ConsumerId> = x.matches.iter().map(|(i, _)| *i).collect();
                    let yi: Vec<ConsumerId> = y.matches.iter().map(|(i, _)| *i).collect();
                    assert_eq!(xi, yi);
                }
            }
            _ => panic!("mismatched outputs for {task}"),
        }
    }

    #[test]
    fn format1_udaf_plan_matches_reference() {
        let ds = tiny(4);
        let mut hive = engine(4);
        hive.load(&ds, DataFormat::ReadingPerLine).unwrap();
        for task in [Task::Histogram, Task::Par] {
            let r = hive.run_task(task).unwrap();
            assert_eq!(r.operator, HiveOperator::Udaf);
            assert!(r.stats.reduce_tasks > 0);
            assert!(r.stats.shuffle_bytes > 0);
            assert_matches_reference(&ds, &r.output, task);
        }
    }

    #[test]
    fn format2_udf_plan_is_map_only() {
        let ds = tiny(4);
        let mut hive = engine(4);
        hive.load(&ds, DataFormat::ConsumerPerLine).unwrap();
        let r = hive.run_task(Task::Histogram).unwrap();
        assert_eq!(r.operator, HiveOperator::GenericUdf);
        assert_eq!(r.stats.reduce_tasks, 0);
        assert_eq!(r.stats.shuffle_bytes, 0);
        assert_matches_reference(&ds, &r.output, Task::Histogram);
    }

    #[test]
    fn format3_udtf_plan_is_map_only_and_forced_udaf_shuffles() {
        let ds = tiny(6);
        let mut hive = engine(4);
        hive.load(&ds, DataFormat::ManyFiles { files: 3 }).unwrap();
        let udtf = hive.run_task(Task::Histogram).unwrap();
        assert_eq!(udtf.operator, HiveOperator::Udtf);
        assert_eq!(udtf.stats.shuffle_bytes, 0);
        assert_matches_reference(&ds, &udtf.output, Task::Histogram);

        hive.force_udaf = true;
        let udaf = hive.run_task(Task::Histogram).unwrap();
        assert_eq!(udaf.operator, HiveOperator::Udaf);
        assert!(udaf.stats.shuffle_bytes > 0);
        assert!(
            udaf.stats.virtual_elapsed > udtf.stats.virtual_elapsed,
            "UDAF {:?} should be slower than UDTF {:?} (Figure 18)",
            udaf.stats.virtual_elapsed,
            udtf.stats.virtual_elapsed
        );
        assert_matches_reference(&ds, &udaf.output, Task::Histogram);
    }

    #[test]
    fn similarity_self_join_matches_reference_and_shuffles_heavily() {
        let ds = tiny(5);
        let mut hive = engine(2);
        hive.set_reduce_tasks(3);
        hive.load(&ds, DataFormat::ConsumerPerLine).unwrap();
        let r = hive.run_task(Task::Similarity).unwrap();
        assert_matches_reference(&ds, &r.output, Task::Similarity);
        // Self-join shuffle: every series to every reducer.
        assert!(r.stats.shuffle_bytes >= 5 * 3 * SERIES_BYTES);
    }

    #[test]
    fn similarity_from_format1_also_works() {
        let ds = tiny(4);
        let mut hive = engine(2);
        hive.load(&ds, DataFormat::ReadingPerLine).unwrap();
        let r = hive.run_task(Task::Similarity).unwrap();
        assert_matches_reference(&ds, &r.output, Task::Similarity);
    }

    #[test]
    fn run_before_load_errors() {
        let mut hive = engine(2);
        assert!(hive.run_task(Task::Histogram).is_err());
    }

    #[test]
    fn losing_every_replica_fails_the_load_with_a_typed_error() {
        let ds = tiny(3);
        let mut hive = engine(3);
        let mut plan = FaultPlan::default();
        plan.replica_losses = usize::MAX; // drain the DFS completely
        let spec = RunSpec::builder(Task::Histogram).fault_plan(plan).build();
        match hive.load_observed(&ds, DataFormat::ReadingPerLine, &spec) {
            Err(Error::BlockUnavailable { .. }) => {}
            other => panic!("want BlockUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn re_replication_recovers_lost_replicas_and_results_match() {
        let ds = tiny(3);
        let mut hive = engine(3);
        let sink = MetricsSink::recording();
        let mut plan = FaultPlan::default();
        plan.replica_losses = 4;
        plan.re_replicate = true;
        let spec = RunSpec::builder(Task::Histogram)
            .metrics(sink.clone())
            .fault_plan(plan)
            .build();
        hive.load_observed(&ds, DataFormat::ReadingPerLine, &spec)
            .unwrap();
        let r = hive.run_with(&spec).unwrap();
        assert_matches_reference(&ds, &r.output, Task::Histogram);
        let report = sink.finish(smda_obs::RunManifest::new("histogram", "hive"));
        assert_eq!(
            report.counter(counters::FAULTS_INJECTED_REPLICA_LOSS),
            Some(4)
        );
        assert!(
            report
                .counter(counters::FAULTS_RECOVERED_REPLICA_LOSS)
                .unwrap_or(0)
                >= 1
        );
    }

    #[test]
    fn dirty_line_fails_fast_by_default_but_skips_under_policy() {
        let ds = tiny(2);
        let mut hive = engine(2);
        let sink = MetricsSink::recording();
        hive.load(&ds, DataFormat::ReadingPerLine).unwrap();
        {
            // Append one malformed line to the first split.
            let split = &mut hive.table.as_mut().unwrap().splits[0];
            let mut lines = (*split.lines).clone();
            lines.push("not,a,valid,row".into());
            split.lines = Arc::new(lines);
        }
        assert!(
            hive.run_task(Task::Histogram).is_err(),
            "fail-fast must surface the dirty row"
        );
        let spec = RunSpec::builder(Task::Histogram)
            .metrics(sink.clone())
            .dirty_policy(DirtyDataPolicy::SkipAndCount)
            .build();
        let r = hive.run_with(&spec).unwrap();
        assert_matches_reference(&ds, &r.output, Task::Histogram);
        let report = sink.finish(smda_obs::RunManifest::new("histogram", "hive"));
        assert!(report.counter(counters::ROWS_SKIPPED_DIRTY).unwrap_or(0) >= 1);
    }

    #[test]
    fn two_dirty_splits_report_the_lower_splits_line_on_every_run() {
        // The last line of the first split and the first line of the last
        // split: whichever thread gets there first, the job's error is
        // its lowest-indexed task's.
        for (format, task) in [
            (DataFormat::ReadingPerLine, Task::Histogram),
            (DataFormat::ReadingPerLine, Task::Similarity),
            (DataFormat::ConsumerPerLine, Task::Par),
            (DataFormat::ConsumerPerLine, Task::Similarity),
            (DataFormat::ManyFiles { files: 2 }, Task::ThreeLine),
            (DataFormat::ManyFiles { files: 2 }, Task::Similarity),
        ] {
            let mut hive = HiveEngine::new(engine(2).topology(), 48 * 1024);
            hive.load(&tiny(2), format).unwrap();
            let splits = &mut hive.table.as_mut().unwrap().splits;
            assert!(splits.len() >= 2, "{format:?}: {} split", splits.len());
            let (first, last) = (0, splits.len() - 1);
            let mut lines = (*splits[first].lines).clone();
            *lines.last_mut().unwrap() = "0,lower,split".into();
            splits[first].lines = Arc::new(lines);
            let mut lines = (*splits[last].lines).clone();
            lines[0] = "0,higher,split".into();
            splits[last].lines = Arc::new(lines);

            for run in 0..20 {
                let message = hive.run_task(task).unwrap_err().to_string();
                assert!(
                    message.contains("lower,split"),
                    "{format:?}/{task} run {run}: {message}"
                );
            }
        }
    }

    #[test]
    fn crashes_and_injected_failures_leave_results_exact() {
        let ds = tiny(4);
        let mut hive = engine(4);
        let mut plan = FaultPlan::seeded(7);
        plan.task_failure_rate = 0.4;
        plan.max_attempts = 16;
        plan.crashes.push(smda_cluster::NodeCrash {
            node: 2,
            at: std::time::Duration::ZERO,
        });
        hive.load(&ds, DataFormat::ReadingPerLine).unwrap();
        let spec = RunSpec::builder(Task::Histogram).fault_plan(plan).build();
        let faulty = hive.run_with(&spec).unwrap();
        assert_matches_reference(&ds, &faulty.output, Task::Histogram);
        assert!(
            faulty.stats.retries > 0,
            "a 10% failure rate must trigger retries"
        );
    }

    #[test]
    fn three_line_through_format3() {
        let ds = tiny(3);
        let mut hive = engine(3);
        hive.load(&ds, DataFormat::ManyFiles { files: 2 }).unwrap();
        let r = hive.run_task(Task::ThreeLine).unwrap();
        assert_matches_reference(&ds, &r.output, Task::ThreeLine);
    }

    #[test]
    fn a_damaged_reading_is_a_schema_error_naming_its_household_not_a_panic() {
        let ds = tiny(2);
        for format in [
            DataFormat::ReadingPerLine,
            DataFormat::ManyFiles { files: 2 },
        ] {
            for task in [Task::Histogram, Task::ThreeLine, Task::Par] {
                let mut hive = engine(2);
                hive.load(&ds, format).unwrap();
                // Overwrite one real reading line: its household is left
                // with 8759 hours once the policy drops the garbage.
                let split = &mut hive.table.as_mut().unwrap().splits[0];
                let mut lines = (*split.lines).clone();
                let id: u32 = lines[1234].split(',').next().unwrap().parse().unwrap();
                let victim = ConsumerId(id).to_string();
                lines[1234] = "not,a,valid,row".into();
                split.lines = Arc::new(lines);

                match hive.run_task(task) {
                    Err(Error::Parse { .. }) => {}
                    other => {
                        panic!("{format:?}/{task}: fail-fast wants the parse error, got {other:?}")
                    }
                }
                let sink = MetricsSink::recording();
                let spec = RunSpec::builder(task)
                    .metrics(sink.clone())
                    .dirty_policy(DirtyDataPolicy::SkipAndCount)
                    .build();
                match hive.run_with(&spec) {
                    Err(Error::Schema(msg)) => {
                        assert!(msg.contains(&victim), "{format:?}/{task}: {msg}")
                    }
                    other => panic!("{format:?}/{task}: want a schema error, got {other:?}"),
                }
                let report = sink.finish(smda_obs::RunManifest::new(task.name(), "hive"));
                assert_eq!(report.counter(counters::ROWS_SKIPPED_DIRTY), Some(1));
            }
        }
    }
}
