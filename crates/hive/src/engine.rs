//! The Hive engine: plans each benchmark task into MapReduce jobs
//! according to the table's text format.

use std::sync::Arc;

use smda_cluster::{
    parse_consumer_policed, parse_reading_policed, ClusterTopology, TextSplit, TextTable,
    TwinShell, VirtualScheduler,
};
use smda_core::tasks::collect_consumer_results;
use smda_core::{ConsumerMatches, ConsumerTask, Task, TaskOutput, SIMILARITY_TOP_K};
use smda_engines::pool::host_parallelism;
use smda_engines::{Capabilities, ClusterTwin, Platform, RunResult, RunSpec};
use smda_obs::counters;
use smda_stats::{dot, normalize_all, select_top_k, with_fit_scratch, SimilarityMatch};
use smda_types::{ConsumerId, DataFormat, Dataset, Error, Result, HOURS_PER_YEAR};

use crate::mapreduce::{
    run_map_only, run_map_reduce, run_map_reduce_partitioned, JobInput, JobStats,
};
use crate::udf::{
    GenericUdf, HiveOperator, OnSeries, OnYear, SeriesUdf, Udaf, Udtf, YearUdaf, YearUdtf,
};

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
/// replica-loss faults, to [`ClusterTwin::load_observed`].
pub struct HiveEngine {
    topology: ClusterTopology,
    /// Tasks of one phase in flight at once on the process's worker pool.
    parallelism: usize,
    reduce_tasks: usize,
    /// The DFS and the external table loaded into it.
    pub shell: TwinShell,
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
/// Modeled bytes of one shuffled `(household, (hour, kwh))` pair.
const KWH_PAIR_BYTES: u64 = 16;
/// Modeled bytes of one per-consumer result row.
const RESULT_BYTES: u64 = 64;
/// Modeled bytes of one assembled series (id + 8760 doubles).
const SERIES_BYTES: u64 = 8 + HOURS_PER_YEAR as u64 * 8;

/// One per-household job: what to do with a household's year (a parsed
/// row under format 2), and the modeled sizes of what it moves.
struct HouseholdJob<'a, O> {
    on_year: &'a OnYear<'a, O>,
    on_series: &'a OnSeries<'a, O>,
    /// One shuffled pair, where the format forces a reduce.
    pair_bytes: u64,
    /// One output record.
    out_bytes: u64,
    /// Format 3 through the UDAF instead of the UDTF.
    force_udaf: bool,
}

/// The table's splits as map inputs.
fn inputs(table: &TextTable) -> Vec<JobInput<Arc<Vec<String>>>> {
    let input = |s: &TextSplit| JobInput {
        data: s.lines.clone(),
        bytes: s.bytes,
        hosts: s.hosts.clone(),
    };
    table.splits.iter().map(input).collect()
}

impl HiveEngine {
    /// An engine on `topology`, with `block_bytes`-sized DFS blocks.
    pub fn new(topology: ClusterTopology, block_bytes: u64) -> Self {
        // The paper found Hive "generally performed better with more
        // MapReduce tasks up to a certain point": default to one reducer
        // per worker core-pair.
        let reduce_tasks = (topology.workers * topology.slots_per_worker / 2).max(1);
        HiveEngine {
            topology,
            parallelism: host_parallelism(),
            reduce_tasks,
            shell: TwinShell::new(topology.workers, block_bytes),
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
            let (faults, metrics) = (spec.fault_plan.as_ref(), &spec.metrics);
            let report = self.shell.run_real(spec.task, config, faults, metrics)?;
            return Ok(HiveRunResult {
                output: report.output,
                stats: JobStats {
                    virtual_elapsed: report.elapsed,
                    map_tasks: report.map_tasks,
                    reduce_tasks: report.reduce_tasks,
                    ..JobStats::default()
                },
                operator: HiveOperator::Udaf,
            });
        }
        let task = spec.task;
        if task == Task::Similarity {
            return self.run_similarity(spec);
        }
        // Format 2 reads the shared sidecar year: the kernel is bound to
        // it once per plan.
        let temperature = self.shell.table()?.temperature.clone();
        let kernel = ConsumerTask::new(task, &temperature)?;
        let (results, stats, operator) = self.run_per_household(
            spec,
            HouseholdJob {
                on_year: &|y| ConsumerTask::run_assembled(task, y.consumer, &y.kwh, &y.temperature),
                on_series: &|s| Ok(with_fit_scratch(|scratch| kernel.run_series(&s, scratch))),
                pair_bytes: READING_PAIR_BYTES,
                out_bytes: RESULT_BYTES,
                force_udaf: self.force_udaf,
            },
        )?;
        Ok(HiveRunResult {
            output: collect_consumer_results(task, results),
            stats,
            operator,
        })
    }

    /// Plan `job` by the mechanism the table's format allows: a full
    /// map/shuffle/reduce with the UDAF (format 1, or forced), map-only
    /// with the generic UDF (format 2), map-only with the UDTF over
    /// non-split files (format 3).
    fn run_per_household<O: Send>(
        &self,
        spec: &RunSpec,
        job: HouseholdJob<'_, O>,
    ) -> Result<(Vec<O>, JobStats, HiveOperator)> {
        let table = self.shell.table()?;
        let (policy, metrics) = (spec.dirty_policy, &spec.metrics);
        let mut scheduler = self.scheduler(spec);
        match table.format {
            DataFormat::ConsumerPerLine => {
                let udf = SeriesUdf(job.on_series);
                let (out, stats) = run_map_only(
                    inputs(table),
                    &|lines: &Arc<Vec<String>>, emit: &mut Vec<O>| {
                        for line in lines.iter() {
                            if let Some(row) = parse_consumer_policed(line, policy, metrics)? {
                                emit.extend(udf.evaluate(row)?);
                            }
                        }
                        Ok(())
                    },
                    job.out_bytes,
                    &mut scheduler,
                    self.parallelism,
                )?;
                Ok((out, stats, HiveOperator::GenericUdf))
            }
            DataFormat::ManyFiles { .. } if !job.force_udaf => {
                let udtf = YearUdtf(job.on_year);
                let (out, stats) = run_map_only(
                    inputs(table),
                    &|lines: &Arc<Vec<String>>, emit: &mut Vec<O>| {
                        let mut rows = Vec::with_capacity(lines.len());
                        for line in lines.iter() {
                            rows.extend(parse_reading_policed(line, policy, metrics)?);
                        }
                        udtf.process(rows, &mut |o| emit.push(o))
                    },
                    job.out_bytes,
                    &mut scheduler,
                    self.parallelism,
                )?;
                Ok((out, stats, HiveOperator::Udtf))
            }
            _ => {
                let udaf = YearUdaf(job.on_year);
                let (out, stats) = run_map_reduce(
                    inputs(table),
                    &|lines: &Arc<Vec<String>>, emit: &mut Vec<_>| {
                        for line in lines.iter() {
                            let row = parse_reading_policed(line, policy, metrics)?;
                            emit.extend(row.map(|r| (r.consumer, r)));
                        }
                        Ok(())
                    },
                    &|_, _| job.pair_bytes,
                    &|key, rows| {
                        let mut partial = udaf.init();
                        for &row in rows {
                            udaf.iterate(&mut partial, row);
                        }
                        Ok(udaf.terminate(*key, partial)?.into_iter().collect())
                    },
                    self.reduce_tasks,
                    &mut scheduler,
                    self.parallelism,
                )?;
                Ok((out, stats, HiveOperator::Udaf))
            }
        }
    }

    /// Similarity as a self-join: assemble series (job 1, format-
    /// dependent), then shuffle **every** series to **every** reducer
    /// (job 2) — the plan Hive produces without map-side joins.
    fn run_similarity(&mut self, spec: &RunSpec) -> Result<HiveRunResult> {
        // Job 1: `(id, readings)` per household, each a whole year.
        let (mut series, mut stats, operator) = self.run_per_household(
            spec,
            HouseholdJob {
                on_year: &|y| Ok(Some((y.consumer, y.kwh))),
                on_series: &|s| Ok(Some((s.id, s.into_readings()))),
                pair_bytes: KWH_PAIR_BYTES,
                out_bytes: SERIES_BYTES,
                force_udaf: false,
            },
        )?;
        series.sort_by_key(|(id, _)| *id);
        let n = series.len();
        if n == 0 {
            return Ok(HiveRunResult {
                output: TaskOutput::Similarity(Vec::new()),
                stats,
                operator,
            });
        }
        // Normalize once (id order), then self-join: every pair goes
        // through the canonical fixed-order `dot`.
        let (ids, vectors): (Vec<ConsumerId>, Vec<Vec<f64>>) = series.into_iter().unzip();
        let normalized: Vec<Arc<Vec<f64>>> =
            normalize_all(&vectors).into_iter().map(Arc::new).collect();
        let reduce_tasks = self.reduce_tasks.min(n).max(1);

        // Job 2 inputs: chunks of the assembled series.
        let chunk = n.div_ceil(reduce_tasks);
        let mut inputs = Vec::new();
        for idx_chunk in (0..n).collect::<Vec<_>>().chunks(chunk) {
            let data: Vec<(usize, Arc<Vec<f64>>)> = idx_chunk
                .iter()
                .map(|&i| (i, normalized[i].clone()))
                .collect();
            inputs.push(JobInput {
                data,
                bytes: idx_chunk.len() as u64 * SERIES_BYTES,
                hosts: Vec::new(),
            });
        }

        let ids_ref = &ids;
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
}

impl ClusterTwin for HiveEngine {
    fn load_observed(&mut self, ds: &Dataset, format: DataFormat, spec: &RunSpec) -> Result<()> {
        let (faults, metrics) = (spec.fault_plan.as_ref(), &spec.metrics);
        self.shell.load(ds, format, faults, metrics)?;
        self.format = format;
        Ok(())
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
            let split = &mut hive.shell.table_mut().unwrap().splits[0];
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
            let splits = &mut hive.shell.table_mut().unwrap().splits;
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
                let split = &mut hive.shell.table_mut().unwrap().splits[0];
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
