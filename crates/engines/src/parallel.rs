//! The shared execution skeleton: per-consumer fan-out over worker
//! threads, each with its own storage handle (the paper parallelizes
//! Matlab with independent instances and MADLib with multiple database
//! connections — shared-nothing workers are the common shape).
//!
//! Work is distributed by **dynamic chunk claiming**: consumer ids are
//! cut into more chunks than workers and every participant of the
//! persistent [`WorkerPool`] pulls the next chunk off an atomic counter,
//! so a slow chunk cannot strand the rest of a static partition. Results
//! are gathered by chunk index, which keeps output identical across
//! thread counts and schedules.
//!
//! The Similarity task runs on the kernel layer (`smda_stats::kernels`):
//! extraction streams each consumer's year straight into a contiguous
//! [`SeriesMatrix`] (normalized in place, no intermediate `Vec`s), and
//! scoring is the cache-tiled, symmetry-halved all-pairs kernel whose
//! output is bit-identical to the naive reference.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use smda_core::{consumer_matches, ConsumerTask, Task, TaskOutput};
use smda_obs::{counters, MetricsSink};
use smda_stats::{
    band_pair_count, merge_partials, similarity_walk, with_fit_scratch, KernelStats, OoocStats,
    Pairs, Resident, SeriesMatrix, SeriesMatrixBuilder, SimilarityMatch, TileConfig,
};
use smda_types::{ConsumerId, ConsumerSeries, Error, Result, HOURS_PER_YEAR};

use crate::pool::{recover, WorkerPool};

/// A per-worker handle that can enumerate households and fetch one
/// household's data. Implemented by every engine's storage.
///
/// The accessors return **borrowed** slices so hot loops never clone a
/// year of readings: in-memory sources hand out views of their resident
/// data, paged sources decode into a reusable scratch buffer.
pub trait ConsumerSource: Send {
    /// Household ids, ascending.
    fn consumer_ids(&mut self) -> Result<Vec<ConsumerId>>;

    /// One household's kWh year (8760 hourly readings).
    fn consumer_kwh(&mut self, id: ConsumerId) -> Result<&[f64]>;

    /// The (dataset-wide) temperature year. Fetched **once per run** and
    /// shared across workers — never per consumer.
    fn temperature_year(&mut self) -> Result<&[f64]>;
}

/// Split `0..n` into at most `parts` contiguous, near-equal ranges.
fn split_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        if len == 0 {
            continue;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// A factory producing one storage handle ("connection") per worker.
pub type SourceFactory<'a> = dyn Fn() -> Result<Box<dyn ConsumerSource>> + Sync + 'a;

/// A per-worker unit of work over a chunk of household ids; the `usize`
/// is the chunk's offset into the full id list (for writers that place
/// results positionally, e.g. series-matrix rows).
type Work<'a, T> = dyn Fn(&mut dyn ConsumerSource, usize, &[ConsumerId]) -> Result<T> + Sync + 'a;

/// Chunks per requested worker: more chunks than workers is what makes
/// dynamic claiming balance load.
const CHUNKS_PER_WORKER: usize = 4;

/// Run worker closures over dynamically claimed id chunks, one lazily
/// opened source per participating worker, gathering per-chunk outputs
/// in chunk (= id) order.
fn fan_out<T: Send>(
    ids: &[ConsumerId],
    threads: usize,
    make_source: &SourceFactory,
    metrics: &MetricsSink,
    work: &Work<T>,
) -> Result<Vec<T>> {
    let chunks = split_ranges(ids.len(), threads.saturating_mul(CHUNKS_PER_WORKER));
    if threads <= 1 || chunks.len() <= 1 {
        let mut source = make_source()?;
        return Ok(vec![work(source.as_mut(), 0, ids)?]);
    }
    let parallelism = threads.min(chunks.len());
    metrics.incr(counters::WORKERS_SPAWNED, parallelism as u64);
    let gathered = WorkerPool::global().gather(
        parallelism,
        chunks.len(),
        &|source: &mut Option<Box<dyn ConsumerSource>>, c| {
            let src = match source {
                Some(src) => src,
                None => source.insert(make_source()?),
            };
            let range = &chunks[c];
            work(src.as_mut(), range.start, &ids[range.clone()])
        },
    );
    // The first `Err` in chunk order; a failed chunk stops no other, so
    // that is the lowest failing chunk's on every schedule.
    gathered
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| Err(Error::Invalid("fan_out chunk never executed".into())))
        })
        .collect()
}

/// Execute one benchmark task with `threads` shared-nothing workers.
///
/// `make_source` is invoked once per worker to open an independent
/// storage handle ("connection"). `k` is the similarity top-k. Phase
/// timings and counters (rows scanned, workers spawned, pairs scored)
/// are recorded into `metrics`, nesting under whatever scope the caller
/// has open.
pub fn execute_task(
    make_source: &SourceFactory,
    task: Task,
    threads: usize,
    k: usize,
    metrics: &MetricsSink,
) -> Result<TaskOutput> {
    let (ids, temps) = {
        let _plan = metrics.scope("plan");
        let mut source = make_source()?;
        let ids = source.consumer_ids()?;
        // The temperature year is dataset-wide: fetched once here, then
        // shared with every worker by reference. With no consumers there
        // is no one to read it, and it stays empty.
        let mut temps = Vec::new();
        if task.reads_temperature() && !ids.is_empty() {
            temps.extend_from_slice(source.temperature_year()?);
        }
        (ids, temps)
    };
    match task {
        Task::Histogram | Task::ThreeLine | Task::Par => {
            if ids.is_empty() {
                return Ok(TaskOutput::from_results(task, []));
            }
            // One kernel per run: the temperature year is validated here
            // and only here.
            let kernel = ConsumerTask::new(task, &temps)?;
            let _t = metrics.scope("fan_out");
            let parts = fan_out(&ids, threads, make_source, metrics, &|src, _offset, ids| {
                // One arena per pool worker, warm across chunks and runs.
                with_fit_scratch(|scratch| {
                    // Only this run's fits are this run's cost: drop the
                    // time that fits no driver reported (a served miss, a
                    // detector fit) left on this thread's arena.
                    scratch.take_phase_times();
                    let mut results = Vec::with_capacity(ids.len());
                    for &id in ids {
                        let kwh = src.consumer_kwh(id)?;
                        metrics.incr(counters::ROWS_SCANNED, kwh.len() as u64);
                        results.extend(kernel.run(id, kwh, scratch)?);
                    }
                    // What the fits cost, as the arena counted it. The
                    // T1/T2/T3 split is CPU time summed across workers,
                    // nested under the open scope (so `run/fan_out/t1`..
                    // when driven through a Platform).
                    if task.reads_temperature() {
                        metrics.incr(counters::FITS_SCRATCH_REUSES, scratch.take_reuses());
                    }
                    if task == Task::ThreeLine {
                        metrics.incr(counters::FITS_PLAN_BUILDS, scratch.take_plan_builds());
                        let [t1, t2, t3] = scratch.take_phase_times();
                        metrics.add_phase_nested(&["t1"], t1);
                        metrics.add_phase_nested(&["t2"], t2);
                        metrics.add_phase_nested(&["t3"], t3);
                    }
                    Ok(results)
                })
            })?;
            // Chunks come back in id order, and ids ascend within one.
            Ok(TaskOutput::from_results(task, parts.into_iter().flatten()))
        }
        Task::Similarity => {
            // Phase 1: stream every consumer's year straight into the
            // contiguous matrix (parallel over id chunks; each row is
            // written exactly once at its id's position, normalized in
            // place, so the matrix is identical for any schedule).
            let builder = SeriesMatrixBuilder::new(ids.len(), HOURS_PER_YEAR);
            {
                let _t = metrics.scope("extract");
                fan_out(&ids, threads, make_source, metrics, &|src, offset, ids| {
                    for (j, &id) in ids.iter().enumerate() {
                        let kwh = src.consumer_kwh(id)?;
                        ConsumerSeries::validate(id, kwh)?;
                        metrics.incr(counters::ROWS_SCANNED, kwh.len() as u64);
                        builder.set_row_normalized(offset + j, kwh);
                    }
                    Ok(())
                })?;
            }
            let matrix = builder.finish();
            // Phase 2: tiled symmetric all-pairs scoring.
            let _t = metrics.scope("score");
            let (matches, _stats) = top_k_matrix(&matrix, k, threads, metrics);
            Ok(TaskOutput::Similarity(consumer_matches(&ids, matches)))
        }
    }
}

/// All-pairs top-k over a normalized [`SeriesMatrix`]: the similarity
/// walk over its bands, band pairs claimed dynamically by up to
/// `threads` pool workers and per-worker partials merged — bit-identical
/// to the sequential tiled kernel (and to the naive scan) at every
/// thread count. The workers share one [`Resident`]: its chain order,
/// built once, and every row's best threshold any of them has held, by
/// which each skips register blocks. Records the `tile`/`merge` phases
/// plus `pairs_scored` (which blocks are skipped depends on how the
/// units fell to workers and when their thresholds were published) and
/// effective MFLOP/s over the pairs scored.
pub fn top_k_matrix(
    matrix: &SeriesMatrix,
    k: usize,
    threads: usize,
    metrics: &MetricsSink,
) -> (Vec<Vec<SimilarityMatch>>, KernelStats) {
    let cfg = TileConfig::current();
    let shape = (matrix.rows(), matrix.stride());
    let pairs = band_pair_count(cfg.tile_rows(matrix.rows()));
    let rows = Resident::new(matrix);
    let Ok((matches, stats)) = pooled_top_k(shape, pairs, k, threads, metrics, |claim| {
        similarity_walk(&rows, Pairs::All, k, &cfg, Some(claim))
    });
    (matches, stats.kernel)
}

/// One worker's partial top-k lists with what it did to get them.
type Partial = (Vec<Vec<SimilarityMatch>>, OoocStats);

/// The similarity pool driver, shared by the resident and out-of-core
/// walks: up to `threads` pool workers each run `partial` against one
/// shared counter handing out the `units` band pairs one at a time, and
/// the per-worker partials are merged exactly. A single worker runs on
/// the calling thread and its partial is the answer. Records the
/// `tile`/`merge` phases, `pairs_scored`, effective MFLOP/s over the
/// `tile` phase, and which kernel implementation scored.
pub(crate) fn pooled_top_k<E, F>(
    (rows, stride): (usize, usize),
    units: usize,
    k: usize,
    threads: usize,
    metrics: &MetricsSink,
    partial: F,
) -> std::result::Result<Partial, E>
where
    E: Send,
    F: Fn(&dyn Fn() -> Option<Range<usize>>) -> std::result::Result<Partial, E> + Sync,
{
    let parallelism = threads.min(units).max(1);
    let next = AtomicUsize::new(0);
    let claim = || {
        let t = next.fetch_add(1, Ordering::Relaxed);
        (t < units).then_some(t..t + 1)
    };
    let tile_start = Instant::now();
    let (matches, stats, tile_elapsed) = if parallelism == 1 {
        let _t = metrics.scope("tile");
        let (matches, stats) = partial(&claim)?;
        (matches, stats, tile_start.elapsed())
    } else {
        let partials = {
            let _t = metrics.scope("tile");
            metrics.incr(counters::WORKERS_SPAWNED, parallelism as u64);
            let collected = Mutex::new(Vec::with_capacity(parallelism));
            WorkerPool::global().broadcast(parallelism, &|_slot| {
                let part = partial(&claim);
                recover(collected.lock()).push(part);
            });
            recover(collected.into_inner())
        };
        let tile_elapsed = tile_start.elapsed();
        let _t = metrics.scope("merge");
        let mut stats = OoocStats::default();
        let mut parts = Vec::with_capacity(partials.len());
        for part in partials {
            let (p, s) = part?;
            stats.merge(&s);
            parts.push(p);
        }
        (merge_partials(rows, parts, k), stats, tile_elapsed)
    };
    metrics.incr(counters::PAIRS_SCORED, stats.kernel.pairs_scored);
    let ns = (tile_elapsed.as_nanos() as u64).max(1);
    metrics.incr(
        counters::SIMILARITY_MFLOPS,
        stats.kernel.flops(stride).saturating_mul(1000) / ns,
    );
    let tier = smda_stats::simd::active_tier();
    if tier >= smda_stats::SimdTier::Avx2 {
        metrics.incr(counters::SIMD_AVX2_ACTIVE, 1);
    }
    if tier == smda_stats::SimdTier::Avx512 {
        metrics.incr(counters::SIMD_AVX512_ACTIVE, 1);
    }
    Ok((matches, stats))
}

/// A [`ConsumerSource`] over an in-memory dataset — the "warm" workspace
/// every engine can fall back to once data is resident. Hands out
/// borrowed views of the shared dataset; nothing is copied per call.
pub struct MemorySource {
    data: std::sync::Arc<smda_types::Dataset>,
    /// id → position in `data.consumers()`, so lookups are O(1) instead
    /// of the dataset's linear scan.
    index: std::collections::HashMap<ConsumerId, usize>,
}

impl MemorySource {
    /// Wrap a shared dataset.
    pub fn new(data: std::sync::Arc<smda_types::Dataset>) -> Self {
        let index = data
            .consumers()
            .iter()
            .enumerate()
            .map(|(i, c)| (c.id, i))
            .collect();
        MemorySource { data, index }
    }
}

impl ConsumerSource for MemorySource {
    fn consumer_ids(&mut self) -> Result<Vec<ConsumerId>> {
        let mut ids: Vec<ConsumerId> = self.data.consumers().iter().map(|c| c.id).collect();
        ids.sort();
        Ok(ids)
    }

    fn consumer_kwh(&mut self, id: ConsumerId) -> Result<&[f64]> {
        let &pos = self
            .index
            .get(&id)
            .ok_or_else(|| Error::Invalid(format!("unknown consumer {id}")))?;
        Ok(self.data.consumers()[pos].readings())
    }

    fn temperature_year(&mut self) -> Result<&[f64]> {
        Ok(self.data.temperature().values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_core::{ThreeLineConfig, ThreeLineModel};
    use smda_types::{ConsumerSeries, Dataset, TemperatureSeries, HOURS_PER_YEAR};
    use std::sync::Arc;

    fn tiny(n: u32) -> Arc<Dataset> {
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
                        .map(|h| 0.3 + 0.1 * (((h % 24) + i as usize) % 24) as f64)
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        Arc::new(Dataset::new(consumers, temp).unwrap())
    }

    fn memory_factory(
        data: &Arc<Dataset>,
    ) -> Box<dyn Fn() -> Result<Box<dyn ConsumerSource>> + Sync> {
        let data = data.clone();
        Box::new(move || Ok(Box::new(MemorySource::new(data.clone())) as Box<dyn ConsumerSource>))
    }

    #[test]
    fn split_ranges_covers_everything() {
        for (n, parts) in [(10, 3), (1, 4), (0, 2), (100, 7), (8, 8), (5, 1)] {
            let ranges = split_ranges(n, parts);
            let total: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(total, n, "n={n} parts={parts}");
            // Contiguous and ordered.
            let mut expect = 0;
            for r in &ranges {
                assert_eq!(r.start, expect);
                expect = r.end;
            }
        }
    }

    #[test]
    fn parallel_results_match_single_threaded() {
        let data = tiny(6);
        let make = memory_factory(&data);
        let sink = MetricsSink::recording();
        for task in Task::ALL {
            let single = execute_task(make.as_ref(), task, 1, 3, &MetricsSink::disabled()).unwrap();
            let multi = execute_task(make.as_ref(), task, 4, 3, &sink).unwrap();
            assert_eq!(single.len(), multi.len(), "{task}");
            match (&single, &multi) {
                (TaskOutput::Histograms(a), TaskOutput::Histograms(b)) => assert_eq!(a, b),
                (TaskOutput::Par(a), TaskOutput::Par(b)) => assert_eq!(a, b),
                (TaskOutput::ThreeLine(a), TaskOutput::ThreeLine(b)) => assert_eq!(a, b),
                (TaskOutput::Similarity(a), TaskOutput::Similarity(b)) => assert_eq!(a, b),
                _ => panic!("mismatched task outputs"),
            }
        }
        // The recording sink saw the parallel runs: workers were spawned
        // and every consumer-year was scanned at least once per task.
        let report = sink.finish(smda_obs::RunManifest::new("all", "memory"));
        assert!(
            report
                .counter(smda_obs::counters::WORKERS_SPAWNED)
                .unwrap_or(0)
                >= 4
        );
        assert!(
            report
                .counter(smda_obs::counters::ROWS_SCANNED)
                .unwrap_or(0)
                > 0
        );
        assert!(report.phase_ns(&["fan_out", "t1"]).is_some());
        // The similarity kernel reported its work: 6 consumers = 15
        // unordered pairs, and a throughput figure.
        assert_eq!(
            report.counter(smda_obs::counters::PAIRS_SCORED),
            Some(6 * 5 / 2)
        );
        assert!(report
            .counter(smda_obs::counters::SIMILARITY_MFLOPS)
            .is_some());
    }

    /// `tiny`'s consumers under a temperature year of their own, in
    /// which every 20th hour sits `far` above or below zero.
    fn under_far_weather(n: u32, far: f64) -> Arc<Dataset> {
        let temp = TemperatureSeries::new(
            (0..HOURS_PER_YEAR)
                .map(|h| match h % 40 {
                    0 => far,
                    20 => -far,
                    _ => (h % 37) as f64 - 11.25,
                })
                .collect(),
        )
        .unwrap();
        Arc::new(Dataset::new(tiny(n).consumers().to_vec(), temp).unwrap())
    }

    #[test]
    fn three_line_plans_its_bins_once_per_worker_not_once_per_consumer() {
        // A year no other test fits against, so no pool worker's arena
        // holds its plan yet; 24 consumers, so per-consumer grouping
        // would build 24 times at any width.
        let data = under_far_weather(24, 50.0);
        let make = memory_factory(&data);
        for threads in [1usize, 2, 4] {
            let sink = MetricsSink::recording();
            let out = execute_task(make.as_ref(), Task::ThreeLine, threads, 3, &sink).unwrap();
            assert_eq!(out.len(), 24);
            let report = sink.finish(smda_obs::RunManifest::new("three_line", "memory"));
            let builds = report.counter(counters::FITS_PLAN_BUILDS).unwrap();
            assert!(
                builds <= threads as u64,
                "{builds} builds, {threads} threads"
            );
            if threads == 1 {
                // This test's own thread ran every chunk on a fresh arena.
                assert_eq!(builds, 1);
            }
        }
    }

    #[test]
    fn the_t1_t2_t3_split_is_this_runs_fits_drained_from_the_arena() {
        use std::time::Duration;
        let data = tiny(4);
        let make = memory_factory(&data);
        let hour = Duration::from_secs(3600);
        for task in [Task::Histogram, Task::ThreeLine, Task::Par] {
            // Time some unreported fit left on this thread's arena.
            with_fit_scratch(|scratch| scratch.note_phase_times([hour; 3]));
            let sink = MetricsSink::recording();
            execute_task(make.as_ref(), task, 1, 3, &sink).unwrap();
            let report = sink.finish(smda_obs::RunManifest::new(task.name(), "memory"));
            let t1 = report.phase_ns(&["fan_out", "t1"]);
            if task == Task::ThreeLine {
                let t1 = Duration::from_nanos(t1.expect("3-line reports its split"));
                assert!(t1 > Duration::ZERO && t1 < hour, "{t1:?}");
                assert!(report.phase_ns(&["fan_out", "t2"]).unwrap() > 0);
                assert!(report.phase_ns(&["fan_out", "t3"]).is_some());
            } else {
                assert_eq!(t1, None, "{task} has no T1");
            }
            let left = with_fit_scratch(|scratch| scratch.take_phase_times());
            assert_eq!(left, [Duration::ZERO; 3], "{task}");
        }
    }

    #[test]
    fn temperatures_beyond_the_i32_key_fit_like_the_baseline_instead_of_panicking() {
        // 3e9 and -3e9 pass `TemperatureSeries::validate` and saturate the
        // integer key at both ends, so the key span overflows an `i32`;
        // ±4e8 asks a counting table for gigabytes.
        for far in [3e9, 4e8] {
            let data = under_far_weather(3, far);
            let make = memory_factory(&data);
            let out = execute_task(
                make.as_ref(),
                Task::ThreeLine,
                2,
                3,
                &MetricsSink::disabled(),
            )
            .unwrap();
            let TaskOutput::ThreeLine(models) = out else {
                panic!("wrong output variant");
            };
            let config = ThreeLineConfig::default();
            let baseline: Vec<ThreeLineModel> = data
                .consumers()
                .iter()
                .filter_map(|c| smda_core::fit_three_line_baseline(c, data.temperature(), &config))
                .collect();
            assert_eq!(baseline.len(), 3, "±{far:e}");
            assert_eq!(models, baseline, "±{far:e}");
            // The far hours are percentile points like any other.
            let (low, _) = smda_core::three_line::percentile_points(
                data.consumers()[0].readings(),
                data.temperature(),
                &config,
            );
            assert_eq!(low.temps.len(), 39);
            assert_eq!(low.temps[0], (-far).max(i32::MIN as f64));
        }
    }

    #[test]
    fn a_lent_year_that_fails_validation_is_a_typed_error_from_every_task() {
        struct Damaged(MemorySource, Vec<f64>);
        impl ConsumerSource for Damaged {
            fn consumer_ids(&mut self) -> Result<Vec<ConsumerId>> {
                self.0.consumer_ids()
            }
            fn consumer_kwh(&mut self, _id: ConsumerId) -> Result<&[f64]> {
                Ok(&self.1)
            }
            fn temperature_year(&mut self) -> Result<&[f64]> {
                self.0.temperature_year()
            }
        }
        for bad in [-0.25, f64::NAN] {
            let mut year = vec![0.5; HOURS_PER_YEAR];
            year[77] = bad;
            let data = tiny(4);
            let make = move || {
                let source = Damaged(MemorySource::new(data.clone()), year.clone());
                Ok(Box::new(source) as Box<_>)
            };
            for task in Task::ALL {
                let err = execute_task(&make, task, 1, 3, &MetricsSink::disabled()).unwrap_err();
                assert!(
                    err.to_string()
                        .contains(&format!("reading at hour 77 is {bad}")),
                    "{task}: {err}"
                );
            }
        }
    }

    #[test]
    fn similarity_bit_identical_across_thread_counts() {
        let data = tiny(9);
        let make = memory_factory(&data);
        let baseline = execute_task(
            make.as_ref(),
            Task::Similarity,
            1,
            4,
            &MetricsSink::disabled(),
        )
        .unwrap();
        let TaskOutput::Similarity(base) = &baseline else {
            panic!("wrong output variant");
        };
        // And against the core reference implementation at the same k.
        let ref_matches = smda_core::similarity_search(&data, 4);
        for (a, b) in base.iter().zip(&ref_matches) {
            assert_eq!(a.consumer, b.consumer);
            assert_eq!(a.matches.len(), b.matches.len());
            for ((ia, sa), (ib, sb)) in a.matches.iter().zip(&b.matches) {
                assert_eq!(ia, ib);
                assert_eq!(sa.to_bits(), sb.to_bits(), "score bits differ vs reference");
            }
        }
        for threads in [2usize, 4, 8] {
            let out = execute_task(
                make.as_ref(),
                Task::Similarity,
                threads,
                4,
                &MetricsSink::disabled(),
            )
            .unwrap();
            let TaskOutput::Similarity(got) = &out else {
                panic!("wrong output variant");
            };
            for (a, b) in base.iter().zip(got) {
                assert_eq!(a.consumer, b.consumer);
                for ((ia, sa), (ib, sb)) in a.matches.iter().zip(&b.matches) {
                    assert_eq!(ia, ib, "{threads} threads");
                    assert_eq!(sa.to_bits(), sb.to_bits(), "{threads} threads");
                }
            }
        }
    }

    #[test]
    fn matches_reference_implementation() {
        let data = tiny(5);
        let make = memory_factory(&data);
        let out = execute_task(
            make.as_ref(),
            Task::Histogram,
            2,
            10,
            &MetricsSink::disabled(),
        )
        .unwrap();
        let reference = smda_core::tasks::run_reference(Task::Histogram, &data);
        match (&out, &reference) {
            (TaskOutput::Histograms(a), TaskOutput::Histograms(b)) => assert_eq!(a, b),
            _ => panic!("wrong output variants"),
        }
    }

    #[test]
    fn memory_source_rejects_unknown_id() {
        let mut src = MemorySource::new(tiny(2));
        assert!(src.consumer_kwh(ConsumerId(99)).is_err());
        assert_eq!(src.consumer_ids().unwrap().len(), 2);
        assert_eq!(src.temperature_year().unwrap().len(), HOURS_PER_YEAR);
    }

    #[test]
    fn fan_out_surfaces_source_errors() {
        let data = tiny(4);
        let make = memory_factory(&data);
        // Ask for an id that does not exist: the error must surface
        // through the parallel path, not panic or hang.
        let ids = vec![ConsumerId(0), ConsumerId(99), ConsumerId(2)];
        let r = fan_out(
            &ids,
            4,
            make.as_ref(),
            &MetricsSink::disabled(),
            &|src, _offset, ids| {
                for &id in ids {
                    src.consumer_kwh(id)?;
                }
                Ok(())
            },
        );
        assert!(r.is_err());
    }
}
