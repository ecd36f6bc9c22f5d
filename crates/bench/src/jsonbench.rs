//! The `--json` export: an instrumented platform × task matrix.
//!
//! Every platform runs every task twice on a small dataset — one fully
//! observed warm session (load / warm / run) and one cold run — plus one
//! job per task on each cluster engine. The recorded phase trees and
//! counters are flattened into the continuous-benchmarking entries of
//! `smda_obs::BenchExport` and written wherever `--json <path>` points.

use smda_cluster::FaultPlan;
use smda_core::Task;
use smda_engines::{
    ColumnarEngine, NumericEngine, Platform, RelationalEngine, RelationalLayout, RunResult, RunSpec,
};
use smda_obs::{counters, BenchExport, MetricsReport, MetricsSink, RunManifest};
use smda_storage::FileLayout;
use smda_types::{DataFormat, Dataset};

use crate::alloc;
use crate::data::{seed_dataset, Scratch};
use crate::experiments::twins;
use crate::scale::Scale;

/// Record one phase's heap counters (`heap.bytes_allocated.<phase>` /
/// `heap.peak_bytes.<phase>`). Zeros when the counting allocator is not
/// installed (any binary but `smda-bench`).
fn record_heap(sink: &MetricsSink, phase: &str, allocated: usize, peak: usize) {
    sink.incr(
        &format!("{}.{phase}", counters::HEAP_BYTES_ALLOCATED),
        allocated as u64,
    );
    sink.incr(
        &format!("{}.{phase}", counters::HEAP_PEAK_BYTES),
        peak as u64,
    );
}

/// `smda_engines::observe_session` with the counting allocator sampled
/// around each of the three top-level phases, so every warm report
/// carries per-phase allocation churn and peak heap growth.
fn observe_heap_session(
    engine: &mut dyn Platform,
    ds: &Dataset,
    spec: &RunSpec,
) -> smda_types::Result<MetricsReport> {
    let (load, allocated, peak) = alloc::measure_alloc(|| engine.load(ds));
    spec.metrics.add_phase(&["load"], load?);
    record_heap(&spec.metrics, "load", allocated, peak);
    let (warm, allocated, peak) = alloc::measure_alloc(|| engine.warm());
    spec.metrics.add_phase(&["warm"], warm?);
    record_heap(&spec.metrics, "warm", allocated, peak);
    observe_run(engine, spec);
    let manifest = RunManifest::new(spec.task.name(), engine.name())
        .threads(spec.threads)
        .consumers(ds.len());
    Ok(spec.metrics.finish(manifest))
}

/// Parallelism used by every instrumented run.
const THREADS: usize = 2;

/// Workers on the modeled cluster for the instrumented cluster jobs.
const CLUSTER_WORKERS: usize = 4;

/// A spec for `task` with a recording sink of its own, and `faults` if
/// there is a plan.
fn recording_spec(task: Task, threads: usize, faults: Option<&FaultPlan>) -> RunSpec {
    let spec = RunSpec::builder(task)
        .threads(threads)
        .metrics(MetricsSink::recording());
    match faults {
        Some(plan) => spec.fault_plan(plan.clone()).build(),
        None => spec.build(),
    }
}

/// One `run` on a loaded engine, recorded into `spec`'s sink with the
/// allocator sampled around it — a cold run if the caller just dropped
/// the caches.
fn observe_run(engine: &mut dyn Platform, spec: &RunSpec) -> RunResult {
    let (result, allocated, peak) = alloc::measure_alloc(|| {
        let _run = spec.metrics.scope("run");
        engine.run(spec)
    });
    record_heap(&spec.metrics, "run", allocated, peak);
    result.expect("run succeeds on loaded data")
}

/// Run the instrumented matrix with an optional fault plan applied to
/// the cluster engines (the single-server platforms have no cluster to
/// break, so they run clean either way). With a plan, each cluster
/// engine gains one extra observed `load` run that carries the
/// replica-loss counters, and every per-task report carries whatever
/// `faults.*` counters the scheduler and worker pool emitted.
pub fn run_json_bench_with(scale: Scale, faults: Option<FaultPlan>) -> BenchExport {
    let ds = seed_dataset(scale.consumers_for_gb(1.0));
    let scratch = Scratch::new("jsonbench");
    let mut runs = Vec::new();
    let cold = |task: Task, platform: &str| {
        RunManifest::new(task.name(), platform)
            .threads(THREADS)
            .consumers(ds.len())
            .cold(true)
    };

    let mut platforms: Vec<Box<dyn Platform>> = vec![
        Box::new(NumericEngine::new(
            scratch.path("matlab"),
            FileLayout::Partitioned,
        )),
        Box::new(RelationalEngine::new(
            scratch.path("madlib"),
            RelationalLayout::ReadingPerRow,
        )),
        Box::new(ColumnarEngine::new(scratch.path("systemc"))),
    ];
    for engine in &mut platforms {
        for task in Task::ALL {
            // Warm session: load, warm, run, fully observed.
            let spec = recording_spec(task, THREADS, None);
            let report = observe_heap_session(engine.as_mut(), &ds, &spec)
                .expect("instrumented session succeeds on valid data");
            runs.push(report);

            // Cold run: caches dropped, only the run phase.
            engine.make_cold();
            let spec = recording_spec(task, THREADS, None);
            observe_run(engine.as_mut(), &spec);
            runs.push(spec.metrics.finish(cold(task, engine.name())));
        }
    }

    // The binary-backed numeric twin: the same dataset sealed to one
    // `SMC1` file, cold runs served off the memory mapping, under its own
    // platform label (`Matlab-smc/{task}/cold/run`). Then the out-of-core
    // twin: the same sealed file, with cold similarity forced through the
    // banded streaming kernel regardless of size; its reports carry the
    // `oooc.*` streaming counters and the `format.*` zero-copy/cache
    // counters, under the `Matlab-oooc` label.
    for (platform, mut engine) in [
        (
            "Matlab-smc",
            NumericEngine::binary(scratch.path("matlab.smc")),
        ),
        (
            "Matlab-oooc",
            NumericEngine::binary_oooc(scratch.path("matlab-oooc.smc")),
        ),
    ] {
        engine
            .load(&ds)
            .expect("binary store materializes from valid data");
        for task in Task::ALL {
            engine.make_cold();
            let spec = recording_spec(task, THREADS, None);
            observe_run(&mut engine, &spec);
            runs.push(spec.metrics.finish(cold(task, platform)));
        }
    }

    // Cluster engines: counters (tasks scheduled, bytes shuffled, workers
    // spawned) flow in from the scheduler and worker pool; the virtual
    // makespan is recorded as an explicit sub-phase.
    for (platform, mut twin) in twins(CLUSTER_WORKERS, scale).into_iter().rev() {
        let manifest = |task: &str| {
            RunManifest::new(task, platform)
                .threads(CLUSTER_WORKERS)
                .consumers(ds.len())
        };
        let spec = recording_spec(Task::Histogram, 1, faults.as_ref());
        {
            let _load = spec.metrics.scope("load");
            twin.load_observed(&ds, DataFormat::ReadingPerLine, &spec)
                .expect("twin load survives the fault plan");
        }
        // Under a plan the observed load is a run of its own: it carries
        // the replica-loss counters.
        if faults.is_some() {
            runs.push(spec.metrics.finish(manifest("load")));
        }
        for task in Task::ALL {
            let spec = recording_spec(task, 1, faults.as_ref());
            let result = observe_run(twin.as_mut(), &spec);
            spec.metrics.add_phase(&["run", "virtual"], result.elapsed);
            runs.push(spec.metrics.finish(manifest(task.name())));
        }
    }

    BenchExport::from_runs(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_obs::counters;

    #[test]
    fn export_covers_every_platform_and_task() {
        let export = run_json_bench_with(Scale::smoke(), None);
        // 3 single-server platforms × 4 tasks × {warm, cold} + the
        // binary-backed twin and its out-of-core twin × 4 cold tasks
        // each + 2 cluster engines × 4 tasks.
        assert_eq!(export.runs.len(), 3 * 4 * 2 + 4 + 4 + 2 * 4);
        for name in [
            "Matlab",
            "MADLib",
            "System C",
            "Matlab-smc",
            "Matlab-oooc",
            "Hive",
            "Spark",
        ] {
            assert!(
                export.runs.iter().any(|r| r.manifest.platform == name),
                "missing platform {name}"
            );
        }
        // The binary twins are cold-only: every run is served off the
        // sealed file, there is no warm session to observe.
        assert!(export
            .runs
            .iter()
            .filter(|r| matches!(r.manifest.platform.as_str(), "Matlab-smc" | "Matlab-oooc"))
            .all(|r| r.manifest.cold));
        // The out-of-core similarity run streamed bands and says so in
        // the export: one oooc run, bytes through band buffers, and
        // format-layer reads (zero-copy on a mapped file, decoded
        // blocks on the owned fallback).
        let oooc_sim = export
            .runs
            .iter()
            .find(|r| r.manifest.platform == "Matlab-oooc" && r.manifest.task == "Similarity")
            .expect("out-of-core similarity run present");
        assert_eq!(oooc_sim.counter(counters::OOOC_RUNS), Some(1));
        assert!(oooc_sim.counter(counters::OOOC_BAND_PAIRS).unwrap_or(0) > 0);
        assert!(oooc_sim.counter(counters::OOOC_BYTES_STREAMED).unwrap_or(0) > 0);
        assert!(
            oooc_sim
                .counter(counters::FORMAT_ZERO_COPY_HITS)
                .unwrap_or(0)
                + oooc_sim
                    .counter(counters::FORMAT_BLOCKS_DECODED)
                    .unwrap_or(0)
                > 0
        );
        // Warm sessions carry the three top-level phases.
        for report in export.runs.iter().filter(|r| !r.manifest.cold) {
            assert!(
                report.phase_ns(&["run"]).unwrap_or(0) > 0,
                "{:?}",
                report.manifest
            );
        }
        // Every run-carrying report samples the allocator around `run`
        // (zero under `cargo test`, where the allocator is not installed).
        for report in &export.runs {
            assert!(
                report.counter("heap.bytes_allocated.run").is_some(),
                "missing heap counters: {:?}",
                report.manifest
            );
            assert!(report.counter("heap.peak_bytes.run").is_some());
        }
        // The cluster wiring produced scheduling counters.
        let hive_hist = export
            .runs
            .iter()
            .find(|r| r.manifest.platform == "Hive" && r.manifest.task == "Histogram")
            .expect("hive histogram run present");
        assert!(hive_hist.counter(counters::TASKS_SCHEDULED).unwrap_or(0) > 0);
        assert!(hive_hist.counter(counters::BYTES_SHUFFLED).unwrap_or(0) > 0);
        assert!(hive_hist.counter(counters::WORKERS_SPAWNED).unwrap_or(0) > 0);
    }

    #[test]
    fn faulty_export_carries_fault_counters() {
        use smda_cluster::NodeCrash;
        use std::time::Duration;

        let plan = FaultPlan {
            task_failure_rate: 0.2,
            max_attempts: 64,
            replica_losses: 4,
            re_replicate: true,
            crashes: vec![NodeCrash {
                node: 0,
                at: Duration::from_nanos(1),
            }],
            ..FaultPlan::seeded(7)
        };
        let export = run_json_bench_with(Scale::smoke(), Some(plan));
        // The fault-free matrix plus one observed `load` per cluster engine.
        assert_eq!(export.runs.len(), 3 * 4 * 2 + 4 + 4 + 2 * 4 + 2);

        // The load runs carry the replica-loss injection and recovery.
        for platform in ["Hive", "Spark"] {
            let load = export
                .runs
                .iter()
                .find(|r| r.manifest.platform == platform && r.manifest.task == "load")
                .expect("observed load run present");
            assert!(
                load.counter(counters::FAULTS_INJECTED_REPLICA_LOSS)
                    .unwrap_or(0)
                    > 0
            );
            assert!(
                load.counter(counters::FAULTS_RECOVERED_REPLICA_LOSS)
                    .unwrap_or(0)
                    > 0
            );
        }

        // The cluster task runs saw the crash and the injected failures,
        // and recovered from both (every run still succeeded).
        let cluster: Vec<_> = export
            .runs
            .iter()
            .filter(|r| matches!(r.manifest.platform.as_str(), "Hive" | "Spark"))
            .collect();
        let sum = |name: &str| -> u64 { cluster.iter().filter_map(|r| r.counter(name)).sum() };
        assert!(sum(counters::FAULTS_INJECTED_NODE_CRASH) > 0);
        assert!(sum(counters::FAULTS_RECOVERED_NODE_CRASH) > 0);
        assert!(sum(counters::FAULTS_INJECTED_TASK_FAILURE) > 0);
        assert!(sum(counters::FAULTS_RECOVERED_TASK_FAILURE) > 0);
        assert!(sum(counters::TASKS_RETRIED) > 0);
    }
}
