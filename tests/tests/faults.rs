//! End-to-end fault tolerance: injected disasters must leave results
//! exact, recoveries must be visible in the `smda-bench/v1` JSON export,
//! and unrecoverable faults must surface as typed errors — never a
//! panic, never silently-wrong output.

use std::time::Duration;

use smda_cluster::{ClusterTopology, CostModel, FaultPlan, NodeCrash};
use smda_core::Task;
use smda_engines::{ClusterTwin, RunSpec, WorkerPool};
use smda_hive::HiveEngine;
use smda_integration::fixture_dataset;
use smda_obs::{counters, BenchExport, MetricsSink, RunManifest};
use smda_spark::SparkEngine;
use smda_types::{DataFormat, Error};

const BLOCK: u64 = 64 * 1024;

fn topo(workers: usize) -> ClusterTopology {
    ClusterTopology {
        workers,
        slots_per_worker: 4,
        cost: CostModel::mapreduce(),
    }
}

/// A crash strikes just after the first task wave is placed: the job
/// must complete on the survivors with exact results, and the recovery
/// must land in the JSON export as `faults.recovered.node_crash`.
#[test]
fn node_crash_recovery_is_exact_and_lands_in_the_json_export() {
    let ds = fixture_dataset(12);

    let mut clean = HiveEngine::new(topo(4), BLOCK);
    clean.load(&ds, DataFormat::ReadingPerLine).unwrap();
    let reference = clean
        .run_with(&RunSpec::builder(Task::Histogram).build())
        .unwrap();

    let mut faulty = HiveEngine::new(topo(4), BLOCK);
    let sink = MetricsSink::recording();
    let spec = RunSpec::builder(Task::Histogram)
        .metrics(sink.clone())
        .fault_plan(FaultPlan {
            crashes: vec![NodeCrash {
                node: 0,
                at: Duration::from_nanos(1),
            }],
            ..FaultPlan::seeded(1)
        })
        .build();
    faulty.load(&ds, DataFormat::ReadingPerLine).unwrap();
    let survived = faulty.run_with(&spec).unwrap();

    assert_eq!(
        format!("{:?}", survived.output),
        format!("{:?}", reference.output),
        "crash recovery must not change results"
    );

    let report = sink.finish(RunManifest::new("Histogram", "Hive").consumers(ds.len()));
    let recovered = report
        .counter(counters::FAULTS_RECOVERED_NODE_CRASH)
        .unwrap_or(0);
    assert!(
        recovered >= 1,
        "the rescheduled tasks must be counted, got {recovered}"
    );

    // And the counter survives the trip through the JSON export format.
    let json = BenchExport::from_runs(vec![report]).to_json_pretty();
    assert!(
        json.contains(counters::FAULTS_RECOVERED_NODE_CRASH),
        "{json}"
    );
    let parsed = serde::json::from_str::<BenchExport>(&json).unwrap();
    assert_eq!(
        parsed.runs[0].counter(counters::FAULTS_RECOVERED_NODE_CRASH),
        Some(recovered)
    );
}

/// Losing every replica of a block is a typed [`Error::BlockUnavailable`]
/// at load time on both engines — not a panic, not a silent success.
#[test]
fn all_replica_loss_is_a_typed_error_on_both_engines() {
    let ds = fixture_dataset(4);
    let doom = FaultPlan {
        replica_losses: usize::MAX,
        ..FaultPlan::seeded(0)
    };

    let spec = RunSpec::builder(Task::Histogram).fault_plan(doom).build();

    let mut hive = HiveEngine::new(topo(3), BLOCK);
    match hive.load_observed(&ds, DataFormat::ReadingPerLine, &spec) {
        Err(Error::BlockUnavailable { .. }) => {}
        other => panic!("hive: want BlockUnavailable, got {other:?}"),
    }

    let mut spark = SparkEngine::new(topo(3), BLOCK);
    match spark.load_observed(&ds, DataFormat::ReadingPerLine, &spec) {
        Err(Error::BlockUnavailable { .. }) => {}
        other => panic!("spark: want BlockUnavailable, got {other:?}"),
    }
}

/// A pool task that panics on its first attempt is retried and the run
/// completes; one that never stops panicking exhausts the budget as a
/// typed [`Error::TaskFailed`] naming the task.
#[test]
fn panicking_pool_tasks_are_retried_then_surface_typed_errors() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let pool = WorkerPool::global();
    let sink = MetricsSink::recording();
    // Task 3 panics on its first attempt only (attempt parity via an
    // atomic — what the task reads stays identical across attempts).
    let first = std::sync::atomic::AtomicBool::new(true);
    let result = pool.run_contained(2, 8, 3, &sink, &|i| {
        if i == 3 && first.swap(false, std::sync::atomic::Ordering::SeqCst) {
            panic!("transient");
        }
        i as u64 * 2
    });
    let values: Vec<u64> = result.unwrap().into_iter().map(|(v, _)| v).collect();
    assert_eq!(values, (0..8).map(|i| i * 2).collect::<Vec<u64>>());
    let report = sink.finish(RunManifest::new("pool", "test"));
    assert_eq!(
        report.counter(counters::FAULTS_RECOVERED_TASK_PANIC),
        Some(1)
    );
    assert_eq!(report.counter(counters::TASKS_RETRIED), Some(1));

    // Unrecoverable: the budget runs out and the error names the task.
    let err = pool
        .run_contained(2, 1, 2, &MetricsSink::disabled(), &|_| -> u64 {
            panic!("always")
        })
        .unwrap_err();
    match err {
        Error::TaskFailed { task, attempts } => {
            assert_eq!(task, "pool task 0");
            assert_eq!(attempts, 2);
        }
        other => panic!("want TaskFailed, got {other:?}"),
    }

    std::panic::set_hook(prev);
}

/// The same fault plan replayed against the same job gives identical
/// results and identical fault accounting, all the way into the JSON
/// export. (Wall-clock phase durations jitter between runs, so the
/// comparison pins the deterministic layers: outputs and counters.)
#[test]
fn same_fault_plan_same_seed_is_deterministic_end_to_end() {
    let ds = fixture_dataset(10);
    let plan = FaultPlan {
        task_failure_rate: 0.3,
        max_attempts: 32,
        crashes: vec![NodeCrash {
            node: 0,
            at: Duration::from_nanos(1),
        }],
        replica_losses: 3,
        re_replicate: true,
        ..FaultPlan::seeded(42)
    };

    let observe = |task: Task| {
        let mut hive = HiveEngine::new(topo(4), BLOCK);
        let sink = MetricsSink::recording();
        let spec = RunSpec::builder(task)
            .metrics(sink.clone())
            .fault_plan(plan.clone())
            .build();
        hive.load_observed(&ds, DataFormat::ReadingPerLine, &spec)
            .unwrap();
        let result = hive.run_with(&spec).unwrap();
        let report = sink.finish(RunManifest::new(task.name(), "Hive").consumers(ds.len()));
        (result.output, report)
    };

    for task in [Task::Histogram, Task::Par] {
        let (out_a, report_a) = observe(task);
        let (out_b, report_b) = observe(task);
        assert_eq!(
            format!("{out_a:?}"),
            format!("{out_b:?}"),
            "{task:?}: outputs must replay identically"
        );
        // Where a retried attempt lands (local or remote) depends on the
        // measured duration of the tasks around it, so `bytes_shuffled`
        // may jitter; every fault counter must replay exactly.
        let accounting = |r: &smda_obs::MetricsReport| {
            let mut c = r.counters.clone();
            c.retain(|(name, _)| name != counters::BYTES_SHUFFLED);
            c
        };
        assert_eq!(
            accounting(&report_a),
            accounting(&report_b),
            "{task:?}: fault accounting must replay identically"
        );
        // Identical counters serialize identically (the export adds no
        // nondeterministic fields of its own).
        let strip = |r: &smda_obs::MetricsReport| {
            let mut r = r.clone();
            r.phases.clear(); // wall-clock, the one nondeterministic layer
            r.counters
                .retain(|(name, _)| name != counters::BYTES_SHUFFLED);
            BenchExport::from_runs(vec![r]).to_json_pretty()
        };
        assert_eq!(strip(&report_a), strip(&report_b));
        // Something actually happened: the plan injected and recovered.
        assert!(
            report_a
                .counter(counters::FAULTS_INJECTED_TASK_FAILURE)
                .unwrap_or(0)
                > 0
        );
        assert!(report_a.counter(counters::TASKS_RETRIED).unwrap_or(0) > 0);
    }
}

/// Retry exhaustion surfaces as a typed error naming the task, from the
/// engine's public API.
#[test]
fn retry_exhaustion_names_the_failing_task() {
    let ds = fixture_dataset(6);
    let mut hive = HiveEngine::new(topo(4), BLOCK);
    let spec = RunSpec::builder(Task::Histogram)
        .fault_plan(FaultPlan {
            task_failure_rate: 0.999,
            max_attempts: 2,
            ..FaultPlan::seeded(3)
        })
        .build();
    hive.load(&ds, DataFormat::ReadingPerLine).unwrap();
    match hive.run_with(&spec) {
        Err(Error::TaskFailed { task, attempts }) => {
            assert!(task.contains("task"), "error should name the task: {task}");
            assert_eq!(attempts, 2);
        }
        other => panic!("want TaskFailed, got {other:?}"),
    }
}
