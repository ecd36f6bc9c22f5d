//! End-to-end real-transport execution: forked worker processes, socket
//! shuffle, an actual SIGKILL mid-phase, and WAL-backed recovery — with
//! every output compared bit for bit against the deterministic virtual
//! twin.
//!
//! These tests fork the `smda` binary; `cargo test --workspace` (and
//! `scripts/ci.sh`) builds it first. Running this file in isolation
//! needs `cargo build -p smda-cli` or `SMDA_WORKER_BIN`.

use std::time::Duration;

use smda_cluster::{
    run_real, run_virtual_twin, task_output_bits_eq, FaultPlan, NodeCrash, RealClusterConfig,
};
use smda_core::Task;
use smda_integration::fixture_dataset;
use smda_obs::{counters, BenchExport, MetricsSink, RunManifest};

fn config(workers: usize) -> RealClusterConfig {
    RealClusterConfig {
        workers,
        map_chunk: 3,
        reduce_tasks: 4,
        ..RealClusterConfig::default()
    }
}

/// The acceptance gate: a 4-worker real run of all four tasks is
/// bit-identical to the virtual twin's output.
#[test]
fn four_worker_real_run_matches_the_virtual_twin_on_all_tasks() {
    let ds = fixture_dataset(10);
    let config = config(4);
    for task in Task::ALL {
        let sink = MetricsSink::recording();
        let real = run_real(task, &ds, &config, &sink)
            .unwrap_or_else(|e| panic!("real {task:?} run failed: {e}"));
        let twin = run_virtual_twin(task, &ds, &config).unwrap();
        assert!(
            task_output_bits_eq(&real.output, &twin),
            "{task:?}: real output must be bit-identical to the virtual twin"
        );
        assert_eq!(
            real.live_workers, 4,
            "{task:?}: no worker may die fault-free"
        );
        assert_eq!(
            real.partitions_spilled, real.partitions_replayed,
            "{task:?}: every spilled partition must replay exactly once"
        );
        let report = sink.finish(RunManifest::new(task.name(), "real").consumers(ds.len()));
        assert_eq!(
            report.counter(counters::REAL_WORKERS_SPAWNED),
            Some(4),
            "{task:?}: worker spawns must be counted"
        );
        assert!(
            report.counter(counters::TRANSPORT_FRAMES_SENT).unwrap_or(0) > 0,
            "{task:?}: RPCs must flow through the frame codec"
        );
    }
}

/// Satellite 4: SIGKILL one worker mid-shuffle. The job must finish on
/// the survivors, the recovered output must be `to_bits`-identical to a
/// no-fault run, and the injection/recovery must be visible in the
/// counters exactly as planned.
#[test]
fn sigkilled_worker_mid_shuffle_recovers_bit_identically() {
    // PAR is the slowest per-task fit, so the kill lands with plenty of
    // work still queued; one consumer per map task keeps the queue deep.
    let ds = fixture_dataset(24);
    let base = RealClusterConfig {
        workers: 3,
        map_chunk: 1,
        reduce_tasks: 4,
        ..RealClusterConfig::default()
    };

    let clean = run_real(Task::Par, &ds, &base, &MetricsSink::disabled()).unwrap();

    let sink = MetricsSink::recording();
    let faulty_config = RealClusterConfig {
        fault_plan: Some(FaultPlan {
            crashes: vec![NodeCrash {
                node: 1,
                at: Duration::from_millis(1),
            }],
            ..FaultPlan::seeded(7)
        }),
        ..base
    };
    let survived = run_real(Task::Par, &ds, &faulty_config, &sink).unwrap();

    assert!(
        task_output_bits_eq(&survived.output, &clean.output),
        "a SIGKILLed worker must not change a single output bit"
    );
    assert_eq!(survived.live_workers, 2, "exactly the victim must be dead");
    assert_eq!(
        survived.partitions_spilled, survived.partitions_replayed,
        "zero lost, zero duplicated partitions"
    );

    let report = sink.finish(RunManifest::new("PAR", "real").consumers(ds.len()));
    assert_eq!(
        report.counter(counters::FAULTS_INJECTED_NODE_CRASH),
        Some(1),
        "the plan schedules exactly one SIGKILL"
    );
    assert!(
        report
            .counter(counters::FAULTS_RECOVERED_NODE_CRASH)
            .unwrap_or(0)
            >= 1,
        "at least one task must be recovered off the corpse"
    );
    assert!(
        report.counter(counters::TRANSPORT_RETRIES).unwrap_or(0) >= 1,
        "talking to a SIGKILLed worker must burn at least one retry"
    );

    // The counters flow into the smda-bench/v1 export like every other
    // fault family.
    let export = BenchExport::from_runs(vec![report]);
    let parsed = serde::json::from_str::<BenchExport>(&export.to_json_pretty()).unwrap();
    let run = &parsed.runs[0];
    assert_eq!(run.counter(counters::FAULTS_INJECTED_NODE_CRASH), Some(1));
    assert!(run.counter(counters::FAULTS_RECOVERED_NODE_CRASH).is_some());
}
