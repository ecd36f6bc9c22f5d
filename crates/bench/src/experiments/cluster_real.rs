//! Real-transport experiment (extension): forked worker processes vs
//! the virtual twin.
//!
//! Not a figure from the paper — an extension that runs every task on a
//! real multi-process cluster (forked `smda worker` processes, socket
//! shuffle through the length-prefixed frame codec, WAL-spilled
//! partitions) and compares each output bit for bit against the
//! deterministic virtual twin. One extra row replays a seeded
//! one-SIGKILL chaos plan: a worker is killed mid-shuffle, heartbeat
//! loss detects the corpse, its tasks are rescheduled, and the spilled
//! partitions replay — the recovered output must still match the
//! fault-free run exactly.

use std::time::Duration;

use smda_cluster::{
    run_real, run_virtual_twin, task_output_bits_eq, FaultPlan, NodeCrash, RealClusterConfig,
};
use smda_core::Task;
use smda_obs::{counters, MetricsReport, MetricsSink, RunManifest};

use crate::data::seed_dataset;
use crate::report::{secs, Table};
use crate::scale::Scale;

/// Workers forked for the fault-free comparison rows.
const WORKERS: usize = 4;

/// Seed shared by the chaos plan so the experiment replays exactly.
const SEED: u64 = 2015;

fn verdict(bits_eq: bool) -> String {
    (if bits_eq { "yes" } else { "DIVERGED" }).to_string()
}

fn transport_retries(report: &MetricsReport) -> String {
    report
        .counter(counters::TRANSPORT_RETRIES)
        .unwrap_or(0)
        .to_string()
}

/// Run the real-transport comparison at `scale`.
pub fn run(scale: Scale) -> Vec<Table> {
    // Enough consumers that the chaos row has a deep map queue (one
    // consumer per map task), but small enough that forking real
    // processes per row stays in benchmark territory.
    let consumers = scale
        .cluster_consumers_for_households(64_000)
        .clamp(24, 192);
    let ds = seed_dataset(consumers);

    let mut table = Table::new(
        "cluster_real",
        "Real multi-process cluster vs the deterministic virtual twin",
        &[
            "task",
            "scenario",
            "workers",
            "seconds",
            "map tasks",
            "reduce tasks",
            "spilled",
            "replayed",
            "bit-identical",
            "injected",
            "recovered",
            "retries",
        ],
    );

    let config = RealClusterConfig {
        workers: WORKERS,
        reduce_tasks: 8,
        ..RealClusterConfig::default()
    };
    for task in Task::ALL {
        let sink = MetricsSink::recording();
        let real = run_real(task, &ds, &config, &sink).expect("fault-free real run succeeds");
        let twin = run_virtual_twin(task, &ds, &config).expect("virtual twin succeeds");
        let report = sink.finish(
            RunManifest::new(task.name(), "real")
                .threads(WORKERS)
                .consumers(consumers),
        );
        table.row(vec![
            task.name().to_string(),
            "fault-free".to_string(),
            real.live_workers.to_string(),
            secs(real.elapsed),
            real.map_tasks.to_string(),
            real.reduce_tasks.to_string(),
            real.partitions_spilled.to_string(),
            real.partitions_replayed.to_string(),
            verdict(task_output_bits_eq(&real.output, &twin)),
            "0".to_string(),
            "0".to_string(),
            transport_retries(&report),
        ]);
    }

    // Seeded chaos row: SIGKILL worker 1 mid-shuffle of the slowest
    // task. One consumer per map task keeps the queue deep so the kill
    // lands with work still in flight.
    let base = RealClusterConfig {
        workers: 3,
        map_chunk: 1,
        reduce_tasks: 4,
        ..RealClusterConfig::default()
    };
    let clean = run_real(Task::Par, &ds, &base, &MetricsSink::disabled())
        .expect("fault-free chaos baseline succeeds");
    let sink = MetricsSink::recording();
    let faulty = RealClusterConfig {
        fault_plan: Some(FaultPlan {
            crashes: vec![NodeCrash {
                node: 1,
                at: Duration::from_millis(1),
            }],
            ..FaultPlan::seeded(SEED)
        }),
        ..base
    };
    let survived =
        run_real(Task::Par, &ds, &faulty, &sink).expect("the job must recover from one SIGKILL");
    let report = sink.finish(
        RunManifest::new(Task::Par.name(), "real")
            .threads(3)
            .consumers(consumers),
    );
    table.row(vec![
        Task::Par.name().to_string(),
        "one SIGKILL mid-shuffle".to_string(),
        survived.live_workers.to_string(),
        secs(survived.elapsed),
        survived.map_tasks.to_string(),
        survived.reduce_tasks.to_string(),
        survived.partitions_spilled.to_string(),
        survived.partitions_replayed.to_string(),
        verdict(task_output_bits_eq(&survived.output, &clean.output)),
        report
            .counter(counters::FAULTS_INJECTED_NODE_CRASH)
            .unwrap_or(0)
            .to_string(),
        report
            .counter(counters::FAULTS_RECOVERED_NODE_CRASH)
            .unwrap_or(0)
            .to_string(),
        transport_retries(&report),
    ]);

    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "forks real workers; run with --release after building the smda binary"
    )]
    fn cluster_real_table_has_expected_shape() {
        let tables = run(Scale::smoke());
        assert_eq!(tables.len(), 1);
        let table = &tables[0];
        assert_eq!(table.rows.len(), Task::ALL.len() + 1);
        for row in &table.rows {
            assert_eq!(row[8], "yes", "real run diverged from twin: {row:?}");
            assert_eq!(row[6], row[7], "spilled != replayed: {row:?}");
        }
        let chaos = table.rows.last().unwrap();
        assert_eq!(chaos[1], "one SIGKILL mid-shuffle");
        assert_eq!(chaos[2], "2", "exactly the victim must be dead");
        assert_eq!(chaos[9], "1", "the plan schedules exactly one kill");
        assert!(
            chaos[10].parse::<u64>().unwrap() >= 1,
            "at least one task must be recovered: {chaos:?}"
        );
    }
}
