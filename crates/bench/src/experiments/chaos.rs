//! Chaos experiment (extension): the cluster engines under injected
//! faults.
//!
//! Not a figure from the paper — an extension that sweeps deterministic
//! [`FaultPlan`]s over the modeled Hive and Spark engines and reports
//! what fault tolerance costs. Two tables:
//!
//! - `chaos_rates`: virtual makespan and retry counts for the histogram
//!   job as the per-attempt task-failure probability rises. Makespan
//!   should degrade gracefully — retries reschedule onto healthy slots —
//!   and the job must stay exact at every rate.
//! - `chaos_scenarios`: one row per canned disaster (node crash at job
//!   start, a 4× straggler with speculation enabled, block-replica loss
//!   healed by re-replication), with the injected/recovered counters the
//!   observability layer saw.

use std::time::Duration;

use smda_cluster::{FaultPlan, NodeCrash, SlowNode};
use smda_core::Task;
use smda_engines::{ClusterTwin, RunSpec};
use smda_obs::{counters, MetricsReport, MetricsSink, RunManifest};
use smda_types::DataFormat;

use crate::data::seed_dataset;
use crate::experiments::{hive, spark, twin_run};
use crate::report::{secs, Table};
use crate::scale::Scale;

/// Per-attempt task-failure probabilities swept by `chaos_rates`.
pub const FAILURE_RATES: [f64; 4] = [0.0, 0.1, 0.2, 0.4];

/// Workers on the modeled cluster.
const WORKERS: usize = 4;

/// Seed shared by every plan so the whole experiment replays exactly.
const SEED: u64 = 2015;

/// Generous retry budget: the sweep demonstrates recovery, not
/// exhaustion, so no plan here should ever run out of attempts.
const ATTEMPTS: usize = 64;

/// The two twins the sweep breaks, in its row order.
fn twins(scale: Scale) -> [(&'static str, Box<dyn ClusterTwin>); 2] {
    let mut hive = hive(WORKERS, scale);
    // Spread the reduce wave over 3 of the 4 nodes: a single slow node is
    // then a minority of the phase, so the median finish stays healthy
    // and speculation can identify its tasks as stragglers (with a 50/50
    // split the median itself is slowed and nothing looks slow by
    // comparison).
    hive.set_reduce_tasks(36);
    [
        ("Hive", Box::new(hive)),
        ("Spark", Box::new(spark(WORKERS, scale))),
    ]
}

/// One fully observed faulty run: apply the plan *before* load (so
/// replica losses land and their counters are seen), run `task`, and
/// return the makespan plus the metrics report.
fn faulty_run(
    platform: &str,
    twin: &mut dyn ClusterTwin,
    plan: &FaultPlan,
    task: Task,
    consumers: usize,
) -> (Duration, MetricsReport) {
    let ds = seed_dataset(consumers);
    let sink = MetricsSink::recording();
    let spec = RunSpec::builder(task)
        .metrics(sink.clone())
        .fault_plan(plan.clone())
        .build();
    let elapsed = twin_run(twin, &ds, DataFormat::ReadingPerLine, &spec)
        .expect("load survives the plan and the retry budget covers it");
    let manifest = RunManifest::new(task.name(), platform)
        .threads(WORKERS)
        .consumers(consumers);
    (elapsed, sink.finish(manifest))
}

/// Sum of every `faults.injected.*` counter in `report`.
fn injected(report: &MetricsReport) -> u64 {
    [
        counters::FAULTS_INJECTED_NODE_CRASH,
        counters::FAULTS_INJECTED_TASK_FAILURE,
        counters::FAULTS_INJECTED_SLOW_NODE,
        counters::FAULTS_INJECTED_REPLICA_LOSS,
    ]
    .iter()
    .filter_map(|c| report.counter(c))
    .sum()
}

/// Sum of every `faults.recovered.*` counter in `report`.
fn recovered(report: &MetricsReport) -> u64 {
    [
        counters::FAULTS_RECOVERED_NODE_CRASH,
        counters::FAULTS_RECOVERED_TASK_FAILURE,
        counters::FAULTS_RECOVERED_TASK_PANIC,
        counters::FAULTS_RECOVERED_REPLICA_LOSS,
    ]
    .iter()
    .filter_map(|c| report.counter(c))
    .sum()
}

/// The canned disaster scenarios for `chaos_scenarios`.
fn scenarios() -> Vec<(&'static str, FaultPlan)> {
    let base = FaultPlan {
        max_attempts: ATTEMPTS,
        ..FaultPlan::seeded(SEED)
    };
    vec![
        ("baseline", base.clone()),
        (
            // Crash strikes just after the first task wave is placed, so
            // running tasks are killed and rescheduled onto survivors
            // (a crash at exactly zero would only empty the node).
            "node crash mid-phase",
            FaultPlan {
                crashes: vec![NodeCrash {
                    node: 0,
                    at: Duration::from_nanos(1),
                }],
                ..base.clone()
            },
        ),
        (
            "4x straggler + speculation",
            FaultPlan {
                slow_nodes: vec![SlowNode {
                    node: 0,
                    factor: 4.0,
                }],
                speculation_threshold: 1.5,
                ..base.clone()
            },
        ),
        (
            "replica loss + re-replication",
            FaultPlan {
                replica_losses: 6,
                re_replicate: true,
                ..base
            },
        ),
    ]
}

/// Run the chaos sweep at `scale`.
pub fn run(scale: Scale) -> Vec<Table> {
    let consumers = scale.cluster_consumers_for_gb(200.0);

    let mut rates = Table::new(
        "chaos_rates",
        "Histogram under rising task-failure rates (virtual makespan)",
        &["task failure rate", "platform", "seconds", "retries"],
    );
    for rate in FAILURE_RATES {
        let plan = FaultPlan {
            task_failure_rate: rate,
            max_attempts: ATTEMPTS,
            ..FaultPlan::seeded(SEED)
        };
        for (platform, mut twin) in twins(scale) {
            let (elapsed, report) =
                faulty_run(platform, twin.as_mut(), &plan, Task::Histogram, consumers);
            rates.row(vec![
                format!("{rate}"),
                platform.to_string(),
                secs(elapsed),
                report
                    .counter(counters::TASKS_RETRIED)
                    .unwrap_or(0)
                    .to_string(),
            ]);
        }
    }

    let mut scen = Table::new(
        "chaos_scenarios",
        "Histogram under canned disaster scenarios (virtual makespan)",
        &[
            "scenario",
            "platform",
            "seconds",
            "injected",
            "recovered",
            "speculative",
        ],
    );
    for (name, plan) in scenarios() {
        for (platform, mut twin) in twins(scale) {
            let (elapsed, report) =
                faulty_run(platform, twin.as_mut(), &plan, Task::Histogram, consumers);
            scen.row(vec![
                name.to_string(),
                platform.to_string(),
                secs(elapsed),
                injected(&report).to_string(),
                recovered(&report).to_string(),
                report
                    .counter(counters::TASKS_SPECULATIVE)
                    .unwrap_or(0)
                    .to_string(),
            ]);
        }
    }

    vec![rates, scen]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "full-sweep shape test; run with --release")]
    fn chaos_tables_have_expected_shape() {
        let tables = run(Scale::smoke());
        assert_eq!(tables.len(), 2);
        let rates = &tables[0];
        assert_eq!(rates.rows.len(), FAILURE_RATES.len() * 2);
        // Rate 0 rows retry nothing; the top rate retries something on
        // at least one platform.
        for row in rates.rows.iter().take(2) {
            assert_eq!(row[3], "0", "no faults -> no retries: {row:?}");
        }
        let top: u64 = rates.rows[rates.rows.len() - 2..]
            .iter()
            .map(|r| r[3].parse::<u64>().unwrap())
            .sum();
        assert!(top > 0, "a 40% failure rate must retry somewhere");

        let scen = &tables[1];
        assert_eq!(scen.rows.len(), 4 * 2);
        let mut speculative_total = 0u64;
        for row in &scen.rows {
            let injected: u64 = row[3].parse().unwrap();
            let recovered: u64 = row[4].parse().unwrap();
            speculative_total += row[5].parse::<u64>().unwrap();
            match row[0].as_str() {
                "baseline" => assert_eq!(injected, 0, "{row:?}"),
                // Stragglers are mitigated by speculation, not retries,
                // so only the injected side is per-row guaranteed.
                "4x straggler + speculation" => {
                    assert!(injected > 0, "straggler must be seen: {row:?}")
                }
                _ => {
                    assert!(injected > 0, "scenario must inject: {row:?}");
                    assert!(recovered > 0, "scenario must recover: {row:?}");
                }
            }
        }
        assert!(speculative_total > 0, "speculation never launched a backup");
    }
}
