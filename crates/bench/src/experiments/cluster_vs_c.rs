//! Figures 11 and 12: System C (one server) vs Spark and Hive (16-worker
//! cluster) on large synthetic datasets.
//!
//! System C runs really on this machine (8 workers, as the paper's
//! 8-hyperthread server); Spark and Hive run their jobs really but are
//! clocked by the cluster simulator. Figure 12 normalizes to throughput
//! per server (households/s/server), the paper's efficiency argument.

use std::time::Duration;

use smda_core::Task;
use smda_engines::{ColumnarEngine, Platform, RunSpec};
use smda_types::DataFormat;

use crate::data::{synthetic_dataset, Scratch};
use crate::experiments::{cold_run, twin_run, twins};
use crate::report::{secs, Table};
use crate::scale::Scale;

/// Nominal sweep sizes in GB.
pub const SIZES_GB: [f64; 4] = [25.0, 50.0, 75.0, 100.0];
/// Nominal similarity household counts (paper: 6k–32k).
pub const SIM_HOUSEHOLDS: [usize; 4] = [6_000, 12_000, 24_000, 32_000];
/// Cluster worker count.
pub const WORKERS: usize = 16;

struct Measured {
    platform: &'static str,
    elapsed: Duration,
    servers: usize,
}

fn measure_all(scale: Scale, consumers: usize, task: Task) -> Vec<Measured> {
    let ds = synthetic_dataset(consumers);
    let mut out = Vec::new();

    let scratch = Scratch::new("fig11");
    let mut c = ColumnarEngine::new(scratch.path("systemc"));
    c.load(&ds).expect("column load succeeds");
    out.push(Measured {
        platform: "System C",
        elapsed: cold_run(&mut c, task, 8),
        servers: 1,
    });

    let spec = RunSpec::builder(task).build();
    for (platform, mut twin) in twins(WORKERS, scale) {
        out.push(Measured {
            platform,
            elapsed: twin_run(twin.as_mut(), &ds, DataFormat::ConsumerPerLine, &spec)
                .expect("twin run succeeds"),
            servers: WORKERS,
        });
    }
    out
}

/// Regenerate Figures 11 (runtimes) and 12 (throughput per server).
pub fn run(scale: Scale) -> Vec<Table> {
    let mut fig11 = Vec::new();
    for (letter, task) in [
        ('a', Task::ThreeLine),
        ('b', Task::Par),
        ('c', Task::Histogram),
    ] {
        let mut t = Table::new(
            format!("fig11{letter}"),
            format!("{task}: System C (1 server) vs Spark/Hive ({WORKERS} workers)"),
            &["nominal_gb", "platform", "seconds"],
        );
        for gb in SIZES_GB {
            let consumers = scale.cluster_consumers_for_gb(gb);
            for m in measure_all(scale, consumers, task) {
                t.row(vec![format!("{gb}"), m.platform.into(), secs(m.elapsed)]);
            }
        }
        fig11.push(t);
    }
    let mut t11d = Table::new(
        "fig11d",
        "Similarity: System C (1 server) vs Spark/Hive (16 workers)",
        &["nominal_households", "platform", "seconds"],
    );
    for households in SIM_HOUSEHOLDS {
        let consumers = scale.cluster_consumers_for_households(households);
        for m in measure_all(scale, consumers, Task::Similarity) {
            t11d.row(vec![
                households.to_string(),
                m.platform.into(),
                secs(m.elapsed),
            ]);
        }
    }
    fig11.push(t11d);

    // Figure 12: throughput per server at the largest sizes.
    let mut t12a = Table::new(
        "fig12a",
        "Throughput per server, 100 GB (nominal): households/s/server",
        &["task", "platform", "households_per_s_per_server"],
    );
    let consumers = scale.cluster_consumers_for_gb(100.0);
    for task in [Task::ThreeLine, Task::Par, Task::Histogram] {
        for m in measure_all(scale, consumers, task) {
            let rate = consumers as f64 / m.elapsed.as_secs_f64().max(1e-9) / m.servers as f64;
            t12a.row(vec![
                task.name().into(),
                m.platform.into(),
                format!("{rate:.1}"),
            ]);
        }
    }
    let mut t12b = Table::new(
        "fig12b",
        "Similarity throughput per server, 32k (nominal) households",
        &["platform", "households_per_s_per_server"],
    );
    let consumers = scale.cluster_consumers_for_households(32_000);
    for m in measure_all(scale, consumers, Task::Similarity) {
        let rate = consumers as f64 / m.elapsed.as_secs_f64().max(1e-9) / m.servers as f64;
        t12b.row(vec![m.platform.into(), format!("{rate:.1}")]);
    }
    fig11.push(t12a);
    fig11.push(t12b);
    fig11
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg_attr(debug_assertions, ignore = "full-sweep shape test; run with --release")]
    #[test]
    fn produces_all_series() {
        let tables = run(Scale::smoke());
        assert_eq!(tables.len(), 6);
        // fig11a: 4 sizes × 3 platforms.
        assert_eq!(tables[0].rows.len(), SIZES_GB.len() * 3);
        // fig12a: 3 tasks × 3 platforms.
        assert_eq!(tables[4].rows.len(), 9);
    }

    #[cfg_attr(debug_assertions, ignore = "full-sweep shape test; run with --release")]
    #[test]
    fn system_c_efficiency_beats_cluster_per_server_on_histogram() {
        // Figure 12a's headline: on the simple histogram task, System C's
        // per-server throughput exceeds the cluster platforms'.
        let tables = run(Scale::smoke());
        let t12a = &tables[4];
        let rate = |platform: &str| t12a.value(&["Histogram", platform]);
        assert!(rate("System C") > rate("Hive"));
    }
}
