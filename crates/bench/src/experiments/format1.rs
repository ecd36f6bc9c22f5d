//! Figures 13–15: Spark vs Hive under **format 1** (one reading per
//! line): execution times up to a nominal Terabyte, speedup from 4 to 16
//! worker nodes, and memory consumption.

use smda_core::Task;
use smda_engines::RunSpec;
use smda_types::DataFormat;

use crate::alloc::measure_peak;
use crate::data::synthetic_dataset;
use crate::experiments::{twin_run, twins};
use crate::report::{mib, secs, Table};
use crate::scale::Scale;

/// Nominal sweep sizes in GB (up to 1 TB).
pub const SIZES_GB: [f64; 4] = [250.0, 500.0, 750.0, 1000.0];
/// Node counts for the speedup figures.
pub const NODES: [usize; 4] = [4, 8, 12, 16];
/// All four tasks with their sub-figure letters.
pub const TASKS: [(char, Task); 4] = [
    ('a', Task::ThreeLine),
    ('b', Task::Par),
    ('c', Task::Histogram),
    ('d', Task::Similarity),
];

pub(crate) fn format_sweep(
    scale: Scale,
    format: DataFormat,
    fig_times: &str,
    fig_speedup: &str,
    fig_memory: Option<&str>,
) -> Vec<Table> {
    let mut tables = Vec::new();

    // Execution times and (optionally) memory across sizes.
    let mut mem_tables: Vec<Table> = Vec::new();
    for (letter, task) in TASKS {
        let mut t = Table::new(
            format!("{fig_times}{letter}"),
            format!(
                "{task} on {} data, Spark vs Hive, 16 workers",
                format.label()
            ),
            &["nominal_gb", "platform", "seconds"],
        );
        let mut m = fig_memory.map(|id| {
            Table::new(
                format!("{id}{letter}"),
                format!(
                    "Memory during {task}, {} data (peak heap, MiB)",
                    format.label()
                ),
                &["nominal_gb", "platform", "peak_mib"],
            )
        });
        let spec = RunSpec::builder(task).build();
        for gb in SIZES_GB {
            let ds = synthetic_dataset(scale.cluster_consumers_for_gb(gb));
            for (platform, mut twin) in twins(16, scale) {
                twin.load_observed(&ds, format, &spec)
                    .expect("twin load succeeds");
                let (r, peak) = measure_peak(|| twin.run(&spec).expect("twin run succeeds"));
                t.row(vec![format!("{gb}"), platform.into(), secs(r.elapsed)]);
                if let Some(m) = m.as_mut() {
                    m.row(vec![format!("{gb}"), platform.into(), mib(peak as u64)]);
                }
            }
        }
        tables.push(t);
        if let Some(m) = m {
            mem_tables.push(m);
        }
    }

    // Speedup across worker counts at the largest size (similarity at
    // the paper's 64k households).
    for (letter, task) in TASKS {
        let mut t = Table::new(
            format!("{fig_speedup}{letter}"),
            format!(
                "{task} speedup vs workers, {} data (relative to 4 nodes)",
                format.label()
            ),
            &["workers", "platform", "speedup"],
        );
        let consumers = if task == Task::Similarity {
            scale.cluster_consumers_for_households(64_000)
        } else {
            scale.cluster_consumers_for_gb(1000.0)
        };
        let ds = synthetic_dataset(consumers);
        let spec = RunSpec::builder(task).build();
        let mut bases = [0.0; 2];
        for workers in NODES {
            for (base, (platform, mut twin)) in bases.iter_mut().zip(twins(workers, scale)) {
                let elapsed =
                    twin_run(twin.as_mut(), &ds, format, &spec).expect("twin run succeeds");
                let s = elapsed.as_secs_f64().max(1e-9);
                if workers == NODES[0] {
                    *base = s;
                }
                t.row(vec![
                    workers.to_string(),
                    platform.into(),
                    format!("{:.2}", *base / s),
                ]);
            }
        }
        tables.push(t);
    }

    tables.extend(mem_tables);
    tables
}

/// Regenerate Figures 13 (times), 14 (speedup) and 15 (memory).
pub fn run(scale: Scale) -> Vec<Table> {
    format_sweep(
        scale,
        DataFormat::ReadingPerLine,
        "fig13",
        "fig14",
        Some("fig15"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg_attr(debug_assertions, ignore = "full-sweep shape test; run with --release")]
    #[test]
    fn produces_time_speedup_and_memory_tables() {
        let tables = run(Scale::smoke());
        // 4 time + 4 speedup + 4 memory.
        assert_eq!(tables.len(), 12);
        assert!(tables.iter().any(|t| t.id == "fig13a"));
        assert!(tables.iter().any(|t| t.id == "fig14d"));
        assert!(tables.iter().any(|t| t.id == "fig15b"));
    }

    #[cfg_attr(debug_assertions, ignore = "full-sweep shape test; run with --release")]
    #[test]
    fn speedup_improves_with_workers() {
        let tables = run(Scale::smoke());
        let t = tables.iter().find(|t| t.id == "fig14c").unwrap();
        assert!(t.value(&["16", "Hive"]) > t.value(&["4", "Hive"]));
        assert!(t.value(&["16", "Spark"]) > t.value(&["4", "Spark"]));
    }

    #[cfg_attr(debug_assertions, ignore = "full-sweep shape test; run with --release")]
    #[test]
    fn spark_beats_hive_on_similarity() {
        // Figure 13d's headline: the broadcast join beats the self-join.
        let tables = run(Scale::smoke());
        let t = tables.iter().find(|t| t.id == "fig13d").unwrap();
        let gb = format!("{}", SIZES_GB[SIZES_GB.len() - 1]);
        let at = |platform: &str| t.value(&[&gb, platform]);
        assert!(
            at("Spark") < at("Hive"),
            "spark {} vs hive {}",
            at("Spark"),
            at("Hive")
        );
    }
}
