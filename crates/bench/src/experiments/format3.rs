//! Figures 18–19: **format 3** (many whole-household files): Hive with a
//! UDTF (map-only, custom non-splittable input format) vs Hive with a
//! UDAF (reduce required) vs Spark, sweeping the number of files; plus
//! the speedup figure at 100 files.
//!
//! The paper's observations reproduced here: Hive-UDTF wins (no reduce),
//! Hive is insensitive to the file count, Spark degrades as files grow
//! and eventually fails with "too many open files".

use smda_core::Task;
use smda_engines::{ClusterTwin, RunSpec};
use smda_types::DataFormat;

use crate::data::synthetic_dataset;
use crate::experiments::{hive, spark, twin_run};
use crate::report::{secs, Table};
use crate::scale::Scale;

/// File counts swept (the paper went 10 → 10,000, and found Spark not
/// runnable at 100,000).
pub const FILE_COUNTS: [usize; 4] = [10, 100, 1_000, 10_000];
/// Node counts for Figure 19.
pub const NODES: [usize; 4] = [4, 8, 12, 16];
/// The three per-consumer tasks (similarity is excluded in the paper:
/// pairwise distances cannot be one UDTF pass).
pub const TASKS: [(char, Task); 3] = [
    ('a', Task::ThreeLine),
    ('b', Task::Par),
    ('c', Task::Histogram),
];

/// Figure 18's three variants on `workers` nodes, in its row order.
/// Figure 19 plots the two map-only ones.
fn variants(workers: usize, scale: Scale) -> [(&'static str, Box<dyn ClusterTwin>); 3] {
    let mut udaf = hive(workers, scale);
    udaf.force_udaf = true;
    [
        ("Hive-UDTF", Box::new(hive(workers, scale))),
        ("Hive-UDAF", Box::new(udaf)),
        ("Spark", Box::new(spark(workers, scale))),
    ]
}

/// Regenerate Figure 18 (times vs file count) and Figure 19 (speedup at
/// 100 files).
pub fn run(scale: Scale) -> Vec<Table> {
    let consumers = scale.cluster_consumers_for_gb(100.0);
    let ds = synthetic_dataset(consumers);
    let mut tables = Vec::new();

    for (letter, task) in TASKS {
        let mut t = Table::new(
            format!("fig18{letter}"),
            format!("{task} on format 3, 100 GB (nominal), varying file count"),
            &["files", "variant", "seconds"],
        );
        let spec = RunSpec::builder(task).build();
        for files in FILE_COUNTS {
            // A household cannot span files; cap at one household/file.
            let files = files.min(consumers);
            for (variant, mut twin) in variants(16, scale) {
                let format = DataFormat::ManyFiles { files };
                // Spark's "too many open files" is reported, not fatal.
                let cell = match twin_run(twin.as_mut(), &ds, format, &spec) {
                    Ok(elapsed) => secs(elapsed),
                    Err(e) => format!("failed: {e}"),
                };
                t.row(vec![files.to_string(), variant.into(), cell]);
            }
        }
        tables.push(t);
    }

    // Figure 19: speedup at 100 files.
    let format = DataFormat::ManyFiles {
        files: 100.min(consumers),
    };
    for (letter, task) in TASKS {
        let mut t = Table::new(
            format!("fig19{letter}"),
            format!("{task} speedup on format 3, 100 files (relative to 4 nodes)"),
            &["workers", "variant", "speedup"],
        );
        let spec = RunSpec::builder(task).build();
        let mut bases = [0.0; 2];
        for workers in NODES {
            let map_only = variants(workers, scale)
                .into_iter()
                .filter(|(variant, _)| *variant != "Hive-UDAF");
            for (base, (variant, mut twin)) in bases.iter_mut().zip(map_only) {
                let elapsed =
                    twin_run(twin.as_mut(), &ds, format, &spec).expect("twin run succeeds");
                let s = elapsed.as_secs_f64().max(1e-9);
                if workers == NODES[0] {
                    *base = s;
                }
                t.row(vec![
                    workers.to_string(),
                    variant.into(),
                    format!("{:.2}", *base / s),
                ]);
            }
        }
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg_attr(debug_assertions, ignore = "full-sweep shape test; run with --release")]
    #[test]
    fn produces_all_tables() {
        let tables = run(Scale::smoke());
        assert_eq!(tables.len(), 6);
        assert!(tables.iter().any(|t| t.id == "fig18a"));
        assert!(tables.iter().any(|t| t.id == "fig19c"));
    }

    #[cfg_attr(debug_assertions, ignore = "full-sweep shape test; run with --release")]
    #[test]
    fn udtf_beats_udaf() {
        // Figure 18's headline: the map-only UDTF wins over the
        // reduce-full UDAF.
        let tables = run(Scale::smoke());
        let t = tables.iter().find(|t| t.id == "fig18c").unwrap();
        let first_files = t.rows[0][0].clone();
        let at = |variant: &str| t.value(&[&first_files, variant]);
        assert!(at("Hive-UDTF") < at("Hive-UDAF"));
    }
}
