//! Figure 7: single-threaded cold-start runtimes of all four algorithms
//! on Matlab, MADLib and System C, dataset sizes 2–10 GB.
//!
//! As in the paper, similarity search sweeps household counts instead of
//! GB, and the Matlab/MADLib similarity curves stop early (the paper cut
//! them at 4 GB because runtimes were prohibitive).

use smda_core::Task;

use crate::data::{seed_dataset, Scratch};
use crate::experiments::{cold_run, loaded_platforms};
use crate::report::{secs, Table};
use crate::scale::Scale;

/// Nominal sweep sizes in GB.
pub const SIZES_GB: [f64; 5] = [2.0, 4.0, 6.0, 8.0, 10.0];

/// Regenerate Figure 7 (one table per sub-figure).
pub fn run(scale: Scale) -> Vec<Table> {
    let mut tables = Vec::new();
    for task in [Task::ThreeLine, Task::Par, Task::Histogram] {
        let mut t = Table::new(
            format!("fig7{}", sub_letter(task)),
            format!("Single-threaded execution time, {task}"),
            &["nominal_gb", "platform", "seconds"],
        );
        for gb in SIZES_GB {
            let ds = seed_dataset(scale.consumers_for_gb(gb));
            let scratch = Scratch::new("fig7");
            for engine in &mut loaded_platforms(&scratch, &ds) {
                let d = cold_run(engine.as_mut(), task, 1);
                t.row(vec![format!("{gb}"), engine.name().into(), secs(d)]);
            }
        }
        tables.push(t);
    }

    // Similarity: household-count sweep; Matlab and MADLib stop at the
    // 4 GB-equivalent (~10,900 households nominal).
    let mut t = Table::new(
        "fig7d",
        "Single-threaded execution time, Similarity",
        &["nominal_households", "platform", "seconds"],
    );
    for nominal in [5_500usize, 10_900, 16_400, 21_800, 27_300] {
        let ds = seed_dataset(scale.consumers_for_households(nominal));
        let scratch = Scratch::new("fig7d");
        for engine in &mut loaded_platforms(&scratch, &ds) {
            let is_slow_platform = engine.name() != "System C";
            if is_slow_platform && nominal > 10_900 {
                continue; // prohibitively slow in the paper
            }
            let d = cold_run(engine.as_mut(), Task::Similarity, 1);
            t.row(vec![nominal.to_string(), engine.name().into(), secs(d)]);
        }
    }
    tables.push(t);
    tables
}

fn sub_letter(task: Task) -> char {
    match task {
        Task::ThreeLine => 'a',
        Task::Par => 'b',
        Task::Histogram => 'c',
        Task::Similarity => 'd',
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg_attr(debug_assertions, ignore = "full-sweep shape test; run with --release")]
    #[test]
    fn sweeps_cover_all_platforms_and_sizes() {
        let tables = run(Scale::smoke());
        assert_eq!(tables.len(), 4);
        assert_eq!(tables[0].rows.len(), SIZES_GB.len() * 3);
        // Similarity table: System C everywhere, others only at ≤2 sizes.
        let sim = &tables[3];
        let c_rows = sim.rows.iter().filter(|r| r[1] == "System C").count();
        let m_rows = sim.rows.iter().filter(|r| r[1] == "Matlab").count();
        assert_eq!(c_rows, 5);
        assert_eq!(m_rows, 2);
    }

    #[cfg_attr(debug_assertions, ignore = "full-sweep shape test; run with --release")]
    #[test]
    fn runtime_grows_with_size_for_system_c() {
        let tables = run(Scale::smoke());
        let t = &tables[0]; // 3-line
        let at = |gb: &str| t.value(&[gb, "System C"]);
        assert!(
            at("10") > at("2") * 0.8,
            "10GB {} vs 2GB {}",
            at("10"),
            at("2")
        );
    }
}
