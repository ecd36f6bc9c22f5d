//! Figure 9 / Section 5.3.3: the effect of the PostgreSQL table layout.
//!
//! The paper's numbers on the full 10 GB set: 3-line 19.6 → 11.3 min,
//! PAR 34.9 → 30 min, histogram 7.8 → 6.8 min moving from one-reading-
//! per-row to the array layout, with the one-row-per-day layout landing
//! in between. We reproduce the ordering at reduced scale.

use smda_core::Task;
use smda_engines::{Platform, RelationalEngine, RelationalLayout};

use crate::data::{seed_dataset, Scratch};
use crate::experiments::cold_run;
use crate::report::{secs, Table};
use crate::scale::Scale;

/// Regenerate Figure 9's runtime comparison.
pub fn run(scale: Scale) -> Vec<Table> {
    let ds = seed_dataset(scale.consumers_for_gb(10.0));
    // The paper ran similarity on a 2 GB subset (6,400 households).
    let sim_ds = seed_dataset(scale.consumers_for_households(6_400));
    let mut t = Table::new(
        "fig9",
        "PostgreSQL table layouts: one-reading-per-row vs arrays vs one-day-per-row",
        &["task", "layout", "seconds"],
    );
    for layout in [
        RelationalLayout::ReadingPerRow,
        RelationalLayout::DayPerRow,
        RelationalLayout::ArrayPerConsumer,
    ] {
        let scratch = Scratch::new("fig9");
        let mut engine = RelationalEngine::new(scratch.path("madlib"), layout);
        engine.load(&ds).expect("load succeeds");
        for task in [Task::ThreeLine, Task::Par, Task::Histogram] {
            let d = cold_run(&mut engine, task, 1);
            t.row(vec![task.name().into(), layout.label().into(), secs(d)]);
        }
        let mut engine = RelationalEngine::new(scratch.path("madlib-sim"), layout);
        engine.load(&sim_ds).expect("load succeeds");
        let d = cold_run(&mut engine, Task::Similarity, 1);
        t.row(vec![
            Task::Similarity.name().into(),
            layout.label().into(),
            secs(d),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg_attr(debug_assertions, ignore = "full-sweep shape test; run with --release")]
    #[test]
    fn array_layout_beats_row_layout_on_three_line() {
        let tables = run(Scale::smoke());
        let t = &tables[0];
        assert_eq!(t.rows.len(), 4 * 3);
        let at = |task: &str, layout: &str| t.value(&[task, layout]);
        // The Figure 9 headline: arrays are faster than per-reading rows.
        assert!(
            at("3-line", "array") < at("3-line", "row"),
            "array {} vs row {}",
            at("3-line", "array"),
            at("3-line", "row")
        );
    }
}
