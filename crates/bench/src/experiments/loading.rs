//! Figure 4: data loading times, 10 GB real dataset, partitioned vs
//! unpartitioned, for Matlab / MADLib / System C.
//!
//! Matlab performs no load — its single bar is the time to split the
//! data into per-consumer files. MADLib and System C are measured both
//! from one big CSV (bulk load) and from many small files (the
//! partitioned load includes reading them back one by one).

use std::time::{Duration, Instant};

use smda_engines::{ColumnarEngine, Platform, RelationalEngine, RelationalLayout};
use smda_storage::{FileLayout, FileStore};
use smda_types::Dataset;

use crate::data::{seed_dataset, Scratch};
use crate::report::{secs, Table};
use crate::scale::Scale;

fn load_via_files(
    scratch: &Scratch,
    ds: &Dataset,
    layout: FileLayout,
    tag: &str,
    mut engine: impl Platform,
) -> Duration {
    // Materialize the source files, then time read-back + engine load —
    // the "load the 10 GB dataset into the system" cost.
    let src = scratch.path(&format!("src-{tag}-{}", layout.label().replace('.', "")));
    let store = FileStore::create(&src, ds, layout).expect("source store is writable");
    let start = Instant::now();
    let read = store.read_all().expect("source store is readable");
    engine.load(&read).expect("engine load succeeds");
    start.elapsed()
}

/// Regenerate Figure 4.
pub fn run(scale: Scale) -> Vec<Table> {
    let ds = seed_dataset(scale.consumers_for_gb(10.0));
    let scratch = Scratch::new("fig4");
    let mut t = Table::new(
        "fig4",
        "Data loading times, 10 GB (nominal) real dataset",
        &["platform", "layout", "seconds"],
    );

    // Matlab: the cost of splitting into per-consumer files.
    let start = Instant::now();
    FileStore::create(scratch.path("matlab"), &ds, FileLayout::Partitioned)
        .expect("file store is writable");
    t.row(vec!["Matlab".into(), "part.".into(), secs(start.elapsed())]);

    for layout in [FileLayout::Partitioned, FileLayout::Unpartitioned] {
        let d = load_via_files(
            &scratch,
            &ds,
            layout,
            "madlib",
            RelationalEngine::new(scratch.path("madlib"), RelationalLayout::ReadingPerRow),
        );
        t.row(vec!["MADLib".into(), layout.label().into(), secs(d)]);
    }
    for layout in [FileLayout::Partitioned, FileLayout::Unpartitioned] {
        let d = load_via_files(
            &scratch,
            &ds,
            layout,
            "systemc",
            ColumnarEngine::new(scratch.path("systemc")),
        );
        t.row(vec!["System C".into(), layout.label().into(), secs(d)]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg_attr(debug_assertions, ignore = "full-sweep shape test; run with --release")]
    #[test]
    fn produces_five_bars() {
        let tables = run(Scale::smoke());
        let t = &tables[0];
        assert_eq!(t.rows.len(), 5);
        // Every duration parses and is positive.
        for row in &t.rows {
            let s: f64 = row[2].parse().unwrap();
            assert!(s >= 0.0);
        }
    }

    #[cfg_attr(debug_assertions, ignore = "full-sweep shape test; run with --release")]
    #[test]
    fn madlib_load_is_slowest_platform() {
        // The paper's headline: PostgreSQL loading is the slowest of the
        // three (tuple construction + index build).
        let tables = run(Scale::smoke());
        let t = &tables[0];
        let time = |platform: &str, layout: &str| t.value(&[platform, layout]);
        assert!(time("MADLib", "un-part.") > time("System C", "un-part."));
    }
}
