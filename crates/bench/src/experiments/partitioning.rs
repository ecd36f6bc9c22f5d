//! Figure 5: impact of file partitioning on Matlab's 3-line runtime,
//! dataset sizes 0.5–2 GB.
//!
//! Partitioned (one file per consumer) Matlab streams small files;
//! unpartitioned Matlab must parse and index the whole big file first.

use smda_core::Task;
use smda_engines::{NumericEngine, Platform};
use smda_storage::FileLayout;

use crate::data::{seed_dataset, Scratch};
use crate::experiments::cold_run;
use crate::report::{secs, Table};
use crate::scale::Scale;

/// Nominal sweep sizes in GB (the paper's x-axis).
pub const SIZES_GB: [f64; 4] = [0.5, 1.0, 1.5, 2.0];

/// Regenerate Figure 5.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "fig5",
        "Impact of data partitioning on analytics, 3-line algorithm (Matlab)",
        &["nominal_gb", "layout", "seconds"],
    );
    for gb in SIZES_GB {
        let ds = seed_dataset(scale.consumers_for_gb(gb));
        for layout in [FileLayout::Unpartitioned, FileLayout::Partitioned] {
            let scratch = Scratch::new("fig5");
            let mut engine = NumericEngine::new(scratch.path("matlab"), layout);
            engine.load(&ds).expect("load succeeds");
            let d = cold_run(&mut engine, Task::ThreeLine, 1);
            t.row(vec![format!("{gb}"), layout.label().into(), secs(d)]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg_attr(debug_assertions, ignore = "full-sweep shape test; run with --release")]
    #[test]
    fn partitioned_is_faster_at_the_largest_size() {
        let tables = run(Scale::smoke());
        let t = &tables[0];
        assert_eq!(t.rows.len(), SIZES_GB.len() * 2);
        let at = |gb: &str, layout: &str| t.value(&[gb, layout]);
        // The Figure 5 shape: un-partitioned grows faster with size.
        assert!(at("2", "un-part.") >= at("2", "part."));
    }
}
