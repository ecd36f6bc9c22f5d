//! Figures 16–17: Spark vs Hive under **format 2** (one consumer per
//! line): map-only jobs — lower runtimes and better speedup than
//! format 1.

use smda_types::DataFormat;

use crate::experiments::format1::format_sweep;
use crate::report::Table;
use crate::scale::Scale;

/// Regenerate Figures 16 (times) and 17 (speedup).
pub fn run(scale: Scale) -> Vec<Table> {
    format_sweep(scale, DataFormat::ConsumerPerLine, "fig16", "fig17", None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::format1;

    #[cfg_attr(debug_assertions, ignore = "full-sweep shape test; run with --release")]
    #[test]
    fn produces_time_and_speedup_tables() {
        let tables = run(Scale::smoke());
        assert_eq!(tables.len(), 8);
        assert!(tables.iter().any(|t| t.id == "fig16a"));
        assert!(tables.iter().any(|t| t.id == "fig17d"));
    }

    #[cfg_attr(debug_assertions, ignore = "full-sweep shape test; run with --release")]
    #[test]
    fn format2_is_faster_than_format1_for_par() {
        // The Section 5.4.2 headline: map-only jobs (format 2) beat the
        // shuffle-bound format 1 runs.
        let scale = Scale::smoke();
        let f2 = run(scale);
        let f1 = format1::run(scale);
        let last = |tables: &[Table], id: &str| -> f64 {
            let t = tables.iter().find(|t| t.id == id).unwrap();
            t.rows
                .iter()
                .rfind(|r| r[1] == "Hive")
                .map(|r| r[2].parse().unwrap())
                .expect("row present")
        };
        let f1_par = last(&f1, "fig13b");
        let f2_par = last(&f2, "fig16b");
        assert!(f2_par < f1_par, "format2 {f2_par} vs format1 {f1_par}");
    }
}
