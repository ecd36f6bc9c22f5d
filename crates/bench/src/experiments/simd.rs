//! PR 8 extension: the SIMD dispatch sweep.
//!
//! Runs the tiled symmetric top-k kernel over the same seeded data once
//! under every dispatch tier this machine runs — the scalar reference
//! first, then AVX2, then AVX-512 with its 8 × 4 `zmm` register blocks
//! (a tier the hardware lacks is skipped, not measured twice) — and
//! reports wall time and effective MFLOP/s. Every tier's matches are
//! asserted bit-identical to the scalar run's.

use std::time::Instant;

use smda_core::SIMILARITY_TOP_K;
use smda_stats::{top_k_tiled, under_every_tier, SeriesMatrix, SimilarityMatch, TileConfig};

use crate::data::seed_dataset;
use crate::report::Table;
use crate::scale::Scale;

/// Nominal household counts swept (scaled down by `Scale::divisor`).
pub const HOUSEHOLDS: [usize; 3] = [1_600, 3_200, 6_400];

/// Sweep the dispatch variants over seed datasets of growing size.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "simd_sweep",
        "Similarity kernel dispatch: scalar reference vs every lane-preserving tier",
        &["households", "variant", "time_ms", "mflops"],
    );
    let cfg = TileConfig::current();
    let mut push = |nominal: usize, variant: &str, secs: f64, pairs: u64, stride: usize| {
        let mflops = pairs as f64 * 2.0 * stride as f64 / secs.max(1e-9) / 1e6;
        t.row(vec![
            nominal.to_string(),
            variant.into(),
            format!("{:.3}", secs * 1e3),
            format!("{mflops:.0}"),
        ]);
    };
    for nominal in HOUSEHOLDS {
        let ds = seed_dataset(scale.consumers_for_households(nominal));
        let series: Vec<Vec<f64>> = ds
            .consumers()
            .iter()
            .map(|c| c.readings().to_vec())
            .collect();
        let stride = series.first().map(Vec::len).unwrap_or(0);
        let matrix = SeriesMatrix::from_rows_normalized(&series);

        // One row per tier, the scalar reference — the fixed-order
        // kernels, dispatch forced off — first; the rest bit-identical.
        let mut scalar: Option<Vec<Vec<SimilarityMatch>>> = None;
        under_every_tier(|tier| {
            let start = Instant::now();
            let (matches, stats) = top_k_tiled(&matrix, SIMILARITY_TOP_K, &cfg);
            let secs = start.elapsed().as_secs_f64();
            push(nominal, tier.label(), secs, stats.pairs_scored, stride);
            match &scalar {
                Some(scalar) => assert_eq!(*scalar, matches, "the {tier:?} tier changed bits"),
                None => scalar = Some(matches),
            }
        });
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_size_and_variant() {
        let tables = run(Scale::smoke());
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        // One row per tier this machine runs; `run` asserted each exact.
        let mut tiers = Vec::new();
        under_every_tier(|tier| tiers.push(tier.label()));
        assert_eq!(tiers[0], "scalar");
        assert_eq!(t.rows.len(), HOUSEHOLDS.len() * tiers.len());
        for rows in t.rows.chunks(tiers.len()) {
            for (row, tier) in rows.iter().zip(&tiers) {
                assert_eq!(row[1], *tier);
                assert!(row[2].parse::<f64>().unwrap() >= 0.0);
                assert!(row[3].parse::<f64>().unwrap() >= 0.0);
            }
        }
    }
}
