//! PR 8 extension: the SIMD dispatch sweep.
//!
//! Runs the tiled symmetric top-k kernel over the same seeded data once
//! under every dispatch tier this machine runs — the scalar reference
//! first, then AVX2, then AVX-512 with its 8 × 4 `zmm` register blocks
//! (a tier the hardware lacks is skipped, not measured twice) — and once
//! more as the fused normalize+score kernel over raw rows (the kernel's
//! `scaling` argument) under the dispatched tier, and reports wall time,
//! effective MFLOP/s, and the worst relative score error against the
//! scalar run. The tier rows are asserted bit-identical (lane tier); the
//! fused variant is asserted within `FUSED_REL_TOL` with the same top-k
//! indices (tolerance tier).

use std::time::Instant;

use smda_core::SIMILARITY_TOP_K;
use smda_engines::parallel::top_k_matrix_with;
use smda_obs::MetricsSink;
use smda_stats::{
    top_k_tiled, under_every_tier, KernelDispatch, SeriesMatrix, SimilarityMatch, TileConfig,
    FUSED_REL_TOL,
};

use crate::data::seed_dataset;
use crate::report::Table;
use crate::scale::Scale;

/// Nominal household counts swept (scaled down by `Scale::divisor`).
pub const HOUSEHOLDS: [usize; 3] = [1_600, 3_200, 6_400];

fn max_rel_err(reference: &[Vec<SimilarityMatch>], other: &[Vec<SimilarityMatch>]) -> f64 {
    let mut worst = 0.0f64;
    for (a, b) in reference.iter().zip(other) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.index, y.index, "variants picked different top-k indices");
            worst = worst.max((x.score - y.score).abs() / x.score.abs().max(1.0));
        }
    }
    worst
}

/// Sweep the dispatch variants over seed datasets of growing size.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "simd_sweep",
        "Similarity kernel dispatch: scalar reference vs every lane-preserving tier vs fused",
        &["households", "variant", "time_ms", "mflops", "max_rel_err"],
    );
    let cfg = TileConfig::current();
    let mut push =
        |nominal: usize, variant: &str, secs: f64, pairs: u64, stride: usize, err: f64| {
            let mflops = pairs as f64 * 2.0 * stride as f64 / secs.max(1e-9) / 1e6;
            t.row(vec![
                nominal.to_string(),
                variant.into(),
                format!("{:.3}", secs * 1e3),
                format!("{mflops:.0}"),
                format!("{err:.2e}"),
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
            push(nominal, tier.label(), secs, stats.pairs_scored, stride, 0.0);
            match &scalar {
                Some(scalar) => assert_eq!(*scalar, matches, "the {tier:?} tier changed bits"),
                None => scalar = Some(matches),
            }
        });
        // The scalar tier runs on every machine.
        let scalar = scalar.unwrap_or_default();

        // Fused normalize+score over raw rows, under the dispatched
        // tier: tolerance tier.
        let label = KernelDispatch::current().tier.label();
        let raw = SeriesMatrix::from_rows_raw(&series);
        let inv = raw.inverse_norms();
        let start = Instant::now();
        let (fused, fstats) = top_k_matrix_with(
            &raw,
            Some(&inv),
            SIMILARITY_TOP_K,
            1,
            &MetricsSink::disabled(),
        );
        let fused_secs = start.elapsed().as_secs_f64();
        let err = max_rel_err(&scalar, &fused);
        assert!(
            err <= FUSED_REL_TOL,
            "fused kernel drifted past tolerance: {err:e}"
        );
        push(
            nominal,
            &format!("{label}+fused"),
            fused_secs,
            fstats.pairs_scored,
            stride,
            err,
        );
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
        // One row per tier this machine runs, then the fused one.
        let mut tiers = Vec::new();
        under_every_tier(|tier| tiers.push(tier.label()));
        assert_eq!(tiers[0], "scalar");
        let variants = tiers.len() + 1;
        assert_eq!(t.rows.len(), HOUSEHOLDS.len() * variants);
        for rows in t.rows.chunks(variants) {
            let (fused, exact) = rows.split_last().expect("a fused row per size");
            // The tier rows are exact; the fused row stays inside the
            // documented tolerance.
            for (row, tier) in exact.iter().zip(&tiers) {
                assert_eq!(row[1], *tier);
                assert_eq!(row[4].parse::<f64>().unwrap(), 0.0);
            }
            assert!(fused[1].ends_with("+fused"));
            assert!(fused[4].parse::<f64>().unwrap() <= FUSED_REL_TOL);
            for row in rows {
                assert!(row[2].parse::<f64>().unwrap() >= 0.0);
                assert!(row[3].parse::<f64>().unwrap() >= 0.0);
            }
        }
    }
}
