//! PR 8 extension: the SIMD dispatch sweep.
//!
//! Runs the tiled symmetric top-k kernel over the same seeded data three
//! ways — scalar reference (SIMD tier forced off), lane-preserving AVX2
//! dispatch, and the fused normalize+score kernel over raw rows (the
//! kernel's `scaling` argument) — and reports wall time, effective
//! MFLOP/s, and the worst relative score error against the scalar run.
//! The first two are asserted bit-identical (lane tier); the fused
//! variant is asserted within `FUSED_REL_TOL` with the same top-k
//! indices (tolerance tier). On machines without AVX2 the dispatch rows
//! measure the same scalar kernel — the table then shows the dispatch
//! overhead is nil.

use std::time::Instant;

use smda_core::SIMILARITY_TOP_K;
use smda_engines::parallel::top_k_matrix_with;
use smda_obs::MetricsSink;
use smda_stats::{top_k_tiled, SeriesMatrix, SimdTier, SimilarityMatch, TileConfig, FUSED_REL_TOL};

use crate::data::seed_dataset;
use crate::report::Table;
use crate::scale::Scale;

/// Nominal household counts swept (scaled down by `Scale::divisor`).
pub const HOUSEHOLDS: [usize; 3] = [1_600, 3_200, 6_400];

/// Variants measured per size.
pub const VARIANTS: usize = 3;

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

/// Sweep the three dispatch variants over seed datasets of growing size.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "simd_sweep",
        "Similarity kernel dispatch: scalar reference vs lane-preserving AVX2 vs fused",
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

        // Scalar reference: the fixed-order kernels, dispatch forced off.
        let prev = smda_stats::force_tier(SimdTier::Scalar);
        let start = Instant::now();
        let (scalar, stats) = top_k_tiled(&matrix, SIMILARITY_TOP_K, &cfg);
        let scalar_secs = start.elapsed().as_secs_f64();
        smda_stats::force_tier(prev);
        push(
            nominal,
            "scalar",
            scalar_secs,
            stats.pairs_scored,
            stride,
            0.0,
        );

        // Lane-preserving dispatch (AVX2 where detected): bit-identical.
        smda_stats::force_tier(SimdTier::Avx2); // clamps to scalar sans AVX2
        let start = Instant::now();
        let (lanes, lstats) = top_k_tiled(&matrix, SIMILARITY_TOP_K, &cfg);
        let lane_secs = start.elapsed().as_secs_f64();
        let label = smda_stats::KernelDispatch::current().tier.label();
        assert_eq!(scalar, lanes, "lane-preserving dispatch changed bits");
        push(nominal, label, lane_secs, lstats.pairs_scored, stride, 0.0);

        // Fused normalize+score over raw rows: tolerance tier.
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
        smda_stats::force_tier(prev);
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
        assert_eq!(t.rows.len(), HOUSEHOLDS.len() * VARIANTS);
        for rows in t.rows.chunks(VARIANTS) {
            // Scalar and lane rows are exact; the fused row stays inside
            // the documented tolerance.
            assert_eq!(rows[0][1], "scalar");
            assert_eq!(rows[0][4].parse::<f64>().unwrap(), 0.0);
            assert_eq!(rows[1][4].parse::<f64>().unwrap(), 0.0);
            let fused_err: f64 = rows[2][4].parse().unwrap();
            assert!(fused_err <= FUSED_REL_TOL);
            for row in rows {
                assert!(row[2].parse::<f64>().unwrap() >= 0.0);
                assert!(row[3].parse::<f64>().unwrap() >= 0.0);
            }
        }
    }
}
