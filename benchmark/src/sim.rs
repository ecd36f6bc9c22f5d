//! Group `sim`: warm all-pairs top-10 on a normalized in-memory
//! `SeriesMatrix` through `parallel::top_k_matrix`, then single-row
//! `top_k_query` calls on the same matrix.
//!
//! The tiled kernel is compute-bound and does nearly all the work;
//! `format` does nothing. The query phase reads the same matrix as a
//! bandwidth-bound matrix–vector scan, so a tile-kernel win must not
//! show there, and a layout change that helps one and hurts the other
//! is caught.

use std::time::Instant;

use smda_engines::parallel::top_k_matrix;
use smda_obs::MetricsSink;
use smda_stats::{
    dot_scalar, select_top_k, top_k_query, SeriesMatrix, SeriesMatrixBuilder, SimilarityMatch,
};
use smda_types::{Result, HOURS_PER_YEAR};

use crate::catalog::{Sizes, THREADS};
use crate::data;
use crate::harness::{Ctx, Group, Lap, Tally};
use crate::rng::{pick_rows, sub_seed, TOP_K};
use crate::stats::median;

/// Rows of each all-pairs answer recomputed naively.
const SPOT_ROWS: usize = 32;

/// Bit-for-bit equality of two top-k lists.
pub fn hits_bits_eq(a: &[SimilarityMatch], b: &[SimilarityMatch]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.index == y.index && x.score.to_bits() == y.score.to_bits())
}

/// Row `q`'s top-k by the naive scan: the scalar reference dot product
/// against every other row, then the program's canonical selection.
pub fn naive_top_k(matrix: &SeriesMatrix, q: usize, k: usize) -> Vec<SimilarityMatch> {
    let mut hits: Vec<SimilarityMatch> = (0..matrix.rows())
        .filter(|&i| i != q)
        .map(|i| SimilarityMatch {
            index: i,
            score: dot_scalar(matrix.row(q), matrix.row(i)),
        })
        .collect();
    select_top_k(&mut hits, k);
    hits
}

/// Generate `n` consumer-years straight into a normalized matrix.
pub fn normalized_matrix(n: usize, seed: u64) -> Result<SeriesMatrix> {
    let builder = SeriesMatrixBuilder::new(n, HOURS_PER_YEAR);
    let mut row = 0;
    data::stream_rows(n, seed, &mut |_, kwh| {
        builder.set_row_normalized(row, kwh);
        row += 1;
        Ok(())
    })?;
    Ok(builder.finish())
}

pub struct SimInmem {
    matrix: SeriesMatrix,
    query_rows: Vec<usize>,
    spot_rows: Vec<usize>,
    allpairs: Vec<Vec<Vec<SimilarityMatch>>>,
    queries: Vec<(usize, Vec<SimilarityMatch>)>,
}

impl SimInmem {
    pub fn setup(sizes: &Sizes, seed: u64) -> Result<SimInmem> {
        Ok(SimInmem {
            matrix: normalized_matrix(sizes.sim_n, sub_seed(seed, "sim"))?,
            query_rows: pick_rows(
                sizes.sim_n,
                sizes.sim_queries,
                sub_seed(seed, "sim-queries"),
            ),
            spot_rows: pick_rows(sizes.sim_n, SPOT_ROWS, sub_seed(seed, "sim-spot")),
            allpairs: Vec::new(),
            queries: Vec::new(),
        })
    }
}

impl Group for SimInmem {
    fn round_key(&self) -> &'static str {
        "round_s.sim"
    }

    fn round(&mut self, ctx: &Ctx, _traced: bool, parent: u32, lap: &mut Lap) -> Result<()> {
        let off = MetricsSink::disabled();
        let (matches, _) = lap.time("sim_allpairs_s", || {
            // `top_k_matrix` is a pool broadcast around the tiled
            // kernel: its time is the kernel's, hence layer `stats`.
            let _span = ctx.tracer.span("top_k_matrix", "stats", parent);
            Ok(top_k_matrix(&self.matrix, TOP_K, THREADS, &off))
        })?;
        self.allpairs.push(matches);
        let mut latencies_ms = Vec::with_capacity(self.query_rows.len());
        for &q in &self.query_rows {
            let start = Instant::now();
            let hits = {
                let _span = ctx.tracer.span("top_k_query", "stats", parent);
                top_k_query(&self.matrix, q, TOP_K)
            };
            latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            self.queries.push((q, hits));
        }
        lap.push("sim_query_ms", median(&latencies_ms));
        Ok(())
    }

    /// Each all-pairs answer against the naive scan on the spot rows;
    /// each single-row answer against the all-pairs answer's row.
    fn verify(&self, tally: &mut Tally) -> Result<()> {
        let naive: Vec<(usize, Vec<SimilarityMatch>)> = self
            .spot_rows
            .iter()
            .map(|&q| (q, naive_top_k(&self.matrix, q, TOP_K)))
            .collect();
        for matches in &self.allpairs {
            let ok = matches.len() == self.matrix.rows()
                && naive
                    .iter()
                    .all(|(q, want)| hits_bits_eq(&matches[*q], want));
            tally.check(ok, || "all-pairs top-k differs from the naive scan".into());
        }
        let Some(reference) = self.allpairs.last() else {
            return Ok(());
        };
        for (q, hits) in &self.queries {
            tally.check(hits_bits_eq(hits, &reference[*q]), || {
                format!("top_k_query row {q} differs from the all-pairs answer")
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use std::sync::Arc;

    fn one_round() -> SimInmem {
        let ctx = Ctx {
            tracer: Arc::new(Tracer::new()),
            trace_mode: false,
            cpu: None,
        };
        let mut group = SimInmem::setup(&Sizes::TEST, 5).unwrap();
        group.round(&ctx, false, 0, &mut Lap::default()).unwrap();
        group
    }

    #[test]
    fn a_true_answer_verifies() {
        let mut tally = Tally::default();
        one_round().verify(&mut tally).unwrap();
        assert_eq!(tally.attempted, 1 + Sizes::TEST.sim_queries as u64);
        assert_eq!((tally.failed, tally.exit_code()), (0, 0));
    }

    #[test]
    fn a_corrupted_reference_fails_the_run() {
        // Flip the lowest bit of one score the single-row answers are
        // compared with: the verifier must notice, count it, and turn
        // the exit code non-zero.
        let mut group = one_round();
        let q = group.query_rows[0];
        let hit = &mut group.allpairs[0][q][0];
        hit.score = f64::from_bits(hit.score.to_bits() ^ 1);
        let mut tally = Tally::default();
        group.verify(&mut tally).unwrap();
        assert!(tally.failed >= 1 && tally.failed_share() > 0.0);
        assert_eq!(tally.exit_code(), 1);
        assert!(
            tally.failures[0].contains("differs"),
            "{:?}",
            tally.failures
        );
    }
}
