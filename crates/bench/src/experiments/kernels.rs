//! PR 3 extension: the similarity kernel sweep.
//!
//! Compares three implementations of the all-pairs top-k task on the
//! same data: the naive per-query scan (`top_k_cosine`), the cache-tiled
//! symmetric kernel on a contiguous [`SeriesMatrix`] (`top_k_tiled`),
//! and the tiled kernel fanned out over the persistent worker pool
//! (`top_k_matrix`). All three are bit-identical by construction — the
//! sweep asserts it on every size — so the columns isolate pure
//! execution cost: wall time, pairs scored (the symmetric kernel does
//! half the naive count), and effective MFLOP/s.
//!
//! The `prune_sweep` table measures what a per-row segment sketch buys a
//! single-row top-k (DESIGN.md §9): for each segment layout and sketch
//! kind — segment norms alone (`Σ ‖aₛ‖‖bₛ‖` bounds a score), or each
//! segment's scaled mean and residual norm (`Σ (√L μₐ)(√L μ_b) + ‖ãₛ‖‖b̃ₛ‖`)
//! — the share of rows a query still scores when it scores rows in
//! descending bound order and stops at the first bound below its k-th
//! score, and the query's time against the full scan. A segment is a run
//! of `segment_h` consecutive hours, or, for the `folded` kinds, the
//! hours `t ≡ s (mod segment_h)`: the same hour of the day (24) or of
//! the week (168) across the year. Every answer is checked against the
//! full scan bit for bit. One more row per size is the shipped kernel,
//! `top_k_query`, whose sketch is the mean and residual folded by hour
//! of the week.
//!
//! The `allpairs_prune` table measures what the same sketch buys the
//! all-pairs walk (`top_k_tiled`), which skips a register block when
//! every pair's bound misses both rows' running k-th scores: per size,
//! the share of the `n(n−1)/2` pairs it scores, the share of its
//! register blocks it scores, and its time against the dense walk — the
//! same walk at k = n − 1, where no row holds a threshold while a pair
//! of it is unscored, so every pair is scored, its lists cut to the k
//! best after. Then the streamed walk (`top_k_oooc`) over the raw rows
//! in bands of [`STREAM_BAND_ROWS`]: the share of pairs it scores, and
//! the bands it loads, its sketch pass included, against the
//! `B(B−1)/2 + 1` of a walk that skips no band pair. Every answer is checked against the dense
//! one bit for bit.

use std::time::{Duration, Instant};

use smda_core::generator::{generate_seed_streaming, SeedConfig};
use smda_core::SIMILARITY_TOP_K;
use smda_engines::parallel::top_k_matrix;
use smda_engines::WorkerPool;
use smda_obs::MetricsSink;
use smda_stats::kernels::SKETCH_PERIOD;
use smda_stats::{
    band_count, dot, dot_block, select_top_k, top_k_cosine, top_k_oooc, top_k_query_counted,
    top_k_tiled, SeriesMatrix, SeriesMatrixBuilder, SimilarityMatch, SliceSource, TileConfig,
};
use smda_types::{BitEq, HOURS_PER_YEAR};

use crate::data::{seed_dataset, BENCH_SEED};
use crate::report::Table;
use crate::scale::Scale;

/// Nominal household counts swept (scaled down by `Scale::divisor`).
pub const HOUSEHOLDS: [usize; 3] = [1_600, 3_200, 6_400];

/// Variants measured per size.
pub const VARIANTS: usize = 3;

fn push(
    t: &mut Table,
    nominal: usize,
    variant: &str,
    elapsed: Duration,
    pairs: u64,
    stride: usize,
) {
    let flops = pairs as f64 * 2.0 * stride as f64;
    let mflops = flops / elapsed.as_secs_f64().max(1e-9) / 1e6;
    t.row(vec![
        nominal.to_string(),
        variant.into(),
        format!("{:.3}", elapsed.as_secs_f64() * 1e3),
        pairs.to_string(),
        format!("{mflops:.0}"),
    ]);
}

/// Rows of the prune sweep's matrices; `--smoke` runs the first alone.
pub const PRUNE_ROWS: [usize; 3] = [96, 384, 4096];

/// Segment lengths the prune sweep tries, hours.
pub const PRUNE_SEGMENTS: [usize; 5] = [120, 48, 24, 12, 6];

/// Periods the prune sweep folds rows over, hours: a day and a week.
pub const PRUNE_FOLDS: [usize; 2] = [24, 168];

/// Queries per size in the prune sweep, spread evenly over the rows
/// (`--smoke` asks a quarter of them).
const PRUNE_QUERIES: usize = 32;

/// Widening of every bound in the prune sweep's own walk: its rows are
/// unit vectors, whose rounding errors are ~1e-12 (DESIGN.md §9 derives
/// the shipped kernel's margin).
const PRUNE_MARGIN: f64 = 1e-9;

/// Sweep the three kernel variants over seed datasets of growing size,
/// then the prune sweep.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "kernels_sweep",
        "Similarity kernel: naive scan vs tiled symmetric kernel (serial and pooled)",
        &["households", "variant", "time_ms", "pairs_scored", "mflops"],
    );
    let threads = WorkerPool::global().size().clamp(2, 8);
    for nominal in HOUSEHOLDS {
        let ds = seed_dataset(scale.consumers_for_households(nominal));
        let series: Vec<Vec<f64>> = ds
            .consumers()
            .iter()
            .map(|c| c.readings().to_vec())
            .collect();
        let n = series.len();
        let stride = series.first().map(Vec::len).unwrap_or(0);

        // Naive: normalize, then every query scans every other row.
        let start = Instant::now();
        let naive = top_k_cosine(&series, SIMILARITY_TOP_K);
        let naive_t = start.elapsed();
        push(
            &mut t,
            nominal,
            "naive",
            naive_t,
            (n * n.saturating_sub(1)) as u64,
            stride,
        );

        // Tiled: contiguous matrix, symmetric halving, one thread.
        // Matrix construction is timed — it replaces normalize_all.
        let start = Instant::now();
        let matrix = SeriesMatrix::from_rows_normalized(&series);
        let (tiled, stats) = top_k_tiled(&matrix, SIMILARITY_TOP_K, &TileConfig::default());
        let tiled_t = start.elapsed();
        assert_eq!(naive, tiled, "tiled kernel diverged from naive at n={n}");
        push(
            &mut t,
            nominal,
            "tiled",
            tiled_t,
            stats.pairs_scored,
            stride,
        );

        // Tiled + pool: same kernel, tile rows claimed dynamically by
        // the persistent worker pool.
        let sink = MetricsSink::disabled();
        let start = Instant::now();
        let matrix = SeriesMatrix::from_rows_normalized(&series);
        let (pooled, pstats) = top_k_matrix(&matrix, SIMILARITY_TOP_K, threads, &sink);
        let pooled_t = start.elapsed();
        assert_eq!(naive, pooled, "pooled kernel diverged from naive at n={n}");
        push(
            &mut t,
            nominal,
            &format!("tiled+pool x{threads}"),
            pooled_t,
            pstats.pairs_scored,
            stride,
        );
    }
    vec![t, prune(scale), allpairs(scale)]
}

/// How the prune sweep cuts a row into segments.
#[derive(Clone, Copy)]
enum Layout {
    /// Runs of this many consecutive hours.
    Runs(usize),
    /// The hours `t ≡ s (mod period)`, one segment per `s`.
    Fold(usize),
}

impl Layout {
    fn segments(self, row: &[f64]) -> Vec<Vec<f64>> {
        match self {
            Layout::Runs(len) => row.chunks(len).map(<[f64]>::to_vec).collect(),
            Layout::Fold(period) => (0..period.min(row.len()))
                .map(|s| row[s..].iter().step_by(period).copied().collect())
                .collect(),
        }
    }
}

/// One sketch per row: segment norms, or segment `(√L·mean, residual)`
/// pairs, of each row of `m`, `width` values a row.
struct Sketches {
    values: Vec<f64>,
    width: usize,
}

impl Sketches {
    fn new(m: &SeriesMatrix, layout: Layout, with_mean: bool) -> Sketches {
        let mut values = Vec::new();
        for i in 0..m.rows() {
            for seg in layout.segments(m.row(i)) {
                let sumsq = |c: f64| seg.iter().map(|x| (x - c) * (x - c)).sum::<f64>().sqrt();
                if with_mean {
                    let sum: f64 = seg.iter().sum();
                    let len = seg.len() as f64;
                    values.extend([sum / len.sqrt(), sumsq(sum / len)]);
                } else {
                    values.push(sumsq(0.0));
                }
            }
        }
        Sketches {
            width: values.len() / m.rows().max(1),
            values,
        }
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.values[i * self.width..(i + 1) * self.width]
    }
}

/// Score row `q` against the rows of `ranked` (`(bound, row)`, highest
/// bound first) in turn, four at a time, until the next bound falls
/// strictly below the k-th score; returns the top k and the rows scored.
fn walk_ranked(
    m: &SeriesMatrix,
    q: usize,
    ranked: &[(f64, usize)],
) -> (Vec<SimilarityMatch>, usize) {
    let k = SIMILARITY_TOP_K;
    let mut hits: Vec<SimilarityMatch> = Vec::new();
    let mut scored = 0;
    for group in ranked.chunks(4) {
        let kth = (hits.len() >= k).then(|| {
            select_top_k(&mut hits, k);
            hits[k - 1].score
        });
        let live = group
            .iter()
            .take_while(|r| kth.is_none_or(|t| r.0 >= t))
            .count();
        if live == 0 {
            break;
        }
        let rows = &group[..live];
        let scores: Vec<f64> = if live == 4 {
            let candidates: [&[f64]; 4] = std::array::from_fn(|c| m.row(rows[c].1));
            let [dots] = dot_block([m.row(q)], candidates);
            dots.to_vec()
        } else {
            rows.iter().map(|r| dot(m.row(q), m.row(r.1))).collect()
        };
        for (r, score) in rows.iter().zip(scores) {
            hits.push(SimilarityMatch { index: r.1, score });
        }
        scored += live;
    }
    select_top_k(&mut hits, k);
    (hits, scored)
}

/// Fastest of three runs of `f` over every query, and its last output.
fn best_of<T>(queries: &[usize], mut f: impl FnMut(usize) -> T) -> (Duration, Vec<T>) {
    let mut best = Duration::MAX;
    let mut out = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        out = queries.iter().map(|&q| f(q)).collect();
        best = best.min(start.elapsed());
    }
    (best, out)
}

/// `n` seed-generator years as a matrix of their unit rows, each raw
/// row also handed to `keep`.
fn seed_matrix(n: usize, keep: &mut dyn FnMut(&[f64])) -> SeriesMatrix {
    let builder = SeriesMatrixBuilder::new(n, HOURS_PER_YEAR);
    let mut row = 0;
    let config = SeedConfig {
        consumers: n,
        seed: BENCH_SEED,
        ..Default::default()
    };
    let generated = generate_seed_streaming(&config, &mut |_, kwh| {
        builder.set_row_normalized(row, kwh);
        keep(kwh);
        row += 1;
        Ok(())
    });
    assert!(generated.is_ok(), "the seed generator failed at n={n}");
    builder.finish()
}

/// The prune sweep (module docs): `results/prune_sweep.csv`.
fn prune(scale: Scale) -> Table {
    let mut t = Table::new(
        "prune_sweep",
        "Single-row top-k over a segment sketch: rows scored and time against the full scan",
        &[
            "rows",
            "segment_h",
            "sketch",
            "sketch_values",
            "share_scored",
            "time_vs_full",
        ],
    );
    let smoke = scale.divisor > Scale::default().divisor;
    let (sizes, asked) = if smoke {
        (&PRUNE_ROWS[..1], PRUNE_QUERIES / 4)
    } else {
        (&PRUNE_ROWS[..], PRUNE_QUERIES)
    };
    for &n in sizes {
        let m = seed_matrix(n, &mut |_| {});
        let queries: Vec<usize> = (0..asked).map(|i| i * n / asked).collect();
        let others = |q: usize| (0..n).filter(move |&j| j != q);
        let (full_t, full) = best_of(&queries, |q| {
            let ranked: Vec<(f64, usize)> = others(q).map(|j| (f64::INFINITY, j)).collect();
            walk_ranked(&m, q, &ranked).0
        });
        let mut push =
            |segment: usize, sketch: &str, values: usize, scored: usize, time: Duration| {
                t.row(vec![
                    n.to_string(),
                    segment.to_string(),
                    sketch.into(),
                    values.to_string(),
                    format!("{:.3}", scored as f64 / (queries.len() * (n - 1)) as f64),
                    format!("{:.3}", time.as_secs_f64() / full_t.as_secs_f64()),
                ]);
            };
        let runs = PRUNE_SEGMENTS.map(|h| (h, Layout::Runs(h), ""));
        let folds = PRUNE_FOLDS.map(|h| (h, Layout::Fold(h), "folded "));
        for (segment, layout, folded) in runs.into_iter().chain(folds) {
            for (with_mean, kind) in [(false, "norms"), (true, "mean+residual")] {
                let kind = format!("{folded}{kind}");
                let sk = Sketches::new(&m, layout, with_mean);
                let (time, answers) = best_of(&queries, |q| {
                    let mut ranked: Vec<(f64, usize)> = others(q)
                        .map(|j| (dot(sk.row(q), sk.row(j)) + PRUNE_MARGIN, j))
                        .collect();
                    ranked.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                    walk_ranked(&m, q, &ranked)
                });
                let (hits, scored): (Vec<_>, Vec<usize>) = answers.into_iter().unzip();
                assert!(
                    hits.bits_eq(&full),
                    "{kind} sketch at {segment} h changed an answer at n={n}"
                );
                let scored = scored.iter().sum();
                push(segment, &kind, sk.width, scored, time);
            }
        }
        let (time, answers) = best_of(&queries, |q| {
            let (hits, stats) = top_k_query_counted(&m, q, SIMILARITY_TOP_K);
            (hits, stats.pairs_scored as usize)
        });
        let (hits, scored): (Vec<_>, Vec<usize>) = answers.into_iter().unzip();
        assert!(
            hits.bits_eq(&full),
            "top_k_query diverged from the full scan at n={n}"
        );
        let scored = scored.iter().sum();
        let values = 1 + 2 * SKETCH_PERIOD;
        push(SKETCH_PERIOD, "top_k_query", values, scored, time);
    }
    t
}

/// Rows of the all-pairs prune table's matrices, each a whole number
/// of query blocks; `--smoke` runs the first alone.
pub const ALLPAIRS_ROWS: [usize; 4] = [96, 192, 384, 1536];

/// Rows per band of the streamed walk in the all-pairs prune table: the
/// benchmark's `spilling` band.
pub const STREAM_BAND_ROWS: usize = 24;

/// The all-pairs prune table (module docs): `results/allpairs_prune.csv`.
///
/// With `n` a multiple of the query block (which both register-block
/// heights divide), a diagonal band pair is one block's triangle, scored
/// pair by pair and never skipped, and every other pair lies in a whole
/// register block of the tier's one shape, so the share of blocks scored
/// is the share of those pairs scored.
fn allpairs(scale: Scale) -> Table {
    let mut t = Table::new(
        "allpairs_prune",
        "All-pairs top-k skipping register blocks by sketch bounds: pairs and blocks scored, time against the dense walk; the streamed walk's pairs scored and band loads",
        &[
            "rows",
            "share_pairs_scored",
            "share_blocks_live",
            "time_vs_dense",
            "streamed_share_pairs_scored",
            "streamed_bands_loaded",
            "unpruned_bands_loaded",
        ],
    );
    let smoke = scale.divisor > Scale::default().divisor;
    let sizes = if smoke {
        &ALLPAIRS_ROWS[..1]
    } else {
        &ALLPAIRS_ROWS[..]
    };
    let (k, cfg) = (SIMILARITY_TOP_K, TileConfig::default());
    for &n in sizes {
        assert_eq!(
            n % cfg.query_block,
            0,
            "n={n} is not a whole number of query blocks"
        );
        let mut raw = Vec::with_capacity(n * HOURS_PER_YEAR);
        let m = seed_matrix(n, &mut |kwh| raw.extend_from_slice(kwh));
        let pairs = (n * (n - 1) / 2) as u64;
        let (mut pruned_t, mut dense_t) = (Duration::MAX, Duration::MAX);
        let (mut pruned, mut dense) = (Vec::new(), Vec::new());
        let mut scored = 0;
        for _ in 0..3 {
            let start = Instant::now();
            let (matches, stats) = top_k_tiled(&m, k, &cfg);
            pruned_t = pruned_t.min(start.elapsed());
            (pruned, scored) = (matches, stats.pairs_scored);
            let start = Instant::now();
            let (mut matches, stats) = top_k_tiled(&m, n - 1, &cfg);
            matches.iter_mut().for_each(|hits| hits.truncate(k));
            dense_t = dense_t.min(start.elapsed());
            assert_eq!(stats.pairs_scored, pairs, "the dense walk skipped at n={n}");
            dense = matches;
        }
        assert!(
            pruned.bits_eq(&dense),
            "the pruned walk diverged from the dense walk at n={n}"
        );
        let diagonal = (n * (cfg.query_block - 1) / 2) as u64;
        let live = (scored - diagonal) as f64 / (pairs - diagonal) as f64;
        assert!(
            live < 1.0,
            "the all-pairs walk skipped no register block at n={n}"
        );
        let source = SliceSource::new(&raw, n, HOURS_PER_YEAR);
        let streamed = top_k_oooc(&source, k, STREAM_BAND_ROWS, &cfg);
        let (walked, stats) = streamed.unwrap_or_else(|e| panic!("the streamed walk failed: {e}"));
        assert!(
            walked.bits_eq(&dense),
            "the streamed walk diverged from the dense walk at n={n}"
        );
        let bands = band_count(n, STREAM_BAND_ROWS) as u64;
        t.row(vec![
            n.to_string(),
            format!("{:.3}", scored as f64 / pairs as f64),
            format!("{live:.3}"),
            format!("{:.3}", pruned_t.as_secs_f64() / dense_t.as_secs_f64()),
            format!("{:.3}", stats.kernel.pairs_scored as f64 / pairs as f64),
            stats.bands_loaded.to_string(),
            (bands * (bands - 1) / 2 + 1).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_size_and_variant() {
        let tables = run(Scale::smoke());
        assert_eq!(tables.len(), 3);
        let t = &tables[0];
        assert_eq!(t.rows.len(), HOUSEHOLDS.len() * VARIANTS);
        for row in &t.rows {
            let ms: f64 = row[2].parse().unwrap();
            assert!(ms >= 0.0);
            let pairs: u64 = row[3].parse().unwrap();
            assert!(pairs > 0);
        }
        // Symmetric halving: at each size the tiled variants score half
        // the pairs the naive scan does.
        for rows in t.rows.chunks(VARIANTS) {
            let naive: u64 = rows[0][3].parse().unwrap();
            let tiled: u64 = rows[1][3].parse().unwrap();
            let pooled: u64 = rows[2][3].parse().unwrap();
            assert_eq!(naive, 2 * tiled);
            assert_eq!(tiled, pooled);
        }
        // The prune sweep at `--smoke`: the first size alone, both kinds
        // per layout and the shipped kernel's row, each skipping rows.
        let prune = &tables[1];
        assert_eq!(
            prune.rows.len(),
            2 * (PRUNE_SEGMENTS.len() + PRUNE_FOLDS.len()) + 1
        );
        for row in &prune.rows {
            assert_eq!(row[0], PRUNE_ROWS[0].to_string());
            let share: f64 = row[4].parse().unwrap();
            assert!(share > 0.0 && share < 1.0, "{row:?} skipped nothing");
        }
        let shipped = prune.rows.last().unwrap();
        assert_eq!(shipped[2], "top_k_query");
        assert_eq!(shipped[3], (1 + 2 * SKETCH_PERIOD).to_string());
        // The all-pairs table at `--smoke`: the first size alone, its
        // walk skipping register blocks and so pairs.
        let allpairs = &tables[2];
        assert_eq!(allpairs.rows.len(), 1);
        let row = &allpairs.rows[0];
        assert_eq!(row[0], ALLPAIRS_ROWS[0].to_string());
        for share in [&row[1], &row[2], &row[4]] {
            let share: f64 = share.parse().unwrap();
            assert!(share > 0.0 && share < 1.0, "{row:?}");
        }
        // The streamed walk skips band pairs: fewer loads than its sketch
        // pass and a walk that prunes nothing.
        let bands = ALLPAIRS_ROWS[0].div_ceil(STREAM_BAND_ROWS);
        let (loaded, unpruned): (usize, usize) = (row[5].parse().unwrap(), row[6].parse().unwrap());
        assert_eq!(unpruned, bands * (bands - 1) / 2 + 1);
        assert!(loaded < bands + unpruned, "{row:?}");
    }
}
