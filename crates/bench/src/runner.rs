//! Experiment registry and equivalence gates.

use smda_types::BitEq;

use crate::experiments;
use crate::report::Table;
use crate::scale::Scale;

/// All experiment ids, in the paper's presentation order.
pub const EXPERIMENT_IDS: [&str; 23] = [
    "table1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig13",
    "fig16",
    "fig18",
    "ext_updates",
    "chaos",
    "kernels",
    "fits",
    "simd",
    "ingest",
    "serve",
    "cluster_real",
    "format",
    "oooc",
    "ablations",
];

/// The experiment registered under `id` (composite figures share one:
/// `fig11` also produces `fig12`, `fig13` also produces `fig14`/`fig15`,
/// etc.).
pub(crate) fn experiment(id: &str) -> Option<fn(Scale) -> Vec<Table>> {
    Some(match id {
        "table1" => experiments::table1::run,
        "fig4" => experiments::loading::run,
        "fig5" => experiments::partitioning::run,
        "fig6" => experiments::coldwarm::run,
        "fig7" => experiments::single_thread::run,
        "fig8" => experiments::memory::run,
        "fig9" => experiments::layouts::run,
        "fig10" => experiments::speedup::run,
        "fig11" | "fig12" => experiments::cluster_vs_c::run,
        "fig13" | "fig14" | "fig15" => experiments::format1::run,
        "fig16" | "fig17" => experiments::format2::run,
        "fig18" | "fig19" => experiments::format3::run,
        "ext_updates" => experiments::updates::run,
        "chaos" => experiments::chaos::run,
        "kernels" => experiments::kernels::run,
        "fits" => experiments::fits::run,
        "simd" => experiments::simd::run,
        "ingest" => experiments::ingest::run,
        "serve" => experiments::serve::run,
        "cluster_real" => experiments::cluster_real::run,
        "format" => experiments::format::run,
        "oooc" => experiments::oooc::run,
        "ablations" => experiments::ablations::run,
        _ => return None,
    })
}

/// An equivalence gate: `Ok` carries the one-line summary, `Err` what
/// diverged.
pub type Gate = fn(Scale) -> std::result::Result<String, String>;

/// Every gate `smda-bench --check NAME[,NAME...]|all` can run, in the
/// order `all` runs them. Adding a gate is adding a row.
pub const GATES: [(&str, Gate); 7] = [
    ("kernels", check_kernels),
    ("fits", check_fits),
    ("serve", check_serve),
    ("real", check_real),
    ("simd", check_simd),
    ("format", check_format),
    ("oooc", check_oooc),
];

/// Kernel-equivalence smoke check (`smda-bench --check kernels`): run
/// the naive per-query scan and the similarity walk — tiled and pooled
/// at several widths, and its query form on every row — over one
/// seeded dataset and require `to_bits` equality of every match list;
/// that the sequential all-pairs walk scored strictly fewer than the
/// `n(n−1)/2` pairs (its sketch bounds skipped register blocks), the
/// pooled ones no more (a worker's thresholds are its own, so how much
/// it skips depends on what it claimed); that at `k = n − 1`, where no
/// row can hold a threshold, the walk scored each unordered pair exactly
/// once; and that the query form skipped at least one row somewhere.
fn check_kernels(scale: Scale) -> std::result::Result<String, String> {
    use smda_core::SIMILARITY_TOP_K;
    use smda_stats::{top_k_cosine, top_k_query_counted, top_k_tiled, SeriesMatrix, TileConfig};

    // Never fewer than three query blocks of rows, `--smoke` included:
    // the AVX-512 tier's 8 × 4 register block needs eight query rows with
    // four candidates past them, and six rows would gate only the scan.
    let ds = crate::data::seed_dataset(scale.consumers_for_households(6_400).max(48));
    let series: Vec<Vec<f64>> = ds
        .consumers()
        .iter()
        .map(|c| c.readings().to_vec())
        .collect();
    let n = series.len();
    let pairs = (n * (n - 1) / 2) as u64;
    let naive = top_k_cosine(&series, SIMILARITY_TOP_K);
    let matrix = SeriesMatrix::from_rows_normalized(&series);
    let (tiled, stats) = top_k_tiled(&matrix, SIMILARITY_TOP_K, &TileConfig::default());
    if !tiled.bits_eq(&naive) {
        return Err(format!("tiled kernel diverged from naive at n={n}"));
    }
    let tiled_scored = stats.pairs_scored;
    if tiled_scored >= pairs {
        return Err(format!(
            "tiled kernel scored {tiled_scored} pairs at n={n}, not fewer than {pairs}: nothing was skipped"
        ));
    }
    let (full, stats) = top_k_tiled(&matrix, n - 1, &TileConfig::default());
    if !full.bits_eq(&top_k_cosine(&series, n - 1)) {
        return Err(format!(
            "tiled kernel at k={} diverged from naive at n={n}",
            n - 1
        ));
    }
    if stats.pairs_scored != pairs {
        return Err(format!(
            "tiled kernel at k={} scored {} pairs at n={n}, not {pairs}",
            n - 1,
            stats.pairs_scored
        ));
    }
    let sink = smda_obs::MetricsSink::disabled();
    for threads in [1usize, 2, 4, 8] {
        let (pooled, stats) =
            smda_engines::parallel::top_k_matrix(&matrix, SIMILARITY_TOP_K, threads, &sink);
        if !pooled.bits_eq(&naive) {
            return Err(format!(
                "pooled kernel diverged from naive at n={n}, threads={threads}"
            ));
        }
        if stats.pairs_scored > pairs {
            return Err(format!(
                "pooled kernel scored {} pairs at n={n}, threads={threads}, more than {pairs}",
                stats.pairs_scored
            ));
        }
    }
    // The query form on every row, and the rows it scored: a count that
    // repeats exactly. Every row scored on every query means the sketch
    // bounds stopped skipping anything.
    let mut scored = 0;
    for (q, want) in naive.iter().enumerate() {
        let (hits, stats) = top_k_query_counted(&matrix, q, SIMILARITY_TOP_K);
        if !hits.bits_eq(want) {
            return Err(format!(
                "top_k_query diverged from naive for row {q} at n={n}"
            ));
        }
        scored += stats.pairs_scored;
    }
    let every = (n * (n - 1)) as u64;
    if scored == every {
        return Err(format!(
            "the query form scored all {every} rows of {n} queries at n={n}: nothing was skipped"
        ));
    }
    Ok(format!(
        "kernel equivalence OK: n={n}, {} of {pairs} pairs scored, all {pairs} at k={}, \
         threads 1/2/4/8 identical, {n} single-row queries identical, {scored} of {every} rows scored",
        tiled_scored,
        n - 1
    ))
}

/// Whether the dispatched `dot_block::<R, C>` over the first `R + C` of
/// `rows` equals `dot_scalar` pair by pair, bit for bit.
fn block_matches_scalar<const R: usize, const C: usize>(rows: &[Vec<f64>]) -> bool {
    let queries: [&[f64]; R] = std::array::from_fn(|r| &rows[r][..]);
    let candidates: [&[f64]; C] = std::array::from_fn(|c| &rows[R + c][..]);
    let want: [[f64; C]; R] = queries.map(|q| candidates.map(|c| smda_stats::dot_scalar(q, c)));
    smda_stats::dot_block(queries, candidates).bits_eq(&want)
}

/// The first lane-preserving kernel the active tier runs differently
/// from its scalar reference, over ragged lengths 0..=67 and a full
/// 8760-hour year: `dot`, `axpy`, and every `dot_block` shape the
/// similarity kernels instantiate.
fn lane_kernel_divergence() -> Option<String> {
    let mut state = 0xdead_beefu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 4000) as f64 / 1000.0 - 2.0
    };
    for len in (0..=67).chain([8760]) {
        let a: Vec<f64> = (0..len).map(|_| next()).collect();
        let b: Vec<f64> = (0..len).map(|_| next()).collect();
        let scalar = smda_stats::dot_scalar(&a, &b);
        let simd = smda_stats::dot(&a, &b);
        if !simd.bits_eq(&scalar) {
            return Some(format!("dot at len={len}: {simd:e} vs {scalar:e}"));
        }
        let mut acc_scalar: Vec<f64> = (0..len).map(|_| next()).collect();
        let mut acc_simd = acc_scalar.clone();
        smda_stats::simd::axpy_scalar(&mut acc_scalar, 1.3125, &a);
        smda_stats::axpy(&mut acc_simd, 1.3125, &a);
        if !acc_simd.bits_eq(&acc_scalar) {
            return Some(format!("axpy at len={len}"));
        }
        // The AVX-512 tier's 8 × 4 pair block (twelve rows), the 4 × 2
        // one, the one-row scan and its remainders.
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|_| (0..len).map(|_| next()).collect())
            .collect();
        let shapes = [
            ("8x4", block_matches_scalar::<8, 4>(&rows)),
            ("4x2", block_matches_scalar::<4, 2>(&rows)),
            ("1x4", block_matches_scalar::<1, 4>(&rows)),
            ("1x3", block_matches_scalar::<1, 3>(&rows)),
            ("1x2", block_matches_scalar::<1, 2>(&rows)),
            ("1x1", block_matches_scalar::<1, 1>(&rows)),
        ];
        if let Some((shape, _)) = shapes.iter().find(|(_, same)| !same) {
            return Some(format!("{shape} block kernel at len={len}"));
        }
    }
    None
}

/// A day-major `(readings, temperatures)` pair of `days` days for the fit
/// kernels' gate: both zeros, subnormals of both signs and ordinary
/// values, and a 0 · ∞ row — day 6's readings are zeros (day 7's first
/// lag), day 7's temperatures `+∞` and its readings `−∞`.
fn edge_year(days: usize) -> (Vec<f64>, Vec<f64>) {
    use smda_types::HOURS_PER_DAY;
    let mut state = 0x5eed_f175u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 4000) as f64 / 1000.0
    };
    let len = days * HOURS_PER_DAY;
    let mut y: Vec<f64> = (0..len)
        .map(|i| match i % 11 {
            0 => 0.0,
            1 => -0.0,
            2 => 5e-324,
            3 => -5e-324,
            _ => next(),
        })
        .collect();
    let mut x: Vec<f64> = (0..len)
        .map(|i| {
            if i % 13 == 4 {
                5e-324
            } else {
                10.0 * next() - 20.0
            }
        })
        .collect();
    for hour in 0..HOURS_PER_DAY {
        y[6 * HOURS_PER_DAY + hour] = if hour % 2 == 0 { 0.0 } else { -0.0 };
        x[7 * HOURS_PER_DAY + hour] = f64::INFINITY;
        y[7 * HOURS_PER_DAY + hour] = f64::NEG_INFINITY;
    }
    (y, x)
}

/// The first of PAR's two lane passes or the Histogram's two that the
/// active tier runs differently from its definition, on [`edge_year`]:
/// every hour's `lagged_moments` lane against `Matrix::gram`,
/// `Matrix::t_vec` and `Iterator::sum` on that hour's materialized design
/// (so every lane block is checked), its `lagged_residuals` lane against
/// the sums `ols_multiple`'s second pass forms, and
/// `HistogramSpec::spanning` + `count_buckets` against one keep-first
/// `<` / `>` chain and `bucket_of` per value.
fn fit_kernel_divergence() -> Option<String> {
    use smda_stats::simd::{lagged_moments, lagged_residuals, LANE_COLS, LANE_LAGS};
    use smda_stats::{count_buckets, HistogramSpec, Matrix};
    use smda_types::HOURS_PER_DAY;

    let days = 30;
    let (y, x) = edge_year(days);
    let moments = lagged_moments(&y, &x, days);
    let beta: [[f64; HOURS_PER_DAY]; LANE_COLS] =
        std::array::from_fn(|i| std::array::from_fn(|h| 0.25 * i as f64 - 0.01 * h as f64));
    let mean_y: [f64; HOURS_PER_DAY] = std::array::from_fn(|h| 0.1 * h as f64);
    let (sse, syy) = lagged_residuals(&y, &x, days, &beta, &mean_y);
    for hour in 0..HOURS_PER_DAY {
        let at = |day: usize| day * HOURS_PER_DAY + hour;
        let rows: Vec<[f64; LANE_COLS]> = (LANE_LAGS..days)
            .map(|d| [1.0, y[at(d - 1)], y[at(d - 2)], y[at(d - 3)], x[at(d)]])
            .collect();
        let response: Vec<f64> = (LANE_LAGS..days).map(|d| y[at(d)]).collect();
        let design = Matrix::from_vec(rows.len(), LANE_COLS, rows.concat());
        let (gram, xty) = (design.gram(), design.t_vec(&response));
        let mut entry = 0;
        for (i, (got_xty, &want_xty)) in moments.xty.iter().zip(&xty).enumerate() {
            for j in i..LANE_COLS {
                if !moments.gram[entry][hour].bits_eq(&gram.get(i, j)) {
                    return Some(format!("PAR moments: gram({i},{j}) of hour {hour}"));
                }
                entry += 1;
            }
            if !got_xty[hour].bits_eq(&want_xty) {
                return Some(format!("PAR moments: xty[{i}] of hour {hour}"));
            }
        }
        let sum_y: f64 = response.iter().sum();
        let sum_x: f64 = rows.iter().map(|row| row[LANE_COLS - 1]).sum();
        if !(moments.sum_y[hour], moments.sum_x[hour]).bits_eq(&(sum_y, sum_x)) {
            return Some(format!("PAR moments: a plain sum of hour {hour}"));
        }
        let (mut want_sse, mut want_syy) = (0.0, 0.0);
        for (row, &r) in rows.iter().zip(&response) {
            let predicted: f64 = row.iter().zip(&beta).map(|(v, b)| v * b[hour]).sum();
            let (e, d) = (r - predicted, r - mean_y[hour]);
            want_sse += e * e;
            want_syy += d * d;
        }
        if !(sse[hour], syy[hour]).bits_eq(&(want_sse, want_syy)) {
            return Some(format!("PAR residuals of hour {hour}"));
        }
    }
    // The readings without the infinite day, the whole year, and both
    // with a ragged tail; each spanned, and the finite one on a spec
    // narrower than its values too.
    let finite: Vec<f64> = y.iter().copied().filter(|v| v.is_finite()).collect();
    for values in [&finite[..], &finite[1..], &y[..], &y[3..]] {
        let keep_first = |wins: fn(f64, f64) -> bool, start: f64| {
            values
                .iter()
                .fold(start, |kept, &v| if wins(v, kept) { v } else { kept })
        };
        let spec = HistogramSpec::spanning(values, 10);
        let min = keep_first(|v, kept| v < kept, f64::INFINITY);
        let max = keep_first(|v, kept| v > kept, f64::NEG_INFINITY);
        if !(spec.min, spec.max).bits_eq(&(min, max)) {
            return Some(format!(
                "HistogramSpec::spanning over {} values",
                values.len()
            ));
        }
        let narrower = HistogramSpec {
            min: spec.min + spec.width(),
            max: spec.max - spec.width(),
            ..spec
        };
        for spec in [spec, narrower] {
            let mut counts = vec![0u64; spec.buckets];
            count_buckets(values, &spec, &mut counts);
            let mut want = vec![0u64; spec.buckets];
            for bucket in values.iter().filter_map(|&v| spec.bucket_of(v)) {
                want[bucket] += 1;
            }
            if counts != want {
                return Some(format!(
                    "count_buckets over {} values, {spec:?}",
                    values.len()
                ));
            }
        }
    }
    None
}

/// SIMD equivalence gate (`smda-bench --check simd`): under every
/// dispatch tier this machine runs (scalar, AVX2, AVX-512 — a tier the
/// hardware lacks is skipped; the note lists the ones that ran), `dot`,
/// `dot_block` (every shape the kernels instantiate) and `axpy` must be
/// `to_bits`-identical to the scalar references
/// ([`lane_kernel_divergence`]), and PAR's and the Histogram's lane passes
/// to their definitions ([`fit_kernel_divergence`]), DESIGN.md §14.
fn check_simd(_scale: Scale) -> std::result::Result<String, String> {
    let mut tiers = Vec::new();
    let mut diverged = None;
    smda_stats::under_every_tier(|tier| {
        tiers.push(tier.label());
        if diverged.is_none() {
            diverged = lane_kernel_divergence()
                .or_else(fit_kernel_divergence)
                .map(|what| format!("{} tier diverged: {what}", tier.label()));
        }
    });
    if let Some(what) = diverged {
        return Err(what);
    }
    Ok(format!(
        "simd equivalence OK: lane kernels (dot, dot_block, axpy; PAR moments and residuals, \
         Histogram range and buckets) bit-identical to their definitions under the {} tiers",
        tiers.join(", ")
    ))
}

/// Pinned ceiling on the peak heap growth of one warm arena sweep
/// (3-line + PAR over every consumer). The arena's steady state is a few
/// hundred kilobytes; the ceiling leaves room for model outputs while
/// still catching any return of per-fit buffer churn.
const FITS_PEAK_CEILING_BYTES: usize = 8 * 1024 * 1024;

/// Fit-equivalence gate (`smda-bench --check fits`).
///
/// Over one seeded dataset, one synthetic consumer per edge class
/// ([`crate::data::edge_consumers`]) and one household under weather of
/// its own ([`crate::data::edge_weather`], then the dataset's again, so
/// the arena's temperature plan is rebuilt twice inside the gate):
/// (1) every consumer's 3-line and PAR fit through a single, deliberately
/// dirty [`FitScratch`] must be bit-identical (`f64::to_bits`) to the
/// retained allocating baselines; (2) generator training must be
/// deterministic per seed; (3) when the counting allocator is installed,
/// the arena sweep — measured on an arena one fit has already warmed,
/// its buffers and its temperature plan in place: the steady state, not
/// the one-time build a handful of `--smoke` consumers cannot amortize —
/// must allocate at least 5× fewer heap bytes than the baseline sweep and
/// stay under `FITS_PEAK_CEILING_BYTES` of peak growth (over the
/// dataset's consumers; the edge years are compared, not weighed);
/// (4) over the same sweep, at most a third of the T1 bins selected
/// through sampled thresholds may have fallen back to the whole bin
/// ([`RankSelect`](smda_stats::RankSelect)), and some must have been
/// selected that way.
///
/// [`FitScratch`]: smda_stats::FitScratch
fn check_fits(scale: Scale) -> std::result::Result<String, String> {
    use smda_core::{
        fit_par_baseline, fit_par_scratch, fit_three_line_baseline, fit_three_line_scratch,
        DataGenerator, GeneratorConfig, ThreeLineConfig,
    };
    use smda_stats::FitScratch;
    use smda_types::{ConsumerSeries, TemperatureSeries};

    let ds = crate::data::seed_dataset(scale.consumers_for_households(6_400));
    let temps = ds.temperature();
    let config = ThreeLineConfig::default();
    let n = ds.len();
    let edges = crate::data::edge_consumers(&ds);
    let (stranger, weather) = crate::data::edge_weather(&ds).map_err(|e| e.to_string())?;

    let fit_baseline = |c: &ConsumerSeries, temps: &TemperatureSeries| {
        (
            fit_three_line_baseline(c, temps, &config),
            fit_par_baseline(c, temps),
        )
    };
    let fit_arena = |c: &ConsumerSeries, temps: &TemperatureSeries, scratch: &mut FitScratch| {
        (
            fit_three_line_scratch(c.id, c.readings(), temps.values(), &config, scratch),
            fit_par_scratch(c.id, c.readings(), temps.values(), scratch),
        )
    };

    // (1) Bit-identity through one dirty arena, and the allocation gate's
    // two sweeps in the same pass. The edge years run after the measured
    // sweeps: their rank-deficient hours take the QR fallback, which
    // allocates in the arena path exactly as in the baseline and would
    // drown the steady state the byte ceilings are about.
    let (mut baselines, baseline_bytes, _) = crate::alloc::measure_alloc(|| {
        ds.consumers()
            .iter()
            .map(|c| fit_baseline(c, temps))
            .collect::<Vec<_>>()
    });
    let mut scratch = FitScratch::new();
    fit_arena(&ds.consumers()[0], temps, &mut scratch);
    let _ = scratch.select.take_counts();
    let (mut arena, arena_bytes, arena_peak) = crate::alloc::measure_alloc(|| {
        ds.consumers()
            .iter()
            .map(|c| fit_arena(c, temps, &mut scratch))
            .collect::<Vec<_>>()
    });
    // (4) The sampled thresholds must hold for most bins: a fallback is
    // exact but selects from the whole bin, and the seeded data makes the
    // count repeat exactly.
    let selected = scratch.select.take_counts();
    if selected.sampled == 0 || selected.fell_back * 3 > selected.sampled {
        return Err(format!(
            "{} of {} T1 bins fell back to selecting from the whole bin (at most a third may)",
            selected.fell_back, selected.sampled
        ));
    }
    let after_sweeps = edges
        .iter()
        .map(|c| (c, temps))
        .chain([(&stranger, &weather), (&ds.consumers()[0], temps)]);
    for (c, temps) in after_sweeps {
        baselines.push(fit_baseline(c, temps));
        arena.push(fit_arena(c, temps, &mut scratch));
    }
    let plan_builds = scratch.take_plan_builds();
    if plan_builds != 3 {
        return Err(format!(
            "{plan_builds} temperature plans built where the dataset's year, a stranger's and \
             the dataset's again make 3"
        ));
    }
    for ((base_tl, base_par), (arena_tl, arena_par)) in baselines.iter().zip(&arena) {
        let id = base_par.consumer;
        if !base_tl.bits_eq(arena_tl) {
            return Err(format!("3-line fit diverged from baseline for {id}"));
        }
        if !base_par.bits_eq(arena_par) {
            return Err(format!("PAR fit diverged from baseline for {id}"));
        }
    }

    // (2) Generator training is deterministic per seed.
    let gen_config = GeneratorConfig {
        clusters: 4,
        ..GeneratorConfig::default()
    };
    let first = DataGenerator::train(&ds, gen_config).map_err(|e| format!("train failed: {e}"))?;
    let second = DataGenerator::train(&ds, gen_config).map_err(|e| format!("train failed: {e}"))?;
    if !first.clusters().bits_eq(second.clusters()) {
        return Err("generator training is not deterministic per seed".into());
    }

    // (3) Allocation-regression gate. The deltas are zero under test
    // binaries (no counting allocator), so gate only on real readings.
    if baseline_bytes > 0 {
        if arena_bytes.saturating_mul(5) > baseline_bytes {
            return Err(format!(
                "arena sweep allocated {arena_bytes} bytes, baseline {baseline_bytes}: \
                 less than the required 5x reduction"
            ));
        }
        if arena_peak > FITS_PEAK_CEILING_BYTES {
            return Err(format!(
                "arena sweep peak heap growth {arena_peak} bytes exceeds the \
                 {FITS_PEAK_CEILING_BYTES}-byte ceiling"
            ));
        }
    }

    let ratio = if arena_bytes > 0 {
        baseline_bytes as f64 / arena_bytes as f64
    } else {
        f64::NAN
    };
    Ok(format!(
        "fit equivalence OK: n={n} + {} edge years, 3-line + PAR bit-identical through a dirty \
         arena across {plan_builds} temperature plans, generator deterministic; bytes \
         baseline={baseline_bytes} warm arena={arena_bytes} ({ratio:.1}x), arena \
         peak={arena_peak}; T1 bins fell back {} of {}",
        edges.len() + 2,
        selected.fell_back,
        selected.sampled
    ))
}

/// Serving bit-identity gate (`smda-bench --check serve`).
///
/// Seals one seeded year, publishes it, and serves every query kind for
/// every household. Each served answer must be bit-identical
/// (`f64::to_bits`) to the offline batch answer for the same data —
/// `run_reference` for the four analytics, the alert-log conversion for
/// anomaly status — and admission control must reject with a typed
/// error at queue depth zero.
fn check_serve(scale: Scale) -> std::result::Result<String, String> {
    use smda_core::queries::{anomaly_result, lookup};
    use smda_core::tasks::run_reference;
    use smda_core::Task;
    use smda_serve::{ServeConfig, ServeError, Server};
    use smda_types::QueryKind;

    let ds = crate::data::seed_dataset(scale.consumers_for_households(6_400));
    let (server, handle) = experiments::serve::start_server(&ds, ServeConfig::default());
    let live = handle.pin().ok_or("sealing published nothing")?;

    let sim = run_reference(Task::Similarity, &ds);
    let hist = run_reference(Task::Histogram, &ds);
    let three = run_reference(Task::ThreeLine, &ds);
    let par = run_reference(Task::Par, &ds);

    let mut answered = 0usize;
    let mut degenerate = 0usize;
    for c in ds.consumers() {
        for kind in QueryKind::ALL {
            let query = experiments::serve::query_of(kind, c.id);
            let batch = match kind {
                QueryKind::TopKSimilar => lookup(&sim, &query),
                QueryKind::Histogram => lookup(&hist, &query),
                QueryKind::ThreeLineFeatures => lookup(&three, &query),
                QueryKind::ParCoefficients => lookup(&par, &query),
                QueryKind::AnomalyStatus => Some(anomaly_result(c.id, live.alerts())),
            };
            match (server.query(query), batch) {
                (Ok(served), Some(batch)) => {
                    if !served.bits_eq(&batch) {
                        return Err(format!(
                            "served `{query}` diverged from the batch answer:\n\
                             served: {served}\nbatch:  {batch}"
                        ));
                    }
                    answered += 1;
                }
                // A series too degenerate for a 3-line fit is absent
                // from the batch output and typed-rejected online.
                (Err(ServeError::NoModel(_)), None) => degenerate += 1,
                (served, batch) => {
                    return Err(format!(
                        "`{query}`: served {:?} but batch had {:?}",
                        served.map(|r| r.to_string()),
                        batch.map(|r| r.to_string())
                    ));
                }
            }
        }
    }

    // Load shedding is typed, never silent.
    let shedding = Server::start(
        handle,
        ServeConfig {
            queue_depth: 0,
            ..ServeConfig::default()
        },
    );
    let probe = experiments::serve::query_of(QueryKind::Histogram, ds.consumers()[0].id);
    match shedding.submit(probe) {
        Err(ServeError::Overloaded { depth: 0 }) => {}
        _ => return Err("a zero-depth queue must reject with a typed Overloaded".into()),
    }

    Ok(format!(
        "serve bit-identity OK: n={}, {answered} served answers across 5 query kinds \
         match batch bitwise ({degenerate} degenerate series typed-rejected), \
         overload rejection typed",
        ds.len()
    ))
}

/// Real-transport gate (`smda-bench --check real`).
///
/// Forks a 2-worker real cluster (live `smda worker` processes, socket
/// shuffle through the checksummed frame codec) and runs every task,
/// requiring each output to be bit-identical to the deterministic
/// virtual twin. Then replays a seeded one-SIGKILL chaos plan on a
/// 3-worker cluster: the kill must be detected by heartbeat loss, the
/// corpse's tasks rescheduled, and every WAL-spilled shuffle partition
/// replayed exactly once — zero lost, zero duplicated — with the
/// recovery visible in the fault and transport counters.
fn check_real(scale: Scale) -> std::result::Result<String, String> {
    use std::time::Duration;

    use smda_cluster::{
        run_real, run_virtual_twin, task_output_bits_eq, FaultPlan, NodeCrash, RealClusterConfig,
    };
    use smda_core::Task;
    use smda_obs::{counters, MetricsSink, RunManifest};

    // Deep enough for the chaos kill to land mid-queue, small enough
    // that forking real processes stays a smoke check.
    let consumers = scale.cluster_consumers_for_households(6_400).clamp(24, 96);
    let ds = crate::data::seed_dataset(consumers);

    let config = RealClusterConfig {
        workers: 2,
        map_chunk: 3,
        reduce_tasks: 4,
        ..RealClusterConfig::default()
    };
    let mut checked = 0usize;
    for task in Task::ALL {
        let name = task.name();
        let real = run_real(task, &ds, &config, &MetricsSink::disabled())
            .map_err(|e| format!("real {name} run failed: {e}"))?;
        let twin = run_virtual_twin(task, &ds, &config)
            .map_err(|e| format!("virtual twin for {name} failed: {e}"))?;
        if !task_output_bits_eq(&real.output, &twin) {
            return Err(format!(
                "{name}: real output diverged from the virtual twin"
            ));
        }
        if real.live_workers != 2 {
            return Err(format!("{name}: a worker died without a fault plan"));
        }
        if real.partitions_spilled != real.partitions_replayed {
            return Err(format!(
                "{name}: {} partitions spilled but {} replayed",
                real.partitions_spilled, real.partitions_replayed
            ));
        }
        checked += 1;
    }

    // Seeded one-kill chaos: SIGKILL worker 1 mid-shuffle and require
    // bit-identical recovery on the survivors.
    let base = RealClusterConfig {
        workers: 3,
        map_chunk: 1,
        reduce_tasks: 4,
        ..RealClusterConfig::default()
    };
    let clean = run_real(Task::Par, &ds, &base, &MetricsSink::disabled())
        .map_err(|e| format!("chaos baseline run failed: {e}"))?;
    let sink = MetricsSink::recording();
    let faulty = RealClusterConfig {
        fault_plan: Some(FaultPlan {
            crashes: vec![NodeCrash {
                node: 1,
                at: Duration::from_millis(1),
            }],
            ..FaultPlan::seeded(2015)
        }),
        ..base
    };
    let survived = run_real(Task::Par, &ds, &faulty, &sink)
        .map_err(|e| format!("SIGKILL not survived: {e}"))?;
    if !task_output_bits_eq(&survived.output, &clean.output) {
        return Err("SIGKILL recovery changed output bits".into());
    }
    if survived.live_workers != 2 {
        return Err(format!(
            "exactly the victim must be dead, {} workers live",
            survived.live_workers
        ));
    }
    if survived.partitions_spilled != survived.partitions_replayed {
        return Err(format!(
            "chaos run spilled {} partitions but replayed {}: lost or duplicated data",
            survived.partitions_spilled, survived.partitions_replayed
        ));
    }
    let report = sink.finish(
        RunManifest::new(Task::Par.name(), "real")
            .threads(3)
            .consumers(consumers),
    );
    if report.counter(counters::FAULTS_INJECTED_NODE_CRASH) != Some(1) {
        return Err("the plan schedules exactly one SIGKILL but the counter disagrees".into());
    }
    let recovered = report
        .counter(counters::FAULTS_RECOVERED_NODE_CRASH)
        .unwrap_or(0);
    if recovered == 0 {
        return Err("no task was recovered off the killed worker".into());
    }
    let retries = report.counter(counters::TRANSPORT_RETRIES).unwrap_or(0);
    if retries == 0 {
        return Err("talking to a SIGKILLed worker must burn at least one retry".into());
    }

    Ok(format!(
        "real transport OK: n={}, {checked} tasks bit-identical to the virtual twin over \
         2 live workers; seeded SIGKILL recovered {recovered} tasks with {retries} transport \
         retries and {} shuffle partitions replayed, zero lost/duplicated",
        ds.len(),
        survived.partitions_replayed
    ))
}

/// Binary-format equivalence gate (`smda-bench --check format`).
///
/// Over one seeded dataset, for both block encodings: write an `SMC1`
/// file, memory-map it back, and require (1) the full dataset read-back
/// to be bit-identical (`f64::to_bits`) to the in-memory original,
/// including the temperature year; (2) the raw file's zero-copy matrix
/// view to carry the same bits straight out of the mapping; (3) all
/// four tasks executed through [`BinarySource`] to be bit-identical to
/// `run_reference` on the original; and (4) a 4-way `cut` + `merge`
/// round trip to reproduce the source file byte for byte.
///
/// [`BinarySource`]: smda_engines::BinarySource
fn check_format(scale: Scale) -> std::result::Result<String, String> {
    use std::sync::Arc;

    use smda_cluster::task_output_bits_eq;
    use smda_core::tasks::run_reference;
    use smda_core::{Task, SIMILARITY_TOP_K};
    use smda_engines::parallel::{execute_task, ConsumerSource};
    use smda_engines::BinarySource;
    use smda_format::digest::Digest;
    use smda_format::layout::{Footer, FOOTER_BYTES};
    use smda_storage::{BinaryEncoding, BinaryStore};
    use smda_types::FormatDefect;

    // At least 8 households so the 4-way reshard has real shards.
    let n = scale.consumers_for_households(6_400).max(8);
    let ds = crate::data::seed_dataset(n);
    let scratch = crate::data::Scratch::new("check_format");

    let mut tasks_checked = 0usize;
    let mut zero_copy = "owned fallback backing (no mmap)";
    for encoding in [BinaryEncoding::Raw, BinaryEncoding::Packed] {
        let tag = format!("{encoding:?}").to_lowercase();
        let path = scratch.path(&format!("{tag}.smc"));
        let store = BinaryStore::create(&path, ds.as_ref(), encoding)
            .map_err(|e| format!("{tag}: write+open failed: {e}"))?;
        store
            .verify()
            .map_err(|e| format!("{tag}: verify failed: {e}"))?;

        // (1) Whole-dataset read-back is bit-identical.
        let back = store
            .read_all()
            .map_err(|e| format!("{tag}: read-back failed: {e}"))?;
        if !back.bits_eq(&ds) {
            return Err(format!(
                "{tag}: read-back diverged bitwise from the original"
            ));
        }

        // (2) The raw mapping serves the same bits with zero copies.
        if encoding == BinaryEncoding::Raw {
            if let Some(matrix) = store.matrix_view() {
                let flat: Vec<f64> = ds
                    .consumers()
                    .iter()
                    .flat_map(|c| c.readings().iter().copied())
                    .collect();
                if !matrix.bits_eq(&flat) {
                    return Err("raw: mapped matrix view diverged bitwise".into());
                }
                zero_copy = "zero-copy mmap matrix bit-identical";
            }
        }

        // (3) Every task through the binary source matches the reference.
        let shared = Arc::new(store);
        for task in Task::ALL {
            let store = shared.clone();
            let make = move || -> smda_types::Result<Box<dyn ConsumerSource>> {
                Ok(Box::new(BinarySource::new(store.clone())))
            };
            let got = execute_task(
                &make,
                task,
                2,
                SIMILARITY_TOP_K,
                &smda_obs::MetricsSink::disabled(),
            )
            .map_err(|e| format!("{tag}: {} failed off the file: {e}", task.name()))?;
            if !task_output_bits_eq(&got, &run_reference(task, &ds)) {
                return Err(format!(
                    "{tag}: {} diverged bitwise from the reference",
                    task.name()
                ));
            }
            tasks_checked += 1;
        }

        // (4) Reshard round trip: 4 strided cuts merged back must
        // reproduce the source file byte for byte.
        let ids = shared
            .consumer_ids()
            .map_err(|e| format!("{tag}: ids unreadable: {e}"))?;
        let shards: Vec<_> = (0..4)
            .map(|s| {
                let shard = scratch.path(&format!("{tag}-shard-{s}.smc"));
                let keep: Vec<_> = ids.iter().copied().skip(s).step_by(4).collect();
                smda_format::ops::cut(&path, &shard, &keep)
                    .map_err(|e| format!("{tag}: cut shard {s} failed: {e}"))?;
                Ok(shard)
            })
            .collect::<std::result::Result<_, String>>()?;
        let merged = scratch.path(&format!("{tag}-merged.smc"));
        smda_format::ops::merge(&shards, &merged)
            .map_err(|e| format!("{tag}: merge failed: {e}"))?;
        let original = std::fs::read(&path).map_err(|e| format!("{tag}: reread failed: {e}"))?;
        let rejoined = std::fs::read(&merged).map_err(|e| format!("{tag}: reread failed: {e}"))?;
        if original != rejoined {
            return Err(format!(
                "{tag}: 4-way cut+merge did not reproduce the file byte for byte"
            ));
        }

        // (5) The whole-file digest streamed in odd-sized pieces (every
        // stripe phase) equals the one-shot digest and the footer's.
        let covered = &original[..original.len() - 12];
        let mut streamed = Digest::default();
        covered
            .chunks(4093)
            .for_each(|piece| streamed.update(piece));
        let footer = Footer::decode(&original[original.len() - FOOTER_BYTES..], &tag)
            .map_err(|e| format!("{tag}: footer unreadable: {e}"))?;
        if streamed.finish() != Digest::of(covered) || streamed.finish() != footer.file_check {
            return Err(format!(
                "{tag}: streamed, one-shot and stored file digests disagree"
            ));
        }

        // (6) The same bytes labelled version 1 are refused by version,
        // not by whichever checksum would trip first.
        let mut v1 = original;
        v1[4] = 1;
        let v1_path = scratch.path(&format!("{tag}-v1.smc"));
        std::fs::write(&v1_path, &v1).map_err(|e| format!("{tag}: v1 copy failed: {e}"))?;
        match smda_format::SmcFile::open(&v1_path) {
            Err(smda_types::Error::BadFormat {
                defect: FormatDefect::UnsupportedVersion { found: 1, .. },
                ..
            }) => {}
            other => {
                return Err(format!(
                    "{tag}: a version-1 file was not refused as such: {:?}",
                    other.map(|f| f.n())
                ))
            }
        }
    }

    Ok(format!(
        "format equivalence OK: n={n}, raw+packed read-back bit-identical, {zero_copy}, \
         {tasks_checked} task runs off the file bitwise equal to the reference, \
         4-way cut+merge byte-identical for both encodings, streamed digest == one-shot == \
         footer, version-1 copy refused"
    ))
}

/// Out-of-core peak-heap ceiling as a divisor of the logical matrix
/// bytes: the banded run must peak under a quarter of what the
/// in-memory kernel would materialize.
const OOOC_PEAK_DIVISOR: usize = 4;

/// Rows of the `--check oooc` slice held to the naive scan.
const OOOC_NAIVE_ROWS: usize = 64;

/// All-pairs top-k by the arithmetic no kernel shares: rows normalized
/// by `norm2`, every pair scored by `dot_scalar`, hits cut by
/// `select_top_k` — a block-kernel defect cannot reach it.
fn naive_top_k(rows: &[Vec<f64>], k: usize) -> Vec<Vec<smda_stats::SimilarityMatch>> {
    use smda_stats::{dot_scalar, normalize_all, select_top_k, SimilarityMatch};
    let unit = normalize_all(rows);
    (0..unit.len())
        .map(|q| {
            let mut hits: Vec<SimilarityMatch> = (0..unit.len())
                .filter(|&j| j != q)
                .map(|j| SimilarityMatch {
                    index: j,
                    score: dot_scalar(&unit[q], &unit[j]),
                })
                .collect();
            select_top_k(&mut hits, k);
            hits
        })
        .collect()
}

/// Out-of-core similarity gate (`smda-bench --check oooc`).
///
/// Over one seeded dataset written to `SMC1` in both encodings: the
/// banded out-of-core kernel must reproduce the in-memory tiled
/// kernel's matches bit-identically (`f64::to_bits`), sequentially and
/// through the worker pool at several widths, on both the zero-copy
/// mapped tier and the bounded decode-cache tier. Both walks share the
/// pair kernel, so a slice of the rows is also held to
/// [`naive_top_k`], and the sequential run must load the fewest bands
/// two buffers allow, `B(B−1)/2 + 1`. The cache is budgeted below a
/// single band so the packed tier must evict on every band turn, and
/// when the counting allocator is installed the sequential run's peak
/// heap growth must stay under a quarter of the logical matrix bytes —
/// the bounded-resident-memory contract.
fn check_oooc(scale: Scale) -> std::result::Result<String, String> {
    use smda_core::SIMILARITY_TOP_K;
    use smda_engines::{top_k_source_with, SmcSource};
    use smda_stats::{band_count, top_k_tiled, SeriesMatrix, SliceSource, TileConfig};
    use smda_storage::{format_metrics, BinaryEncoding, BinaryStore};

    // Enough rows that the logical matrix dwarfs one band, few enough
    // to stay a smoke check.
    let n = scale.consumers_for_households(6_400).clamp(256, 1_024);
    let ds = crate::data::seed_dataset(n);
    let scratch = crate::data::Scratch::new("check_oooc");
    let series: Vec<Vec<f64>> = ds
        .consumers()
        .iter()
        .map(|c| c.readings().to_vec())
        .collect();
    let hours = series[0].len();
    let logical_bytes = n * hours * std::mem::size_of::<f64>();

    // The in-memory expectation; the matrix is dropped before anything
    // is measured — the out-of-core path must reproduce it without one.
    let matrix = SeriesMatrix::from_rows_normalized(&series);
    let (want, _) = top_k_tiled(&matrix, SIMILARITY_TOP_K, &TileConfig::current());
    drop(matrix);

    // Small bands, and a cache budgeted below one band so the decode
    // tier can never hold a full working set resident.
    let band_rows = 8usize;
    let band_bytes = band_rows * hours * std::mem::size_of::<f64>();
    let sink = smda_obs::MetricsSink::disabled();

    // The naive leg: the first rows through the banded walk, sequential
    // and pooled, against a scan that shares no kernel with it.
    let slice = &series[..OOOC_NAIVE_ROWS.min(n)];
    let naive = naive_top_k(slice, SIMILARITY_TOP_K);
    let flat = slice.concat();
    let slice_source = SliceSource::new(&flat, slice.len(), hours);
    for threads in [1usize, 2] {
        let (got, _) = top_k_source_with(
            &slice_source,
            None,
            SIMILARITY_TOP_K,
            band_rows,
            threads,
            &sink,
        )
        .map_err(|e| format!("naive slice: banded run failed: {e}"))?;
        if !got.bits_eq(&naive) {
            return Err(format!(
                "banded run over {} rows diverged bitwise from the naive norm2 + dot_scalar \
                 scan at threads={threads}",
                slice.len()
            ));
        }
    }
    drop(flat);
    drop(series);
    // Where every pair is live (k = n − 1) the sequential walk loads the
    // B(B−1)/2 + 1 bands two buffers need, and no sketch pass, since it
    // could skip nothing (`smda_stats::similarity_walk`); at k = 10 it
    // must skip band pairs, and so load fewer than its sketch pass (B
    // loads) and a walk that prunes nothing.
    let bands = band_count(n, band_rows) as u64;
    let all_live_loads = bands * bands.saturating_sub(1) / 2 + 1;
    let unpruned_loads = bands + all_live_loads;
    let pairs = (n * (n - 1) / 2) as u64;
    let mut pruned_note = String::new();
    let mut tier_note = "decode-cache tier only (owned fallback backing, no mmap)";
    let mut peak_note = String::new();
    for encoding in [BinaryEncoding::Raw, BinaryEncoding::Packed] {
        let tag = format!("{encoding:?}").to_lowercase();
        let path = scratch.path(&format!("{tag}.smc"));
        let store = BinaryStore::create(&path, ds.as_ref(), encoding)
            .map_err(|e| format!("{tag}: write+open failed: {e}"))?;
        let before = format_metrics::snapshot();
        let source = SmcSource::over(&store, band_rows, band_bytes / 2);

        // Sequential measured run: two band buffers plus the bounded
        // cache are the whole resident set.
        let (got, bytes_allocated, peak) = crate::alloc::measure_alloc(|| {
            top_k_source_with(&source, None, SIMILARITY_TOP_K, band_rows, 1, &sink)
        });
        let (got, stats) = got.map_err(|e| format!("{tag}: out-of-core run failed: {e}"))?;
        if !got.bits_eq(&want) {
            return Err(format!(
                "{tag}: out-of-core matches diverged bitwise from the in-memory kernel at n={n}"
            ));
        }
        if stats.bands_loaded == 0 || stats.bytes_streamed == 0 {
            return Err(format!(
                "{tag}: nothing streamed — the run cannot have gone out of core"
            ));
        }
        if stats.kernel.pairs_scored >= pairs || stats.bands_loaded >= unpruned_loads {
            return Err(format!(
                "{tag}: the sequential walk at k={SIMILARITY_TOP_K} scored {} of {pairs} pairs \
                 and loaded {} bands (a walk that prunes nothing loads {unpruned_loads})",
                stats.kernel.pairs_scored, stats.bands_loaded
            ));
        }
        pruned_note = format!(
            "{} of {pairs} pairs scored and {} band loads at k={SIMILARITY_TOP_K} (under \
             {unpruned_loads})",
            stats.kernel.pairs_scored, stats.bands_loaded
        );
        let (_, live) = top_k_source_with(&source, None, n - 1, band_rows, 1, &sink)
            .map_err(|e| format!("{tag}: out-of-core run at k = n − 1 failed: {e}"))?;
        if live.kernel.pairs_scored != pairs || live.bands_loaded != all_live_loads {
            return Err(format!(
                "{tag}: the sequential walk at k = n − 1 over {bands} bands scored {} of \
                 {pairs} pairs and loaded {} bands, not every pair and the {all_live_loads} \
                 its order needs",
                live.kernel.pairs_scored, live.bands_loaded
            ));
        }

        // Pooled parity at several widths: any band-pair schedule must
        // keep the same bits.
        for threads in [2usize, 4, 8] {
            let (pooled, _) =
                top_k_source_with(&source, None, SIMILARITY_TOP_K, band_rows, threads, &sink)
                    .map_err(|e| format!("{tag}: pooled run failed at threads={threads}: {e}"))?;
            if !pooled.bits_eq(&want) {
                return Err(format!(
                    "{tag}: pooled out-of-core run diverged at threads={threads}"
                ));
            }
        }

        let delta = format_metrics::snapshot().since(&before);
        if source.is_mapped() {
            if delta.zero_copy_hits == 0 {
                return Err(format!(
                    "{tag}: raw tier chosen without the file's zero-copy matrix view"
                ));
            }
            tier_note = "raw-read + bounded decode-cache tiers";
        } else {
            if delta.blocks_decoded == 0 {
                return Err(format!("{tag}: cached tier decoded no blocks"));
            }
            if delta.cache_evictions == 0 {
                return Err(format!(
                    "{tag}: a cache budgeted below one band must evict, but never did"
                ));
            }
        }

        // The memory half of the contract. The deltas are zero under
        // `cargo test` (no counting allocator), so gate on real readings.
        if bytes_allocated > 0 {
            let ceiling = logical_bytes / OOOC_PEAK_DIVISOR;
            if peak > ceiling {
                return Err(format!(
                    "{tag}: out-of-core peak heap growth {peak} bytes breaches the \
                     {ceiling}-byte ceiling (logical matrix is {logical_bytes} bytes)"
                ));
            }
            peak_note = format!(
                "; peak heap {} KiB under the {} KiB ceiling ({} KiB logical)",
                peak / 1024,
                ceiling / 1024,
                logical_bytes / 1024
            );
        }
    }

    Ok(format!(
        "oooc equivalence OK: n={n}, raw+packed banded runs bit-identical to the in-memory \
         kernel (sequential and pooled 2/4/8), a {OOOC_NAIVE_ROWS}-row slice to the naive \
         scan, {pruned_note}, all {pairs} pairs and {all_live_loads} band loads at k = n − 1 \
         for {bands} bands, {tier_note}, eviction under a sub-band cache budget \
         exercised{peak_note}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_returns_none() {
        assert!(experiment("fig99").map(|run| run(Scale::smoke())).is_none());
    }

    #[test]
    fn composite_aliases_resolve() {
        // Cheap check on the static registry only (table1 is static).
        assert!(experiment("table1")
            .map(|run| run(Scale::smoke()))
            .is_some());
    }

    #[test]
    fn fit_check_passes_at_smoke_scale() {
        // Allocation deltas are zero here (no counting allocator under
        // `cargo test`), so this exercises the bit-identity and
        // determinism legs; the byte gate runs in the binary via CI.
        let msg = check_fits(Scale::smoke()).expect("fit check passes");
        assert!(msg.contains("bit-identical"));
    }
}
