//! PR 5 extension: the model-fitting allocation sweep.
//!
//! Runs the 3-line and PAR fitters over every consumer of growing seed
//! datasets, twice each: once through the retained allocating baselines
//! (`fit_*_baseline`) and once through a single warm [`FitScratch`]
//! arena. Outputs are asserted bit-identical on every size, so the
//! columns isolate pure execution and allocator cost: warm wall time,
//! cumulative heap bytes allocated, and peak heap growth. The heap
//! columns are exact when the `smda-bench` binary's counting allocator
//! is installed and zero otherwise (e.g. under `cargo test`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use smda_core::{
    fit_par_baseline, fit_par_scratch, fit_three_line_baseline, fit_three_line_scratch,
    ThreeLineConfig,
};
use smda_stats::{FitScratch, SelectCounts};
use smda_types::BitEq;

use crate::alloc;
use crate::data::seed_dataset;
use crate::report::Table;
use crate::scale::Scale;

/// Nominal consumer counts swept. The nominal household counts are
/// chosen so the default scale divisor lands exactly on these consumer
/// counts; `--smoke` scales them down like every other experiment.
pub const CONSUMERS: [usize; 3] = [50, 200, 1000];

/// Variants measured per (size, task).
pub const VARIANTS: usize = 2;

fn push(
    t: &mut Table,
    consumers: usize,
    task: &str,
    variant: &str,
    ms: f64,
    bytes: usize,
    peak: usize,
) {
    t.row(vec![
        consumers.to_string(),
        task.into(),
        variant.into(),
        format!("{ms:.3}"),
        bytes.to_string(),
        peak.to_string(),
    ]);
}

/// Print where 3-line T1 spends a consumer on a warm arena — the content
/// compare of the temperature year against the plan, the gather of the
/// readings into bin order, the selection's sample and tail-splitting
/// pass ([`RankSelect::split_tails`](smda_stats::RankSelect::split_tails))
/// and the rest of it (the pair
/// selects in the tail buffers, and every fallback) — then T2 as the
/// fits themselves charge it, and the share of bins that fell back.
fn report_t1_split(ds: &smda_types::Dataset, config: &ThreeLineConfig, scratch: &mut FitScratch) {
    let temps = ds.temperature().values();
    let quantiles = [config.low_percentile, config.high_percentile];
    let wanted = |values: &[f64]| values.len() >= config.min_points_per_temp;
    let [mut check, mut gather, mut split, mut select] = [Duration::ZERO; 4];
    let _ = scratch.select.take_counts();
    let mut selected = SelectCounts::default();
    for c in ds.consumers() {
        let t = Instant::now();
        scratch.plan.prepare(temps);
        check += t.elapsed();
        let FitScratch {
            plan,
            select: ranks,
            ..
        } = &mut *scratch;
        let t = Instant::now();
        let bins = plan.gather(c.readings());
        gather += t.elapsed();
        let Some(bins) = bins else { continue };
        let t = Instant::now();
        bins.for_each(|_, values| {
            if wanted(values) {
                black_box(ranks.split_tails(values, quantiles));
            }
        });
        split += t.elapsed();
        let _ = ranks.take_counts();
        let Some(bins) = plan.gather(c.readings()) else {
            continue;
        };
        let t = Instant::now();
        bins.for_each(|_, values| {
            if wanted(values) {
                black_box(ranks.quantiles(values, quantiles));
            }
        });
        select += t.elapsed();
        let counts = ranks.take_counts();
        selected.sampled += counts.sampled;
        selected.fell_back += counts.fell_back;
    }
    let _ = scratch.take_phase_times();
    for c in ds.consumers() {
        black_box(fit_three_line_scratch(
            c.id,
            c.readings(),
            temps,
            config,
            scratch,
        ));
    }
    let [_, t2, _] = scratch.take_phase_times();
    let per_consumer = |d: Duration| d.as_secs_f64() * 1e6 / ds.len() as f64;
    eprintln!(
        "3-line per consumer at n={}: plan check {:.1} us, gather {:.1} us, sample + pass {:.1} \
         us, tail select {:.1} us, T2 {:.1} us; {} of {} bins fell back ({:.1} %)",
        ds.len(),
        per_consumer(check),
        per_consumer(gather),
        per_consumer(split),
        per_consumer(select.saturating_sub(split)),
        per_consumer(t2),
        selected.fell_back,
        selected.sampled,
        100.0 * selected.fell_back as f64 / selected.sampled.max(1) as f64,
    );
}

/// Sweep baseline vs arena fitting over seed datasets of growing size.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "fits_sweep",
        "Model fitting: allocating baseline vs warm scratch arena",
        &[
            "consumers",
            "task",
            "variant",
            "time_ms",
            "bytes_allocated",
            "peak_bytes",
        ],
    );
    let config = ThreeLineConfig::default();
    // One arena, warm across every size — the deployment steady state.
    let mut scratch = FitScratch::new();
    for nominal in CONSUMERS {
        let ds = seed_dataset(scale.consumers_for_households(nominal * 273));
        let temps = ds.temperature();
        let n = ds.len();

        let start = Instant::now();
        let (base_tl, bytes, peak) = alloc::measure_alloc(|| {
            ds.consumers()
                .iter()
                .map(|c| fit_three_line_baseline(c, temps, &config))
                .collect::<Vec<_>>()
        });
        push(
            &mut t,
            n,
            "3-line",
            "baseline",
            start.elapsed().as_secs_f64() * 1e3,
            bytes,
            peak,
        );

        let start = Instant::now();
        let (arena_tl, bytes, peak) = alloc::measure_alloc(|| {
            ds.consumers()
                .iter()
                .map(|c| {
                    fit_three_line_scratch(
                        c.id,
                        c.readings(),
                        temps.values(),
                        &config,
                        &mut scratch,
                    )
                })
                .collect::<Vec<_>>()
        });
        push(
            &mut t,
            n,
            "3-line",
            "arena",
            start.elapsed().as_secs_f64() * 1e3,
            bytes,
            peak,
        );
        assert!(base_tl.bits_eq(&arena_tl), "3-line diverged at n={n}");

        report_t1_split(&ds, &config, &mut scratch);

        let start = Instant::now();
        let (base_par, bytes, peak) = alloc::measure_alloc(|| {
            ds.consumers()
                .iter()
                .map(|c| fit_par_baseline(c, temps))
                .collect::<Vec<_>>()
        });
        push(
            &mut t,
            n,
            "PAR",
            "baseline",
            start.elapsed().as_secs_f64() * 1e3,
            bytes,
            peak,
        );

        let start = Instant::now();
        let (arena_par, bytes, peak) = alloc::measure_alloc(|| {
            ds.consumers()
                .iter()
                .map(|c| fit_par_scratch(c.id, c.readings(), temps.values(), &mut scratch))
                .collect::<Vec<_>>()
        });
        push(
            &mut t,
            n,
            "PAR",
            "arena",
            start.elapsed().as_secs_f64() * 1e3,
            bytes,
            peak,
        );
        assert!(base_par.bits_eq(&arena_par), "PAR diverged at n={n}");
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_size_task_and_variant() {
        let tables = run(Scale::smoke());
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.rows.len(), CONSUMERS.len() * 2 * VARIANTS);
        for row in &t.rows {
            let ms: f64 = row[3].parse().unwrap();
            assert!(ms >= 0.0);
            // Heap columns are zero here (no counting allocator under
            // `cargo test`) but must always parse.
            let _: usize = row[4].parse().unwrap();
            let _: usize = row[5].parse().unwrap();
        }
    }
}
