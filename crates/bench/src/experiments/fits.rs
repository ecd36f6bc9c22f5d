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
use smda_stats::{quantiles_by_selection, FitScratch};
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

/// Print where 3-line T1 spends a consumer on a warm arena: the content
/// compare of the temperature year against the plan, the gather of the
/// readings into bin order as integer keys, and the rank selection — the
/// three calls `fit_three_line_scratch` makes, timed one by one.
fn report_t1_split(ds: &smda_types::Dataset, config: &ThreeLineConfig, scratch: &mut FitScratch) {
    let temps = ds.temperature().values();
    let quantiles = [config.low_percentile, config.high_percentile];
    let [mut check, mut gather, mut select] = [Duration::ZERO; 3];
    for c in ds.consumers() {
        let t = Instant::now();
        scratch.plan.prepare(temps);
        check += t.elapsed();
        let t = Instant::now();
        let bins = scratch.plan.gather(c.readings());
        gather += t.elapsed();
        let t = Instant::now();
        if let Some(bins) = bins {
            bins.for_each(|_, keys| {
                if keys.len() >= config.min_points_per_temp {
                    black_box(quantiles_by_selection(keys, quantiles));
                }
            });
        }
        select += t.elapsed();
    }
    let per_consumer = |d: Duration| d.as_secs_f64() * 1e6 / ds.len() as f64;
    eprintln!(
        "3-line T1 per consumer at n={}: plan check {:.1} us, gather {:.1} us, select {:.1} us",
        ds.len(),
        per_consumer(check),
        per_consumer(gather),
        per_consumer(select),
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
