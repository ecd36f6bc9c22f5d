//! Dataset provisioning for experiments.
//!
//! Experiments draw data exactly the way the paper does: a "real" seed
//! (our synthetic stand-in, see DESIGN.md) for the single-server
//! experiments, amplified by the paper's Section 4 generator for the
//! large synthetic cluster experiments. Datasets are cached per size so
//! a suite run pays generation once.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use smda_core::{DataGenerator, GeneratorConfig, SeedConfig};
use smda_types::{
    ConsumerId, ConsumerSeries, Dataset, TemperatureSeries, HOURS_PER_DAY, HOURS_PER_YEAR,
};

/// Deterministic master seed for all experiment data.
pub const BENCH_SEED: u64 = 20150323; // EDBT 2015, March 23

fn cache() -> &'static Mutex<HashMap<(&'static str, usize), Arc<Dataset>>> {
    static CACHE: OnceLock<Mutex<HashMap<(&'static str, usize), Arc<Dataset>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The "real" seed dataset with `consumers` households (cached).
pub fn seed_dataset(consumers: usize) -> Arc<Dataset> {
    if let Some(ds) = cache()
        .lock()
        .expect("cache lock")
        .get(&("seed", consumers))
    {
        return ds.clone();
    }
    let ds = Arc::new(
        smda_core::generator::generate_seed(&SeedConfig {
            consumers,
            seed: BENCH_SEED,
            ..Default::default()
        })
        .expect("seed generation is total for valid configs"),
    );
    cache()
        .lock()
        .expect("cache lock")
        .insert(("seed", consumers), ds.clone());
    ds
}

/// One synthetic consumer per edge class of the model fits, which no
/// generator household falls in: an all-zero year and a constant year
/// (every PAR hour rank deficient, one 3-line point per temperature), the
/// first household of `ds` with zeros of both signs scattered through it
/// (the gram's zero skip, tied zeros in every percentile bin), and a
/// near-unit-root year where each day repeats the one before up to a
/// jitter (PAR's steady-state guard, near-collinear lag columns).
pub fn edge_consumers(ds: &Dataset) -> Vec<ConsumerSeries> {
    let normal = ds.consumers()[0].readings();
    let scattered = normal
        .iter()
        .enumerate()
        .map(|(h, &kwh)| match (h * 7) % 11 {
            0 | 1 => 0.0,
            2 => -0.0,
            _ => kwh,
        })
        .collect();
    let mut unit_root = normal.to_vec();
    for h in HOURS_PER_DAY..HOURS_PER_YEAR {
        let jitter = ((h * 37) % 101) as f64 / 1e4 - 0.005;
        unit_root[h] = (unit_root[h - HOURS_PER_DAY] + jitter).max(0.0);
    }
    [
        vec![0.0; HOURS_PER_YEAR],
        vec![0.7; HOURS_PER_YEAR],
        scattered,
        unit_root,
    ]
    .into_iter()
    .enumerate()
    .map(|(class, readings)| {
        ConsumerSeries::new(ConsumerId(9_000_000 + class as u32), readings)
            .expect("edge years are finite and non-negative")
    })
    .collect()
}

/// The first household of `ds` under weather of its own — the dataset's
/// year run backwards and a quarter of a degree warmer, so no hour keeps
/// its temperature and `.5` boundaries fall elsewhere. Fitting it on an
/// arena that has been fitting `ds` crosses a temperature-plan rebuild,
/// and fitting `ds` again after it crosses another.
pub fn edge_weather(ds: &Dataset) -> smda_types::Result<(ConsumerSeries, TemperatureSeries)> {
    let backwards = ds.temperature().values().iter().rev();
    let weather = TemperatureSeries::new(backwards.map(|t| t + 0.25).collect())?;
    let mut consumer = ds.consumers()[0].clone();
    consumer.id = ConsumerId(9_000_100);
    Ok((consumer, weather))
}

/// A large synthetic dataset of `consumers` households, produced by the
/// paper's generator trained on a small seed (cached).
pub fn synthetic_dataset(consumers: usize) -> Arc<Dataset> {
    if let Some(ds) = cache()
        .lock()
        .expect("cache lock")
        .get(&("synth", consumers))
    {
        return ds.clone();
    }
    let seed = seed_dataset(40);
    let generator = DataGenerator::train(
        &seed,
        GeneratorConfig {
            clusters: 8,
            noise_sigma: 0.08,
            seed: BENCH_SEED,
        },
    )
    .expect("training on the seed succeeds");
    let ds = Arc::new(
        generator
            .generate(consumers, seed.temperature(), 100_000)
            .expect("generation is total"),
    );
    cache()
        .lock()
        .expect("cache lock")
        .insert(("synth", consumers), ds.clone());
    ds
}

/// A scratch directory for an experiment's on-disk stores, removed by
/// [`Scratch::drop`].
#[derive(Debug)]
pub struct Scratch {
    dir: std::path::PathBuf,
}

impl Scratch {
    /// A fresh scratch directory tagged with `tag`.
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "smda-bench-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        ));
        std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
        Scratch { dir }
    }

    /// A sub-path inside the scratch directory.
    pub fn path(&self, name: &str) -> std::path::PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_is_cached_and_deterministic() {
        let a = seed_dataset(6);
        let b = seed_dataset(6);
        assert!(Arc::ptr_eq(&a, &b), "second call hits the cache");
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn synthetic_scales_to_request() {
        let ds = synthetic_dataset(15);
        assert_eq!(ds.len(), 15);
        assert!(ds.stats().mean_annual_kwh > 0.0);
    }

    #[test]
    fn scratch_cleans_up() {
        let path;
        {
            let s = Scratch::new("test");
            path = s.path("");
            std::fs::write(s.path("f.txt"), "x").unwrap();
        }
        assert!(!path.exists());
    }
}
