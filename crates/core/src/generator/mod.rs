//! Data generation (Section 4 of the paper).
//!
//! [`seed`] synthesizes a *seed* dataset standing in for the paper's
//! private 27,300-consumer utility data set (see DESIGN.md for the
//! substitution argument), and [`DataGenerator`] implements the paper's
//! generator verbatim: disaggregate every seed consumer into a daily
//! activity profile (via PAR) and thermal gradients (via 3-line), cluster
//! the profiles with k-means, then synthesize each new consumer as
//!
//! ```text
//! centroid activity load  +  gradient × temperature distance  +  N(0, σ²)
//! ```
//!
//! taking the activity profile from a randomly chosen cluster and the
//! thermal response from a randomly chosen member of that cluster.

pub mod seed;

pub use seed::{
    generate_seed, generate_seed_streaming, generate_temperature, SeedConfig, WeatherConfig,
};

use crate::par::fit_par_scratch;
use crate::three_line::{fit_three_line_scratch, ThreeLineConfig};
use smda_stats::with_fit_scratch;
use smda_stats::{GaussianNoise, KMeans, KMeansConfig, Picker};
use smda_types::{
    ConsumerId, ConsumerSeries, Dataset, Error, Result, TemperatureSeries, HOURS_PER_DAY,
};

/// Configuration of the paper's data generator.
#[derive(Debug, Clone, Copy)]
pub struct GeneratorConfig {
    /// Number of activity-profile clusters (k for k-means).
    pub clusters: usize,
    /// Standard deviation σ of the additive Gaussian white noise, kWh.
    pub noise_sigma: f64,
    /// RNG seed controlling clustering, selection and noise.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            clusters: 12,
            noise_sigma: 0.1,
            seed: 2015,
        }
    }
}

/// The thermal response extracted from one seed consumer's 3-line model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalResponse {
    /// Heating slope (kWh per °C, typically negative), from the left
    /// 90th-percentile segment.
    pub heating_gradient: f64,
    /// Cooling slope (kWh per °C, typically positive), from the right
    /// 90th-percentile segment.
    pub cooling_gradient: f64,
    /// Temperature below which heating load engages, °C.
    pub heating_knot: f64,
    /// Temperature above which cooling load engages, °C.
    pub cooling_knot: f64,
}

impl ThermalResponse {
    /// Temperature-dependent load at temperature `t` (always ≥ 0).
    pub fn load_at(&self, t: f64) -> f64 {
        if t < self.heating_knot {
            // heating_gradient is negative: colder ⇒ more load.
            (self.heating_gradient * (t - self.heating_knot)).max(0.0)
        } else if t > self.cooling_knot {
            (self.cooling_gradient * (t - self.cooling_knot)).max(0.0)
        } else {
            0.0
        }
    }
}

/// One activity cluster: the centroid daily profile plus the thermal
/// responses of its member consumers.
#[derive(Debug, Clone)]
pub struct ProfileCluster {
    /// Mean daily activity profile of the cluster, kWh per hour of day.
    pub centroid: [f64; HOURS_PER_DAY],
    /// Thermal responses of the seed consumers assigned to this cluster.
    pub members: Vec<ThermalResponse>,
}

smda_types::bit_eq_fields!(
    ThermalResponse { heating_gradient, cooling_gradient, heating_knot, cooling_knot }
    ProfileCluster { centroid, members }
);

/// The trained generator (Figure 3 of the paper).
#[derive(Debug, Clone)]
pub struct DataGenerator {
    clusters: Vec<ProfileCluster>,
    config: GeneratorConfig,
}

impl DataGenerator {
    /// Pre-processing step: run PAR and 3-line over the seed dataset and
    /// cluster the daily profiles.
    ///
    /// Fails when the seed is empty or no consumer yields both a PAR
    /// profile and a 3-line model.
    pub fn train(seed_data: &Dataset, config: GeneratorConfig) -> Result<Self> {
        if seed_data.is_empty() {
            return Err(Error::Invalid("seed dataset is empty".into()));
        }
        if config.clusters == 0 {
            return Err(Error::Invalid(
                "generator needs at least one cluster".into(),
            ));
        }
        let temperature = seed_data.temperature();
        let mut profiles: Vec<Vec<f64>> = Vec::with_capacity(seed_data.len());
        let mut thermals: Vec<ThermalResponse> = Vec::with_capacity(seed_data.len());
        // One arena serves every seed fit, both model families.
        let tl_config = ThreeLineConfig::default();
        with_fit_scratch(|scratch| {
            for c in seed_data.consumers() {
                let par = fit_par_scratch(c.id, c.readings(), temperature.values(), scratch);
                let Some(tl) = fit_three_line_scratch(
                    c.id,
                    c.readings(),
                    temperature.values(),
                    &tl_config,
                    scratch,
                ) else {
                    continue;
                };
                profiles.push(par.profile.to_vec());
                thermals.push(ThermalResponse {
                    heating_gradient: tl.heating_gradient().min(0.0),
                    cooling_gradient: tl.cooling_gradient().max(0.0),
                    heating_knot: tl.high.knots[0],
                    cooling_knot: tl.high.knots[1],
                });
            }
        });
        if profiles.is_empty() {
            return Err(Error::Invalid(
                "no seed consumer produced both a PAR profile and a 3-line model".into(),
            ));
        }
        let km = KMeans::fit(
            &profiles,
            KMeansConfig {
                k: config.clusters,
                seed: config.seed,
                ..Default::default()
            },
        )
        .ok_or_else(|| {
            Error::Invalid("seed consumers' daily profiles could not be clustered".into())
        })?;
        let mut clusters: Vec<ProfileCluster> = km
            .centroids
            .iter()
            .map(|c| {
                let mut centroid = [0.0; HOURS_PER_DAY];
                centroid.copy_from_slice(c);
                ProfileCluster {
                    centroid,
                    members: Vec::new(),
                }
            })
            .collect();
        for (i, &a) in km.assignments.iter().enumerate() {
            clusters[a].members.push(thermals[i]);
        }
        // Drop empty clusters (k-means repair can still leave stragglers
        // when k exceeds the effective number of distinct profiles).
        clusters.retain(|c| !c.members.is_empty());
        Ok(DataGenerator { clusters, config })
    }

    /// The trained activity clusters.
    pub fn clusters(&self) -> &[ProfileCluster] {
        &self.clusters
    }

    /// Generate `n` new consumers against `temperature`, ids starting at
    /// `first_id`.
    pub fn generate(
        &self,
        n: usize,
        temperature: &TemperatureSeries,
        first_id: u32,
    ) -> Result<Dataset> {
        let mut picker = Picker::new(self.config.seed.wrapping_mul(0x9E37_79B9));
        let mut noise =
            GaussianNoise::new(0.0, self.config.noise_sigma, self.config.seed ^ 0x5bd1e995);
        let consumers: Vec<ConsumerSeries> = (0..n)
            .map(|i| {
                self.generate_series(
                    ConsumerId(first_id + i as u32),
                    temperature,
                    &mut picker,
                    &mut noise,
                )
            })
            .collect::<Result<_>>()?;
        Dataset::new(consumers, temperature.clone())
    }

    /// Generate one synthetic consumer (Figure 3's per-series pipeline).
    fn generate_series(
        &self,
        id: ConsumerId,
        temperature: &TemperatureSeries,
        picker: &mut Picker,
        noise: &mut GaussianNoise,
    ) -> Result<ConsumerSeries> {
        // 1. Random activity cluster → centroid is the daily load shape.
        let cluster = &self.clusters[picker.index(self.clusters.len())];
        // 2. Random member of that cluster → heating/cooling response.
        let thermal = cluster.members[picker.index(cluster.members.len())];
        // 3. Sum activity, temperature-dependent load and white noise:
        //    the year's noise first, then each hour's load added to it.
        let temps = temperature.values();
        let mut readings = vec![0.0; temps.len()];
        noise.fill(&mut readings);
        for (h, (slot, &t)) in readings.iter_mut().zip(temps).enumerate() {
            let activity = cluster.centroid[h % HOURS_PER_DAY];
            *slot = (activity + thermal.load_at(t) + *slot).max(0.0);
        }
        ConsumerSeries::new(id, readings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed_dataset(n: usize) -> Dataset {
        generate_seed(&SeedConfig {
            consumers: n,
            seed: 7,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn train_and_generate_produces_valid_dataset() {
        let seed = seed_dataset(12);
        let gen = DataGenerator::train(
            &seed,
            GeneratorConfig {
                clusters: 3,
                noise_sigma: 0.05,
                seed: 1,
            },
        )
        .unwrap();
        assert!(!gen.clusters().is_empty());
        let out = gen.generate(20, seed.temperature(), 1000).unwrap();
        assert_eq!(out.len(), 20);
        assert_eq!(out.consumers()[0].id, ConsumerId(1000));
        // All readings valid by construction (ConsumerSeries::new checked).
        let stats = out.stats();
        assert!(stats.mean_annual_kwh > 0.0);
    }

    #[test]
    fn generated_data_is_deterministic_per_seed() {
        let seed = seed_dataset(8);
        let cfg = GeneratorConfig {
            clusters: 2,
            noise_sigma: 0.1,
            seed: 9,
        };
        let a = DataGenerator::train(&seed, cfg)
            .unwrap()
            .generate(5, seed.temperature(), 0)
            .unwrap();
        let b = DataGenerator::train(&seed, cfg)
            .unwrap()
            .generate(5, seed.temperature(), 0)
            .unwrap();
        for (x, y) in a.consumers().iter().zip(b.consumers()) {
            assert_eq!(x.readings(), y.readings());
        }
    }

    #[test]
    fn generated_series_equal_one_sample_per_hour() {
        let seed = seed_dataset(10);
        let gen = DataGenerator::train(&seed, GeneratorConfig::default()).unwrap();
        let temperature = seed.temperature();
        let mut picker = Picker::new(5);
        let mut noise = GaussianNoise::new(0.0, 0.1, 6);
        // Odd and even years' worth of draws alike: the spare carries on.
        noise.sample();
        for id in 0..4 {
            let (mut ref_picker, mut ref_noise) = (picker.clone(), noise.clone());
            let got = gen
                .generate_series(ConsumerId(id), temperature, &mut picker, &mut noise)
                .unwrap();
            // The series as first written: one `sample()` per hour.
            let cluster = &gen.clusters()[ref_picker.index(gen.clusters().len())];
            let thermal = cluster.members[ref_picker.index(cluster.members.len())];
            let want = temperature.values().iter().enumerate().map(|(h, &t)| {
                let activity = cluster.centroid[h % HOURS_PER_DAY];
                (activity + thermal.load_at(t) + ref_noise.sample()).max(0.0)
            });
            assert!(got
                .readings()
                .iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(format!("{noise:?}"), format!("{ref_noise:?}"));
        }
    }

    #[test]
    fn generated_consumption_responds_to_temperature() {
        let seed = seed_dataset(10);
        let gen = DataGenerator::train(
            &seed,
            GeneratorConfig {
                clusters: 2,
                noise_sigma: 0.0,
                seed: 3,
            },
        )
        .unwrap();
        let out = gen.generate(10, seed.temperature(), 0).unwrap();
        // The coldest 10% of hours should carry more load than the
        // mildest 30% (the seed archetypes all heat). Compare residuals
        // against each hour-of-day's mean so the daily activity shape
        // (busy evenings, quiet nights) cannot mask the thermal signal —
        // cold hours are not uniformly spread over the day.
        let temps = seed.temperature().values();
        let mut hod_mean = [0.0; HOURS_PER_DAY];
        let mut hod_count = [0usize; HOURS_PER_DAY];
        for c in out.consumers() {
            for (h, &r) in c.readings().iter().enumerate() {
                hod_mean[h % HOURS_PER_DAY] += r;
                hod_count[h % HOURS_PER_DAY] += 1;
            }
        }
        for (m, n) in hod_mean.iter_mut().zip(hod_count) {
            *m /= n as f64;
        }
        let mut idx: Vec<usize> = (0..temps.len()).collect();
        idx.sort_by(|&a, &b| temps[a].partial_cmp(&temps[b]).unwrap());
        let cold = &idx[..temps.len() / 10];
        let mild = &idx[temps.len() * 4 / 10..temps.len() * 7 / 10];
        let residual = |hours: &[usize]| -> f64 {
            let mut s = 0.0;
            for c in out.consumers() {
                for &h in hours {
                    s += c.readings()[h] - hod_mean[h % HOURS_PER_DAY];
                }
            }
            s / (hours.len() * out.len()) as f64
        };
        assert!(
            residual(cold) > residual(mild),
            "cold residual {} vs mild residual {}",
            residual(cold),
            residual(mild)
        );
    }

    #[test]
    fn rejects_empty_seed() {
        let temp = generate_temperature(&WeatherConfig::default(), 1);
        let empty = Dataset::new(vec![], temp).unwrap();
        assert!(DataGenerator::train(&empty, GeneratorConfig::default()).is_err());
    }

    #[test]
    fn rejects_zero_clusters() {
        let seed = seed_dataset(4);
        let cfg = GeneratorConfig {
            clusters: 0,
            ..Default::default()
        };
        assert!(DataGenerator::train(&seed, cfg).is_err());
    }

    #[test]
    fn thermal_response_load_shape() {
        let t = ThermalResponse {
            heating_gradient: -0.2,
            cooling_gradient: 0.3,
            heating_knot: 10.0,
            cooling_knot: 20.0,
        };
        assert!((t.load_at(0.0) - 2.0).abs() < 1e-12);
        assert_eq!(t.load_at(15.0), 0.0);
        assert!((t.load_at(25.0) - 1.5).abs() < 1e-12);
    }
}
