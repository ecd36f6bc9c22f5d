//! The synthetic seed dataset and weather model.
//!
//! The paper trains its generator on a private 27,300-consumer dataset
//! from a southern-Ontario utility. That data cannot be redistributed, so
//! this module builds a statistically comparable stand-in: a seasonal +
//! diurnal + AR(1) weather model calibrated to southern Ontario, and a set
//! of household *archetypes* (occupancy schedules with distinct daily
//! shapes, HVAC responses and base loads) from which individual
//! households are drawn with per-household scale and thermal jitter.
//! The paper's own generator (the parent module) then amplifies this seed
//! exactly as published.

use smda_stats::{GaussianNoise, Picker};
use smda_types::{
    Calendar, ConsumerId, ConsumerSeries, Dataset, Result, TemperatureSeries, DAYS_PER_YEAR,
    HOURS_PER_DAY, HOURS_PER_YEAR,
};

/// Parameters of the synthetic weather model.
#[derive(Debug, Clone, Copy)]
pub struct WeatherConfig {
    /// Annual mean temperature, °C (southern Ontario ≈ 7.5).
    pub annual_mean: f64,
    /// Seasonal (annual cycle) amplitude, °C.
    pub seasonal_amplitude: f64,
    /// Diurnal (daily cycle) amplitude, °C.
    pub diurnal_amplitude: f64,
    /// Day of year of the coldest point of the seasonal cycle.
    pub coldest_day: usize,
    /// Stationary standard deviation of the AR(1) weather noise, °C.
    pub noise_sigma: f64,
    /// AR(1) persistence of the weather noise (0..1).
    pub noise_phi: f64,
}

impl Default for WeatherConfig {
    fn default() -> Self {
        WeatherConfig {
            annual_mean: 7.5,
            seasonal_amplitude: 14.0,
            diurnal_amplitude: 4.0,
            coldest_day: 15,
            noise_sigma: 3.0,
            noise_phi: 0.85,
        }
    }
}

/// Generate one year of hourly temperatures from the weather model.
pub fn generate_temperature(config: &WeatherConfig, seed: u64) -> TemperatureSeries {
    use std::f64::consts::TAU;
    // Innovations scaled so the AR(1) process has stationary σ = noise_sigma.
    let innovation_sigma = config.noise_sigma * (1.0 - config.noise_phi * config.noise_phi).sqrt();
    let mut values = vec![0.0; HOURS_PER_YEAR];
    GaussianNoise::new(0.0, innovation_sigma, seed).fill(&mut values);
    let mut ar = 0.0;
    for (h, slot) in values.iter_mut().enumerate() {
        let day = (h / HOURS_PER_DAY) as f64;
        let hod = (h % HOURS_PER_DAY) as f64;
        let seasonal =
            -config.seasonal_amplitude * (TAU * (day - config.coldest_day as f64) / 365.0).cos();
        // Daily maximum around 15:00.
        let diurnal = -config.diurnal_amplitude * (TAU * (hod - 3.0) / 24.0).cos();
        ar = config.noise_phi * ar + *slot;
        *slot = config.annual_mean + seasonal + diurnal + ar;
    }
    TemperatureSeries::new(values).expect("weather model produces finite values")
}

/// A household archetype: a daily occupancy/activity shape plus an HVAC
/// and base-load profile. Values are kWh per hour before per-household
/// scaling.
#[derive(Debug, Clone)]
pub struct Archetype {
    /// Human-readable name (for reports and examples).
    pub name: &'static str,
    /// Activity load per hour of day, weekdays.
    pub weekday: [f64; HOURS_PER_DAY],
    /// Activity load per hour of day, weekends.
    pub weekend: [f64; HOURS_PER_DAY],
    /// Always-on load, kWh per hour.
    pub base_load: f64,
    /// Heating response, kWh per °C below the heating balance point.
    pub heating_per_degree: f64,
    /// Cooling response, kWh per °C above the cooling balance point.
    pub cooling_per_degree: f64,
    /// Heating balance point, °C.
    pub heating_balance: f64,
    /// Cooling balance point, °C.
    pub cooling_balance: f64,
}

fn shape(values: [(usize, usize, f64); 5]) -> [f64; HOURS_PER_DAY] {
    // Build a 24-value shape from (start, end, level) bands; the last band
    // listed wins on overlap. Hours not covered default to the first band.
    let mut out = [values[0].2; HOURS_PER_DAY];
    for (start, end, level) in values {
        for slot in out.iter_mut().take(end.min(HOURS_PER_DAY)).skip(start) {
            *slot = level;
        }
    }
    out
}

/// The built-in archetypes. Six distinct daily habits give k-means in the
/// parent module real structure to find.
fn archetypes() -> Vec<Archetype> {
    vec![
        Archetype {
            name: "early-bird family",
            weekday: shape([
                (0, 24, 0.25),
                (5, 8, 1.6),
                (8, 16, 0.45),
                (16, 21, 1.3),
                (21, 24, 0.5),
            ]),
            weekend: shape([
                (0, 24, 0.35),
                (7, 11, 1.4),
                (11, 17, 0.9),
                (17, 22, 1.5),
                (22, 24, 0.5),
            ]),
            base_load: 0.25,
            heating_per_degree: 0.10,
            cooling_per_degree: 0.14,
            heating_balance: 14.0,
            cooling_balance: 21.0,
        },
        Archetype {
            name: "nine-to-five commuter",
            weekday: shape([
                (0, 24, 0.2),
                (6, 9, 1.2),
                (9, 17, 0.25),
                (17, 23, 1.6),
                (23, 24, 0.4),
            ]),
            weekend: shape([
                (0, 24, 0.3),
                (9, 13, 1.2),
                (13, 18, 0.8),
                (18, 23, 1.4),
                (23, 24, 0.4),
            ]),
            base_load: 0.2,
            heating_per_degree: 0.07,
            cooling_per_degree: 0.10,
            heating_balance: 15.0,
            cooling_balance: 22.0,
        },
        Archetype {
            name: "night owl",
            weekday: shape([
                (0, 3, 1.3),
                (3, 11, 0.3),
                (11, 18, 0.6),
                (18, 24, 1.1),
                (0, 1, 1.4),
            ]),
            weekend: shape([
                (0, 4, 1.5),
                (4, 12, 0.3),
                (12, 19, 0.7),
                (19, 24, 1.2),
                (0, 1, 1.5),
            ]),
            base_load: 0.3,
            heating_per_degree: 0.06,
            cooling_per_degree: 0.12,
            heating_balance: 14.0,
            cooling_balance: 20.0,
        },
        Archetype {
            name: "home all day",
            weekday: shape([
                (0, 24, 0.4),
                (7, 22, 1.0),
                (12, 14, 1.3),
                (17, 20, 1.4),
                (22, 24, 0.5),
            ]),
            weekend: shape([
                (0, 24, 0.4),
                (8, 22, 1.0),
                (12, 14, 1.3),
                (17, 20, 1.4),
                (22, 24, 0.5),
            ]),
            base_load: 0.35,
            heating_per_degree: 0.12,
            cooling_per_degree: 0.16,
            heating_balance: 16.0,
            cooling_balance: 21.0,
        },
        Archetype {
            name: "frugal minimalist",
            weekday: shape([
                (0, 24, 0.12),
                (7, 9, 0.5),
                (18, 22, 0.6),
                (22, 24, 0.2),
                (0, 6, 0.1),
            ]),
            weekend: shape([
                (0, 24, 0.15),
                (9, 12, 0.5),
                (18, 22, 0.55),
                (22, 24, 0.2),
                (0, 7, 0.1),
            ]),
            base_load: 0.1,
            heating_per_degree: 0.03,
            cooling_per_degree: 0.02,
            heating_balance: 12.0,
            cooling_balance: 24.0,
        },
        Archetype {
            name: "electric-heat rural",
            weekday: shape([
                (0, 24, 0.3),
                (6, 9, 1.1),
                (16, 22, 1.3),
                (22, 24, 0.5),
                (9, 16, 0.5),
            ]),
            weekend: shape([
                (0, 24, 0.35),
                (8, 12, 1.1),
                (16, 22, 1.3),
                (22, 24, 0.5),
                (12, 16, 0.7),
            ]),
            base_load: 0.4,
            heating_per_degree: 0.22,
            cooling_per_degree: 0.08,
            heating_balance: 16.0,
            cooling_balance: 23.0,
        },
    ]
}

/// Configuration of the seed generator.
#[derive(Debug, Clone, Copy)]
pub struct SeedConfig {
    /// Number of households to synthesize.
    pub consumers: usize,
    /// Master RNG seed.
    pub seed: u64,
    /// Weather model parameters.
    pub weather: WeatherConfig,
    /// Per-reading measurement/behaviour noise σ, kWh.
    pub noise_sigma: f64,
}

impl Default for SeedConfig {
    fn default() -> Self {
        SeedConfig {
            consumers: 100,
            seed: 2014,
            weather: WeatherConfig::default(),
            noise_sigma: 0.08,
        }
    }
}

/// Stream the seed dataset one household-year at a time: each row is
/// handed to `sink` as it is drawn and never retained, so generating
/// `n` consumers needs `O(hours)` working memory instead of
/// `O(n · hours)`. The RNG draw order is exactly
/// [`generate_seed`]'s — that function is built on this one — so the
/// streamed rows are bit-identical to the materialized dataset's.
/// Returns the shared temperature year.
pub fn generate_seed_streaming(
    config: &SeedConfig,
    sink: &mut dyn FnMut(ConsumerId, &[f64]) -> Result<()>,
) -> Result<TemperatureSeries> {
    let temperature = generate_temperature(&config.weather, config.seed);
    let archetypes = archetypes();
    let calendar = Calendar::default();
    let weekend: [bool; DAYS_PER_YEAR] =
        std::array::from_fn(|day| calendar.weekday(day * HOURS_PER_DAY).is_weekend());
    let mut picker = Picker::new(config.seed.wrapping_add(1));
    let mut noise = GaussianNoise::new(0.0, config.noise_sigma, config.seed.wrapping_add(2));
    let temps = temperature.values();
    let mut readings = vec![0.0; HOURS_PER_YEAR];

    for i in 0..config.consumers {
        let arch = &archetypes[picker.index(archetypes.len())];
        // Household-level variation: overall scale, thermal jitter.
        let scale = picker.uniform(0.7, 1.4);
        let heat = arch.heating_per_degree * picker.uniform(0.75, 1.25);
        let cool = arch.cooling_per_degree * picker.uniform(0.75, 1.25);
        // The year's noise first, then each hour's load added to its draw.
        noise.fill(&mut readings);
        let days = readings
            .chunks_exact_mut(HOURS_PER_DAY)
            .zip(temps.chunks_exact(HOURS_PER_DAY));
        for ((day, temps), &weekend) in days.zip(&weekend) {
            let shape = if weekend {
                &arch.weekend
            } else {
                &arch.weekday
            };
            for ((slot, &activity), &t) in day.iter_mut().zip(shape).zip(temps) {
                let hvac = heat * (arch.heating_balance - t).max(0.0)
                    + cool * (t - arch.cooling_balance).max(0.0);
                *slot = (scale * activity + arch.base_load + hvac + *slot).max(0.0);
            }
        }
        sink(ConsumerId(i as u32), &readings)?;
    }
    Ok(temperature)
}

/// Generate the synthetic seed dataset.
pub fn generate_seed(config: &SeedConfig) -> Result<Dataset> {
    let mut consumers: Vec<ConsumerSeries> = Vec::with_capacity(config.consumers);
    let temperature = generate_seed_streaming(config, &mut |id, readings| {
        consumers.push(ConsumerSeries::new(id, readings.to_vec())?);
        Ok(())
    })?;
    Dataset::new(consumers, temperature)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temperature_has_seasonal_structure() {
        let t = generate_temperature(&WeatherConfig::default(), 1);
        // January is colder than July on average.
        let jan: f64 = t.values()[..31 * 24].iter().sum::<f64>() / (31.0 * 24.0);
        let jul_start = 182 * 24;
        let jul: f64 = t.values()[jul_start..jul_start + 31 * 24]
            .iter()
            .sum::<f64>()
            / (31.0 * 24.0);
        assert!(jul > jan + 15.0, "jul {jul} vs jan {jan}");
        // Range plausible for southern Ontario.
        let min = t.values().iter().copied().fold(f64::INFINITY, f64::min);
        let max = t.values().iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(min > -40.0 && min < 0.0, "min {min}");
        assert!(max > 20.0 && max < 45.0, "max {max}");
    }

    #[test]
    fn temperature_has_diurnal_structure() {
        let t = generate_temperature(&WeatherConfig::default(), 2);
        // Afternoon (15:00) warmer than pre-dawn (04:00), averaged over
        // the year.
        let mut afternoon = 0.0;
        let mut predawn = 0.0;
        for d in 0..365 {
            afternoon += t.values()[d * 24 + 15];
            predawn += t.values()[d * 24 + 4];
        }
        assert!(afternoon > predawn + 365.0 * 2.0);
    }

    #[test]
    fn seed_dataset_has_heterogeneous_households() {
        let ds = generate_seed(&SeedConfig {
            consumers: 30,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(ds.len(), 30);
        let totals: Vec<f64> = ds.consumers().iter().map(|c| c.annual_total()).collect();
        let lo = totals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = totals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Frugal minimalists vs electric-heat rural: a wide spread.
        assert!(hi > 2.0 * lo, "annual totals too uniform: {lo}..{hi}");
        // Plausible annual consumption range (MWh-scale).
        assert!(lo > 500.0, "min annual {lo} kWh too low");
        // All-electric rural households in cold climates reach 30–40 MWh.
        assert!(hi < 40_000.0, "max annual {hi} kWh too high");
    }

    #[test]
    fn streaming_rows_are_bit_identical_to_the_dataset() {
        let cfg = SeedConfig {
            consumers: 7,
            seed: 42,
            ..Default::default()
        };
        let ds = generate_seed(&cfg).unwrap();
        let mut i = 0;
        let temp = generate_seed_streaming(&cfg, &mut |id, readings| {
            let c = &ds.consumers()[i];
            assert_eq!(id, c.id);
            assert!(readings
                .iter()
                .zip(c.readings())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            i += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(i, 7);
        assert!(temp
            .values()
            .iter()
            .zip(ds.temperature().values())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    /// The seed generator as first written: one `sample()` and one
    /// `Calendar::weekday` per hour, from samplers seeded as the
    /// generator seeds its own.
    fn seed_rows_one_sample_at_a_time(config: &SeedConfig) -> (Vec<f64>, Vec<Vec<f64>>) {
        use std::f64::consts::TAU;
        let w = &config.weather;
        let innovation_sigma = w.noise_sigma * (1.0 - w.noise_phi * w.noise_phi).sqrt();
        let mut weather = GaussianNoise::new(0.0, innovation_sigma, config.seed);
        let mut ar = 0.0;
        let temps: Vec<f64> = (0..HOURS_PER_YEAR)
            .map(|h| {
                let day = (h / HOURS_PER_DAY) as f64;
                let hod = (h % HOURS_PER_DAY) as f64;
                let seasonal =
                    -w.seasonal_amplitude * (TAU * (day - w.coldest_day as f64) / 365.0).cos();
                let diurnal = -w.diurnal_amplitude * (TAU * (hod - 3.0) / 24.0).cos();
                ar = w.noise_phi * ar + weather.sample();
                w.annual_mean + seasonal + diurnal + ar
            })
            .collect();
        let archetypes = archetypes();
        let calendar = Calendar::default();
        let mut picker = Picker::new(config.seed.wrapping_add(1));
        let mut noise = GaussianNoise::new(0.0, config.noise_sigma, config.seed.wrapping_add(2));
        let rows = (0..config.consumers)
            .map(|_| {
                let arch = &archetypes[picker.index(archetypes.len())];
                let scale = picker.uniform(0.7, 1.4);
                let heat = arch.heating_per_degree * picker.uniform(0.75, 1.25);
                let cool = arch.cooling_per_degree * picker.uniform(0.75, 1.25);
                (0..HOURS_PER_YEAR)
                    .map(|h| {
                        let hod = h % HOURS_PER_DAY;
                        let activity = if calendar.weekday(h).is_weekend() {
                            arch.weekend[hod]
                        } else {
                            arch.weekday[hod]
                        };
                        let t = temps[h];
                        let hvac = heat * (arch.heating_balance - t).max(0.0)
                            + cool * (t - arch.cooling_balance).max(0.0);
                        (scale * activity + arch.base_load + hvac + noise.sample()).max(0.0)
                    })
                    .collect()
            })
            .collect();
        (temps, rows)
    }

    #[test]
    fn streamed_rows_equal_one_sample_per_hour() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for (consumers, seed, noise_sigma) in [(5, 3, 0.08), (3, 2014, 0.5), (2, 9, 0.0)] {
            let cfg = SeedConfig {
                consumers,
                seed,
                noise_sigma,
                ..Default::default()
            };
            let (temps, rows) = seed_rows_one_sample_at_a_time(&cfg);
            let mut streamed = Vec::new();
            let temperature = generate_seed_streaming(&cfg, &mut |id, readings| {
                assert_eq!(id, ConsumerId(streamed.len() as u32));
                streamed.push(bits(readings));
                Ok(())
            })
            .unwrap();
            assert_eq!(bits(temperature.values()), bits(&temps));
            let want: Vec<Vec<u64>> = rows.iter().map(|r| bits(r)).collect();
            assert!(streamed == want, "seed {seed}: rows differ");
        }
    }

    #[test]
    fn seed_is_deterministic() {
        let cfg = SeedConfig {
            consumers: 5,
            seed: 11,
            ..Default::default()
        };
        let a = generate_seed(&cfg).unwrap();
        let b = generate_seed(&cfg).unwrap();
        for (x, y) in a.consumers().iter().zip(b.consumers()) {
            assert_eq!(x.readings(), y.readings());
        }
        assert_eq!(a.temperature().values(), b.temperature().values());
    }

    #[test]
    fn winter_consumption_exceeds_spring() {
        let ds = generate_seed(&SeedConfig {
            consumers: 20,
            ..Default::default()
        })
        .unwrap();
        let mut winter = 0.0; // January
        let mut spring = 0.0; // May
        for c in ds.consumers() {
            winter += c.readings()[..31 * 24].iter().sum::<f64>();
            let may = 120 * 24;
            spring += c.readings()[may..may + 31 * 24].iter().sum::<f64>();
        }
        assert!(winter > spring, "winter {winter} vs spring {spring}");
    }

    #[test]
    fn archetype_shapes_are_distinct() {
        let arch = archetypes();
        assert!(arch.len() >= 4);
        // Night owl's midnight load exceeds its morning load; commuter is
        // the opposite.
        let owl = arch.iter().find(|a| a.name == "night owl").unwrap();
        assert!(owl.weekday[0] > owl.weekday[9]);
        let commuter = arch
            .iter()
            .find(|a| a.name == "nine-to-five commuter")
            .unwrap();
        assert!(commuter.weekday[7] > commuter.weekday[12]);
    }
}
