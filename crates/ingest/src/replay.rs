//! Deterministic replay: turn a finished year into a live stream.
//!
//! The benchmark has no live meter feed, so experiments synthesize one:
//! [`replay_events`] flattens a [`Dataset`] into [`Reading`]s and
//! perturbs each one's delivery order with a bounded, seeded event-time
//! jitter. The result models a realistic AMI head-end — readings arrive
//! roughly in hour order but shuffled within a window — while staying
//! exactly reproducible: the same seed yields the same stream on every
//! run, which is what lets the integration tests pin bit-identity
//! against the offline path.
//!
//! [`throttle`] optionally paces the stream against the wall clock at a
//! configurable speedup for demos and the `smda ingest` subcommand; the
//! bench experiments run unthrottled.

use smda_types::{ConsumerSeries, Dataset, Reading, HOURS_PER_YEAR};

use crate::splitmix64;

/// How a year is replayed as a live stream.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Maximum event-time displacement, in hours. A reading for hour
    /// `h` is delivered as if at `h + U(0, jitter_hours)`; keeping this
    /// at or below the pipeline's allowed lateness guarantees no reading
    /// is dropped as late.
    pub jitter_hours: u32,
    /// Seed for the per-reading jitter draw.
    pub seed: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            jitter_hours: 12,
            seed: 20150323,
        }
    }
}

/// Uniform draw in `[0, 1)` keyed on `(seed, consumer, hour)`.
fn jitter_unit(seed: u64, consumer: u32, hour: u32) -> f64 {
    let key = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(((consumer as u64) << 32) | hour as u64);
    (splitmix64(key) >> 11) as f64 / (1u64 << 53) as f64
}

/// Flatten `ds` into a deterministic out-of-order stream of readings.
///
/// Each reading's delivery key is `hour + jitter·u` with `u` drawn
/// statelessly from `(seed, consumer, hour)`; the stream is ordered by
/// that key, ties broken by consumer id and then by hour. With
/// `jitter_hours = 0` this is exactly hour-major order.
pub fn replay_events(ds: &Dataset, cfg: &ReplayConfig) -> Vec<Reading> {
    replay_order(ds, cfg.jitter_hours, |consumer, hour| {
        jitter_unit(cfg.seed, consumer, hour)
    })
}

/// One reading's place in the replay: its delivery key, and its
/// consumer's rank in id order above its hour, as one integer.
#[derive(Clone, Copy)]
struct Slot {
    key: f64,
    at: u64,
}

/// The replay order for delivery keys `hour + jitter_hours · unit(consumer,
/// hour)`, `unit` in `[0, 1)`.
///
/// A counting sort by the key's whole hour, then each hour sorted by the
/// full order (key, consumer id, hour). Buckets are monotone in the key,
/// so this is the order one sort of every reading by that comparator
/// gives; the comparator is total over a dataset (ids are unique), so the
/// per-hour sort needs no stability.
fn replay_order(ds: &Dataset, jitter_hours: u32, unit: impl Fn(u32, u32) -> f64) -> Vec<Reading> {
    // Consumers in id order: a slot names one by its rank, so comparing
    // `at` compares (consumer id, hour).
    let mut by_id: Vec<&ConsumerSeries> = ds.consumers().iter().collect();
    by_id.sort_unstable_by_key(|c| c.id);
    let key = |c: &ConsumerSeries, hour: usize| {
        hour as f64 + jitter_hours as f64 * unit(c.id.raw(), hour as u32)
    };
    // A key lies in `[hour, hour + jitter]`, the top included: `u < 1`,
    // but the product and the sum can round up to it. Buckets are whole
    // hours, widened for a jitter longer than a year so their count stays
    // near one year's.
    let jitter = jitter_hours as usize;
    let width = jitter / HOURS_PER_YEAR + 1;
    let bucket = |key: f64| key as usize / width;
    let buckets = (HOURS_PER_YEAR - 1 + jitter) / width + 1;
    // Hour-major passes: the slots written next sit in a window of
    // `jitter` buckets.
    let mut starts = vec![0usize; buckets + 1];
    for hour in 0..HOURS_PER_YEAR {
        for c in &by_id {
            starts[bucket(key(c, hour)) + 1] += 1;
        }
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    let mut next = starts[..buckets].to_vec();
    let mut slots = vec![Slot { key: 0.0, at: 0 }; ds.reading_count()];
    for hour in 0..HOURS_PER_YEAR {
        for (rank, c) in by_id.iter().enumerate() {
            let key = key(c, hour);
            let cursor = &mut next[bucket(key)];
            slots[*cursor] = Slot {
                key,
                at: (rank as u64) << 32 | hour as u64,
            };
            *cursor += 1;
        }
    }
    for hour in starts.windows(2) {
        slots[hour[0]..hour[1]]
            .sort_unstable_by(|a, b| a.key.total_cmp(&b.key).then(a.at.cmp(&b.at)));
    }
    let temperature = ds.temperature().values();
    slots
        .iter()
        .map(|slot| {
            let c = by_id[(slot.at >> 32) as usize];
            let hour = slot.at as u32;
            Reading {
                consumer: c.id,
                hour,
                temperature: temperature[hour as usize],
                kwh: c.readings()[hour as usize],
            }
        })
        .collect()
}

/// Pace `events` against the wall clock: one event hour takes
/// `3600 / speedup` real seconds. `speedup <= 0` disables throttling.
pub fn throttle(events: Vec<Reading>, speedup: f64) -> impl Iterator<Item = Reading> {
    let started = std::time::Instant::now();
    let seconds_per_hour = if speedup > 0.0 { 3600.0 / speedup } else { 0.0 };
    events.into_iter().inspect(move |r| {
        if seconds_per_hour > 0.0 {
            let due = std::time::Duration::from_secs_f64(r.hour as f64 * seconds_per_hour);
            let elapsed = started.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_types::{ConsumerId, ConsumerSeries, TemperatureSeries, HOURS_PER_YEAR};

    fn tiny_dataset() -> Dataset {
        let consumers = (1..=3)
            .map(|id| {
                ConsumerSeries::new(
                    ConsumerId(id),
                    (0..HOURS_PER_YEAR).map(|h| (h % 7) as f64).collect(),
                )
                .unwrap()
            })
            .collect();
        let temps = TemperatureSeries::new(vec![8.0; HOURS_PER_YEAR]).unwrap();
        Dataset::new(consumers, temps).unwrap()
    }

    /// The order as it was first built, kept as the oracle: every reading
    /// paired with its key, then one stable sort of all of them.
    fn replay_by_one_sort(
        ds: &Dataset,
        jitter_hours: u32,
        unit: impl Fn(u32, u32) -> f64,
    ) -> Vec<Reading> {
        let mut keyed: Vec<(f64, Reading)> = ds
            .readings()
            .map(|r| {
                let u = unit(r.consumer.raw(), r.hour);
                (r.hour as f64 + jitter_hours as f64 * u, r)
            })
            .collect();
        keyed.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then_with(|| a.1.consumer.cmp(&b.1.consumer))
                .then_with(|| a.1.hour.cmp(&b.1.hour))
        });
        keyed.into_iter().map(|(_, r)| r).collect()
    }

    /// Consumers with the given ids, each year's readings unique to it.
    fn dataset_with_ids(ids: &[u32]) -> Dataset {
        let consumers = ids
            .iter()
            .map(|&id| {
                let year = (0..HOURS_PER_YEAR).map(|h| (id as usize * HOURS_PER_YEAR + h) as f64);
                ConsumerSeries::new(ConsumerId(id), year.collect()).unwrap()
            })
            .collect();
        let temps = (0..HOURS_PER_YEAR).map(|h| (h % 40) as f64 - 10.0);
        Dataset::new(consumers, TemperatureSeries::new(temps.collect()).unwrap()).unwrap()
    }

    /// The largest unit draw `jitter_unit` can return, `1 − 2⁻⁵³`.
    const TOP_UNIT: f64 = ((1u64 << 53) - 1) as f64 / (1u64 << 53) as f64;

    #[test]
    fn hour_buckets_give_the_one_sort_order() {
        // Unit draws: the seeded one; a coarse one (quarters) whose keys
        // tie across consumers, hours apart, and across one consumer's
        // hours; and the largest draw, whose key rounds up to
        // `hour + jitter` late in the year.
        let seeded = |c: u32, h: u32| jitter_unit(11, c, h);
        let coarse = |c: u32, h: u32| f64::from((c * 7 + h) % 4) / 4.0;
        let top = |_: u32, _: u32| TOP_UNIT;
        let units: [&dyn Fn(u32, u32) -> f64; 3] = [&seeded, &coarse, &top];
        for ids in [&[][..], &[9], &[40, 3, 17, 8, 29]] {
            let ds = dataset_with_ids(ids);
            for jitter in [0, 1, 6, 12, 24] {
                for (which, unit) in units.iter().enumerate() {
                    let got = replay_order(&ds, jitter, unit);
                    let want = replay_by_one_sort(&ds, jitter, unit);
                    assert_eq!(got.len(), ids.len() * HOURS_PER_YEAR);
                    assert!(got == want, "ids {ids:?}, jitter {jitter}, unit {which}");
                }
            }
        }
        // The top case does reach the top bucket.
        let last = (HOURS_PER_YEAR - 1) as f64;
        assert_eq!(last + 24.0 * TOP_UNIT, last + 24.0);
    }

    #[test]
    fn a_jitter_longer_than_a_year_keeps_the_order() {
        let ds = dataset_with_ids(&[5, 2]);
        for jitter in [HOURS_PER_YEAR as u32, 100_000, u32::MAX] {
            let unit = |c: u32, h: u32| jitter_unit(3, c, h);
            assert!(replay_order(&ds, jitter, unit) == replay_by_one_sort(&ds, jitter, unit));
        }
        let top = |_: u32, _: u32| TOP_UNIT;
        assert!(replay_order(&ds, u32::MAX, top) == replay_by_one_sort(&ds, u32::MAX, top));
    }

    #[test]
    fn replay_is_deterministic_and_complete() {
        let ds = tiny_dataset();
        let cfg = ReplayConfig::default();
        let a = replay_events(&ds, &cfg);
        let b = replay_events(&ds, &cfg);
        assert_eq!(a.len(), 3 * HOURS_PER_YEAR);
        assert_eq!(a, b);
    }

    #[test]
    fn jitter_displacement_is_bounded() {
        let ds = tiny_dataset();
        let cfg = ReplayConfig {
            jitter_hours: 6,
            seed: 7,
        };
        let events = replay_events(&ds, &cfg);
        // A reading can only be overtaken by readings within the jitter
        // window: track the running max hour and bound the regression.
        let mut max_hour = 0;
        for r in &events {
            assert!(r.hour + 6 >= max_hour, "displacement exceeded jitter");
            max_hour = max_hour.max(r.hour);
        }
    }

    #[test]
    fn zero_jitter_is_hour_major_order() {
        let ds = tiny_dataset();
        let cfg = ReplayConfig {
            jitter_hours: 0,
            seed: 1,
        };
        let events = replay_events(&ds, &cfg);
        for w in events.windows(2) {
            assert!(
                w[0].hour < w[1].hour || (w[0].hour == w[1].hour && w[0].consumer < w[1].consumer)
            );
        }
    }

    #[test]
    fn different_seeds_shuffle_differently() {
        let ds = tiny_dataset();
        let a = replay_events(
            &ds,
            &ReplayConfig {
                jitter_hours: 12,
                seed: 1,
            },
        );
        let b = replay_events(
            &ds,
            &ReplayConfig {
                jitter_hours: 12,
                seed: 2,
            },
        );
        assert_ne!(a, b);
    }
}
