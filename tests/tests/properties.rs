//! Cross-crate property tests: invariants that must hold for *any*
//! dataset, not just the fixtures.

use proptest::prelude::*;
use smda_core::tasks::run_reference;
use smda_core::{Task, TaskOutput};
use smda_types::formats::{assemble_consumers, assemble_households, HouseholdYear};
use smda_types::{
    ConsumerId, ConsumerSeries, Dataset, Error, Reading, Result, TemperatureSeries, HOURS_PER_YEAR,
};

/// Strategy: a small dataset with arbitrary (bounded) readings.
fn dataset_strategy(max_consumers: usize) -> impl Strategy<Value = Dataset> {
    (1..=max_consumers, any::<u32>()).prop_map(|(n, seed)| {
        // Cheap deterministic pseudo-random readings from the seed.
        let mut state = seed as u64 | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 10_000) as f64 / 1_000.0
        };
        let temps: Vec<f64> = (0..HOURS_PER_YEAR).map(|_| next() * 8.0 - 20.0).collect();
        let consumers = (0..n as u32)
            .map(|i| {
                ConsumerSeries::new(ConsumerId(i), (0..HOURS_PER_YEAR).map(|_| next()).collect())
                    .expect("bounded readings are valid")
            })
            .collect();
        Dataset::new(
            consumers,
            TemperatureSeries::new(temps).expect("bounded temps"),
        )
        .expect("unique ids")
    })
}

/// A seeded Fisher–Yates shuffle: the order rows reach a reducer in.
fn shuffled(mut rows: Vec<Reading>, seed: u64) -> Vec<Reading> {
    let mut state = seed | 1;
    for i in (1..rows.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        rows.swap(i, (state % (i as u64 + 1)) as usize);
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn any_order_of_complete_households_assembles_to_the_same_bits(
        ds in dataset_strategy(3),
        seed in any::<u64>(),
    ) {
        let rows = shuffled(ds.readings().collect(), seed);
        let years: Vec<HouseholdYear> = assemble_households(rows).collect::<Result<_>>().unwrap();
        prop_assert_eq!(years.len(), ds.len());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for (year, c) in years.iter().zip(ds.consumers()) {
            prop_assert_eq!(year.consumer, c.id);
            prop_assert_eq!(bits(&year.kwh), bits(c.readings()));
            prop_assert_eq!(bits(&year.temperature), bits(ds.temperature().values()));
        }
    }

    #[test]
    fn one_row_dropped_duplicated_or_out_of_range_names_its_household(
        ds in dataset_strategy(3),
        seed in any::<u64>(),
        pick in any::<u32>(),
        damage in 0..3usize,
    ) {
        let mut rows: Vec<Reading> = ds.readings().collect();
        let at = pick as usize % rows.len();
        let victim = rows[at].consumer;
        match damage {
            0 => drop(rows.remove(at)),
            1 => rows.push(rows[at]),
            _ => rows[at].hour += HOURS_PER_YEAR as u32,
        }
        let refused = assemble_households(shuffled(rows, seed)).find_map(|year| year.err());
        match refused {
            Some(Error::Schema(msg)) => {
                prop_assert!(msg.contains(&victim.to_string()), "{}", msg)
            }
            other => prop_assert!(false, "want a schema error, got {:?}", other),
        }
    }

    #[test]
    fn readings_assemble_back_to_the_same_dataset(ds in dataset_strategy(3)) {
        let rows: Vec<_> = ds.readings().collect();
        let back = assemble_consumers(rows).unwrap();
        prop_assert_eq!(back.len(), ds.len());
        for (a, b) in back.iter().zip(ds.consumers()) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.readings(), b.readings());
        }
    }

    #[test]
    fn histogram_counts_sum_to_hours(ds in dataset_strategy(3)) {
        let TaskOutput::Histograms(hs) = run_reference(Task::Histogram, &ds) else {
            unreachable!()
        };
        for h in hs {
            prop_assert_eq!(h.histogram.total(), HOURS_PER_YEAR as u64);
        }
    }

    #[test]
    fn par_profiles_are_non_negative_and_bounded(ds in dataset_strategy(2)) {
        let TaskOutput::Par(models) = run_reference(Task::Par, &ds) else { unreachable!() };
        for (m, c) in models.iter().zip(ds.consumers()) {
            let peak = c.peak();
            for &p in &m.profile {
                prop_assert!(p >= 0.0);
                prop_assert!(p <= peak * 3.0 + 1.0, "profile {p} vs peak {peak}");
            }
        }
    }

    #[test]
    fn similarity_is_reflexive_free_and_bounded(ds in dataset_strategy(4)) {
        let TaskOutput::Similarity(matches) = run_reference(Task::Similarity, &ds) else {
            unreachable!()
        };
        for m in &matches {
            prop_assert!(m.matches.iter().all(|(id, _)| *id != m.consumer));
            prop_assert!(m.matches.iter().all(|(_, s)| (-1.0001..=1.0001).contains(s)));
            // Descending scores.
            prop_assert!(m.matches.windows(2).all(|w| w[0].1 >= w[1].1 - 1e-12));
        }
    }

    #[test]
    fn three_line_segments_are_ordered(ds in dataset_strategy(2)) {
        let TaskOutput::ThreeLine(models) = run_reference(Task::ThreeLine, &ds) else {
            unreachable!()
        };
        for m in models {
            prop_assert!(m.high.knots[0] <= m.high.knots[1]);
            prop_assert!(m.low.knots[0] <= m.low.knots[1]);
            // Base load cannot exceed the highest reading.
            prop_assert!(m.base_load() <= 12.0);
        }
    }
}
