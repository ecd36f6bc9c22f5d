//! Seeded inputs: every consumer-year comes from the program's own seed
//! generator, keyed by a sub-seed of `--seed`, and goes to the program
//! only as rows, files or events.

use std::path::Path;

use smda_core::generator::{generate_seed, generate_seed_streaming};
use smda_core::SeedConfig;
use smda_storage::{BinaryEncoding, BinaryWriter};
use smda_types::{ConsumerId, Dataset, Result, TemperatureSeries, HOURS_PER_YEAR};

fn config(n: usize, seed: u64) -> SeedConfig {
    SeedConfig {
        consumers: n,
        seed,
        ..SeedConfig::default()
    }
}

/// Hand `n` consumer-years to `sink` one at a time; nothing is kept.
pub fn stream_rows(
    n: usize,
    seed: u64,
    sink: &mut dyn FnMut(ConsumerId, &[f64]) -> Result<()>,
) -> Result<TemperatureSeries> {
    generate_seed_streaming(&config(n, seed), sink)
}

/// `n` consumer-years as an in-memory dataset.
pub fn dataset(n: usize, seed: u64) -> Result<Dataset> {
    generate_seed(&config(n, seed))
}

/// Stream `n` consumer-years into one `.smc` per `(path, encoding)` in
/// a single generation pass, so the rows are never all resident.
/// Returns the total bytes written.
pub fn write_smc(n: usize, seed: u64, targets: &[(&Path, BinaryEncoding)]) -> Result<u64> {
    let mut writers = targets
        .iter()
        .map(|(path, encoding)| BinaryWriter::create(path, n, HOURS_PER_YEAR, *encoding))
        .collect::<Result<Vec<_>>>()?;
    let temperature = stream_rows(n, seed, &mut |id, kwh| {
        writers
            .iter_mut()
            .try_for_each(|w| w.append_consumer(id, kwh))
    })?;
    writers
        .into_iter()
        .map(|w| w.finish(temperature.values()))
        .sum()
}

/// Bit-for-bit equality of two datasets: ids, readings, temperature.
pub fn dataset_bits_eq(a: &Dataset, b: &Dataset) -> bool {
    let bits_eq = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.len() == b.len()
        && bits_eq(a.temperature().values(), b.temperature().values())
        && a.consumers()
            .iter()
            .zip(b.consumers())
            .all(|(x, y)| x.id == y.id && bits_eq(x.readings(), y.readings()))
}
