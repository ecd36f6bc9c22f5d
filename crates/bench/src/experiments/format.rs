//! Extension experiment: the `SMC1` binary format's cold-start story.
//!
//! For each sweep size the same seeded year is materialized three ways —
//! one big CSV, one packed `SMC1` file, one raw `SMC1` file — and the
//! cold load of each is timed: CSV parse ([`FileStore::read_all`]),
//! binary decode (open + [`BinaryStore::read_all`]), and the zero-copy
//! mmap path (open + one pass over the mapped matrix, page faults
//! only). The table also records the file sizes, the packed compression
//! ratio, and the headline `mmap_speedup` column the acceptance
//! criterion reads (mmap ≥ 5× faster than CSV parse at n = 1000). The
//! two `SMC1` writes are timed too (`write_packed_s`, `write_raw_s`,
//! best of three): they go through the same writer, so their ratio is
//! the packed encoder's share of a seal.
//!
//! The sweep axis carries *actual* household counts: nominal
//! {100, 1000, 5000} at the default divisor, scaled like every other
//! experiment otherwise.

use std::hint::black_box;
use std::time::{Duration, Instant};

use smda_format::{write_dataset, Encoding};
use smda_storage::{BinaryStore, FileLayout, FileStore};

use crate::data::{seed_dataset, Scratch};
use crate::report::{mib, secs, Table};
use crate::scale::Scale;

/// Nominal sweep sizes (households at the default scale).
const NOMINAL: [usize; 3] = [100, 1_000, 5_000];

/// The default divisor maps nominal sizes to themselves; other scales
/// shrink or grow the sweep with the rest of the suite.
fn actual(scale: Scale, nominal: usize) -> usize {
    ((nominal as f64 * 273.0 / scale.divisor).round() as usize).max(2)
}

/// Time one cold pass, returning the elapsed wall clock.
fn timed(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// The fastest of three writes of `ds` to `path` (each one replaces the
/// file the last wrote).
fn best_write(path: &std::path::Path, ds: &smda_types::Dataset, encoding: Encoding) -> Duration {
    (0..3)
        .map(|_| {
            timed(|| {
                write_dataset(path, ds, encoding).expect("SMC1 file is writable");
            })
        })
        .min()
        .expect("three samples")
}

/// Regenerate `results/format_sweep.csv`.
pub fn run(scale: Scale) -> Vec<Table> {
    let scratch = Scratch::new("format");
    let mut t = Table::new(
        "format_sweep",
        "Cold-start load: CSV parse vs SMC1 decode vs SMC1 mmap",
        &[
            "n",
            "csv_mib",
            "smc_packed_mib",
            "pack_ratio",
            "cold_csv_s",
            "cold_binary_s",
            "cold_mmap_s",
            "mmap_speedup",
            "write_packed_s",
            "write_raw_s",
        ],
    );

    for nominal in NOMINAL {
        let n = actual(scale, nominal);
        let ds = seed_dataset(n);

        // One big CSV, parsed back in full — the Matlab-style cold load.
        let csv_dir = scratch.path(&format!("csv-{n}"));
        let csv = FileStore::create(&csv_dir, &ds, FileLayout::Unpartitioned)
            .expect("csv store is writable");
        let csv_bytes = csv.total_bytes().expect("csv store is readable");
        let cold_csv = timed(|| {
            black_box(csv.read_all().expect("csv parses back"));
        });

        // Packed SMC1: open + checksum-verified decode of every block.
        let packed_path = scratch.path(&format!("packed-{n}.smc"));
        let write_packed = best_write(&packed_path, &ds, Encoding::Packed);
        let smc_bytes = std::fs::metadata(&packed_path)
            .expect("file size is readable")
            .len();
        let cold_binary = timed(|| {
            let store = BinaryStore::open(&packed_path).expect("packed store opens");
            black_box(store.read_all().expect("packed store decodes"));
        });

        // Raw SMC1 through the mapping: open + one summing pass over the
        // mapped matrix. No parse, no decode, no copy — page faults and
        // the open-time index/temperature validation are the entire cost.
        let raw_path = scratch.path(&format!("raw-{n}.smc"));
        let write_raw = best_write(&raw_path, &ds, Encoding::Raw);
        let cold_mmap = (0..3)
            .map(|_| {
                timed(|| {
                    let store = BinaryStore::open(&raw_path).expect("raw store opens");
                    match store.matrix_view() {
                        Some(matrix) => black_box(matrix.iter().sum::<f64>()),
                        // Owned fallback backing (no mmap syscall): the
                        // open already read the file; just touch it.
                        None => {
                            black_box(store.read_all().expect("raw store decodes").len() as f64)
                        }
                    };
                })
            })
            .min()
            .expect("three samples");

        let speedup = cold_csv.as_secs_f64() / cold_mmap.as_secs_f64().max(1e-9);
        t.row(vec![
            n.to_string(),
            mib(csv_bytes),
            mib(smc_bytes),
            format!("{:.2}", csv_bytes as f64 / smc_bytes as f64),
            secs(cold_csv),
            secs(cold_binary),
            secs(cold_mmap),
            format!("{speedup:.1}"),
            secs(write_packed),
            secs(write_raw),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_sizes_map_to_themselves_at_default_scale() {
        assert_eq!(actual(Scale::default(), 1_000), 1_000);
        assert_eq!(actual(Scale::smoke(), 1_000), 273);
        assert_eq!(actual(Scale::smoke(), 0), 2);
    }

    #[cfg_attr(debug_assertions, ignore = "full-sweep shape test; run with --release")]
    #[test]
    fn produces_three_rows_and_mmap_beats_csv() {
        let tables = run(Scale::smoke());
        let t = &tables[0];
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            let csv_mib: f64 = row[1].parse().unwrap();
            let ratio: f64 = row[3].parse().unwrap();
            let cold_csv: f64 = row[4].parse().unwrap();
            let cold_mmap: f64 = row[6].parse().unwrap();
            let speedup: f64 = row[7].parse().unwrap();
            assert!(csv_mib > 0.0);
            assert!(ratio > 1.0, "packed must beat the CSV size: {row:?}");
            assert!(cold_mmap < cold_csv, "mmap must beat the parse: {row:?}");
            assert!(speedup > 1.0);
            let write_packed: f64 = row[8].parse().unwrap();
            let write_raw: f64 = row[9].parse().unwrap();
            assert!(write_packed >= 0.0 && write_raw >= 0.0, "{row:?}");
        }
    }
}
