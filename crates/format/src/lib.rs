//! `smda-format` — `SMC1`, the workspace's indexed binary columnar
//! on-disk format for smart-meter years.
//!
//! The benchmark's CSV loaders pay a full parse on every cold start;
//! `SMC1` is the antidote. A file is header → per-consumer reading
//! blocks → shared temperature block → index → footer:
//!
//! * every structure the reader needs up front (header, index, footer,
//!   temperature) carries a checksum — the word-wise multiply–fold
//!   [`digest`] that defines format version 2 — and is validated at
//!   [`SmcFile::open`] without touching the consumer blocks;
//! * reading blocks are xor-delta bit-packed with a per-block raw
//!   fallback — decoded values are `to_bits`-identical to the source,
//!   the invariant every load path in this workspace shares;
//! * a file written with [`Encoding::Raw`] is flagged
//!   `RAW_CONTIGUOUS`: its data region is literally an `n × hours`
//!   row-major `f64` matrix, and [`SmcFile::rows`] reinterprets the
//!   memory mapping in place — a cold-start load is page faults only,
//!   zero parse, zero copy;
//! * [`ops::cut`] / [`ops::merge`] re-shard sealed files by moving
//!   verbatim block bytes (checksummed in flight); the deterministic
//!   layout makes a cut-then-merge round trip byte-identical.
//!
//! Corruption anywhere in a file surfaces as a typed
//! [`Error::BadFormat`](smda_types::Error::BadFormat) naming the
//! defect — never a panic, never silent garbage: open-time checks
//! cover the header, footer, index, and temperature; block checksums
//! are enforced on decode; and [`SmcFile::verify`] recomputes the
//! whole-file digest, which covers every byte the footer magic does
//! not.

mod block;
pub mod cache;
pub mod digest;
pub mod layout;
pub mod metrics;
pub mod ops;
mod reader;
mod writer;

pub use cache::RowGroupCache;
pub use layout::{SMC_FOOTER_MAGIC, SMC_MAGIC, SMC_VERSION};
pub use metrics::FormatCounters;
pub use reader::SmcFile;
pub use writer::{write_dataset, Encoding, SmcSummary, SmcWriter};

/// Conventional file extension for `SMC1` files.
pub const SMC_EXTENSION: &str = "smc";

#[cfg(test)]
mod tests {
    use super::*;
    use smda_types::{ConsumerId, ConsumerSeries, Dataset, TemperatureSeries, HOURS_PER_YEAR};
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("smda-format-{tag}-{}.smc", std::process::id()))
    }

    fn small_dataset(n: usize) -> Dataset {
        let consumers = (0..n)
            .map(|i| {
                let readings: Vec<f64> = (0..HOURS_PER_YEAR)
                    .map(|h| 0.5 + 0.01 * ((h * (i + 1)) % 97) as f64)
                    .collect();
                ConsumerSeries::new(ConsumerId(i as u32 * 3 + 1), readings).unwrap()
            })
            .collect();
        let temps: Vec<f64> = (0..HOURS_PER_YEAR)
            .map(|h| -5.0 + 0.02 * (h % 731) as f64)
            .collect();
        Dataset::new(consumers, TemperatureSeries::new(temps).unwrap()).unwrap()
    }

    fn bits(ds: &Dataset) -> Vec<u64> {
        ds.consumers()
            .iter()
            .flat_map(|c| c.readings().iter().map(|v| v.to_bits()))
            .chain(ds.temperature().values().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn packed_file_round_trips_bit_exactly() {
        let ds = small_dataset(7);
        let path = tmp("packed-rt");
        let summary = write_dataset(&path, &ds, Encoding::Packed).unwrap();
        assert_eq!(summary.consumers, 7);
        let file = SmcFile::open(&path).unwrap();
        assert_eq!(file.n(), 7);
        assert_eq!(file.hours(), HOURS_PER_YEAR);
        let back = file.read_dataset().unwrap();
        assert_eq!(bits(&ds), bits(&back));
        file.verify().unwrap();
        assert!(file.rows().is_none(), "packed file has no zero-copy view");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn raw_file_serves_zero_copy_rows() {
        let ds = small_dataset(5);
        let path = tmp("raw-rows");
        let summary = write_dataset(&path, &ds, Encoding::Raw).unwrap();
        assert_eq!(summary.raw_blocks, 5);
        let file = SmcFile::open(&path).unwrap();
        if file.is_mapped() {
            let rows = file.rows().expect("raw contiguous file must serve rows");
            assert_eq!(rows.len(), 5 * HOURS_PER_YEAR);
            for (i, c) in ds.consumers().iter().enumerate() {
                let row = &rows[i * HOURS_PER_YEAR..(i + 1) * HOURS_PER_YEAR];
                assert!(row
                    .iter()
                    .zip(c.readings())
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
                let direct = file.row(i).expect("per-row view");
                assert_eq!(direct.as_ptr(), row.as_ptr(), "row view aliases the matrix");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn packed_is_smaller_than_raw() {
        let ds = small_dataset(6);
        let (p_raw, p_packed) = (tmp("size-raw"), tmp("size-packed"));
        let raw = write_dataset(&p_raw, &ds, Encoding::Raw).unwrap();
        let packed = write_dataset(&p_packed, &ds, Encoding::Packed).unwrap();
        assert!(
            packed.file_bytes < raw.file_bytes,
            "packed {} vs raw {}",
            packed.file_bytes,
            raw.file_bytes
        );
        std::fs::remove_file(&p_raw).unwrap();
        std::fs::remove_file(&p_packed).unwrap();
    }

    #[test]
    fn cut_then_merge_is_byte_identical() {
        let ds = small_dataset(8);
        for encoding in [Encoding::Raw, Encoding::Packed] {
            let orig = tmp(&format!("cm-orig-{encoding:?}"));
            write_dataset(&orig, &ds, encoding).unwrap();
            let ids: Vec<ConsumerId> = ds.consumers().iter().map(|c| c.id).collect();
            let shards: Vec<PathBuf> = (0..4)
                .map(|s| tmp(&format!("cm-shard{s}-{encoding:?}")))
                .collect();
            for (s, shard) in shards.iter().enumerate() {
                let keep: Vec<ConsumerId> = ids.iter().copied().skip(s).step_by(4).collect();
                ops::cut(&orig, shard, &keep).unwrap();
            }
            let merged = tmp(&format!("cm-merged-{encoding:?}"));
            ops::merge(&shards, &merged).unwrap();
            let a = std::fs::read(&orig).unwrap();
            let b = std::fs::read(&merged).unwrap();
            assert_eq!(a, b, "cut+merge must reproduce the file byte for byte");
            for p in shards.iter().chain([&orig, &merged]) {
                std::fs::remove_file(p).unwrap();
            }
        }
    }

    #[test]
    fn merge_rejects_overlap_and_mismatched_temperature() {
        let ds = small_dataset(4);
        let orig = tmp("merge-bad-orig");
        write_dataset(&orig, &ds, Encoding::Packed).unwrap();
        let ids: Vec<ConsumerId> = ds.consumers().iter().map(|c| c.id).collect();
        let half_a = tmp("merge-bad-a");
        let half_b = tmp("merge-bad-b");
        ops::cut(&orig, &half_a, &ids[..2]).unwrap();
        ops::cut(&orig, &half_b, &ids[1..]).unwrap(); // overlaps on ids[1]
        let out = tmp("merge-bad-out");
        let err = ops::merge(&[&half_a, &half_b], &out).unwrap_err();
        assert!(err.to_string().contains("appears in both"), "{err}");
        for p in [&orig, &half_a, &half_b] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn cut_rejects_unknown_consumer() {
        let ds = small_dataset(3);
        let orig = tmp("cut-missing");
        write_dataset(&orig, &ds, Encoding::Packed).unwrap();
        let err = ops::cut(&orig, tmp("cut-missing-out"), &[ConsumerId(9999)]).unwrap_err();
        assert!(err.to_string().contains("not present"), "{err}");
        std::fs::remove_file(&orig).unwrap();
    }

    #[test]
    fn writer_enforces_protocol() {
        let path = tmp("writer-protocol");
        let mut w = SmcWriter::create(&path, 2, 4).unwrap();
        w.append_consumer(ConsumerId(5), &[1.0, 2.0, 3.0, 4.0])
            .unwrap();
        // Wrong length.
        assert!(w.append_consumer(ConsumerId(6), &[1.0]).is_err());
        // Non-ascending id.
        assert!(w.append_consumer(ConsumerId(5), &[1.0; 4]).is_err());
        // Temperature before all consumers.
        assert!(w.temperature(&[0.0; 4]).is_err());
        w.append_consumer(ConsumerId(6), &[4.0, 3.0, 2.0, 1.0])
            .unwrap();
        // Too many consumers.
        assert!(w.append_consumer(ConsumerId(7), &[0.0; 4]).is_err());
        w.temperature(&[9.0, 8.0, 7.0, 6.0]).unwrap();
        let summary = w.finish().unwrap();
        assert_eq!(summary.consumers, 2);
        assert_eq!(summary.hours, 4);

        let file = SmcFile::open(&path).unwrap();
        let mut buf = Vec::new();
        assert_eq!(file.read_consumer_into(0, &mut buf).unwrap(), ConsumerId(5));
        assert_eq!(buf, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(file.temperature(), &[9.0, 8.0, 7.0, 6.0]);
        assert_eq!(file.position(ConsumerId(6)), Some(1));
        assert_eq!(file.position(ConsumerId(7)), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn finish_requires_temperature() {
        let path = tmp("no-temp");
        let w = SmcWriter::create(&path, 0, 4).unwrap();
        assert!(w.finish().is_err());
        let _ = std::fs::remove_file(&path);
    }
}
