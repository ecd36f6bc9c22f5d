//! The binary file store: one `SMC1` file served through `smda-format`.
//!
//! This is the binary sibling of [`FileStore`](crate::FileStore)
//! (create / open / consumer ids / per-consumer reads / whole-dataset
//! read / byte accounting), backed by a single checksummed columnar file
//! instead of a directory of CSVs. The temperature year and row bands are
//! read from the validated file itself ([`BinaryStore::file`]). A store created [`raw`](BinaryEncoding::Raw) additionally
//! serves whole-matrix and per-consumer **zero-copy** views straight
//! out of the memory mapping, which is what makes the binary cold-start
//! loading experiment page-fault-bound instead of parse-bound.

use std::path::{Path, PathBuf};

use smda_format::{write_dataset, Encoding, SmcFile, SmcSummary, SmcWriter};
use smda_types::{ConsumerId, Dataset, Error, Result};

/// Block encoding policy for a store being created (re-exported shape
/// of [`smda_format::Encoding`] so engine crates need no direct
/// format dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BinaryEncoding {
    /// Raw blocks: biggest file, zero-copy mmap reads.
    Raw,
    /// Xor-delta bit-packed blocks with per-block raw fallback:
    /// smallest file, decode on read.
    #[default]
    Packed,
}

impl From<BinaryEncoding> for Encoding {
    fn from(e: BinaryEncoding) -> Encoding {
        match e {
            BinaryEncoding::Raw => Encoding::Raw,
            BinaryEncoding::Packed => Encoding::Packed,
        }
    }
}

/// Row-streaming sibling of [`BinaryStore::create`]: append one
/// consumer-year at a time (ids ascending) and finish with the shared
/// temperature — no [`Dataset`] intermediate, so writing an `n`-row
/// store needs `O(hours)` memory rather than `O(n · hours)`. The bytes
/// produced are identical to [`BinaryStore::create`] over the same
/// rows.
#[derive(Debug)]
pub struct BinaryWriter {
    inner: SmcWriter,
}

impl BinaryWriter {
    /// Start an `n × hours` store at `path`.
    pub fn create(
        path: impl AsRef<Path>,
        n: usize,
        hours: usize,
        encoding: BinaryEncoding,
    ) -> Result<BinaryWriter> {
        Ok(BinaryWriter {
            inner: SmcWriter::create_with(path, n, hours, encoding.into())?,
        })
    }

    /// Append the next consumer's year; ids must arrive ascending.
    pub fn append_consumer(&mut self, id: ConsumerId, kwh: &[f64]) -> Result<()> {
        self.inner.append_consumer(id, kwh)
    }

    /// Write the temperature block and seal the file. Returns its size
    /// in bytes.
    pub fn finish(mut self, temperature: &[f64]) -> Result<u64> {
        self.inner.temperature(temperature)?;
        Ok(self.inner.finish()?.file_bytes)
    }
}

/// One `SMC1` file opened for query serving.
#[derive(Debug)]
pub struct BinaryStore {
    file: SmcFile,
}

impl BinaryStore {
    /// Materialize `ds` at `path` (conventionally `*.smc`) and open it.
    pub fn create(
        path: impl Into<PathBuf>,
        ds: &Dataset,
        encoding: BinaryEncoding,
    ) -> Result<Self> {
        let path = path.into();
        write_dataset(&path, ds, encoding.into())?;
        BinaryStore::open(path)
    }

    /// Open an existing store, validating headers, index, and
    /// temperature checksums.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        Ok(BinaryStore {
            file: SmcFile::open(path.into())?,
        })
    }

    /// The underlying validated file.
    pub fn file(&self) -> &SmcFile {
        &self.file
    }

    /// The store's path.
    pub fn path(&self) -> &Path {
        self.file.path()
    }

    /// Number of consumers.
    pub fn len(&self) -> usize {
        self.file.n()
    }

    /// True when the store holds no consumers.
    pub fn is_empty(&self) -> bool {
        self.file.n() == 0
    }

    /// Consumer ids present, ascending.
    pub fn consumer_ids(&self) -> Result<Vec<ConsumerId>> {
        Ok(self.file.consumer_ids())
    }

    /// Read one consumer's readings by id into a caller-provided
    /// buffer, reusing its capacity. Verifies the block checksum.
    pub fn read_consumer_into(&self, id: ConsumerId, values: &mut Vec<f64>) -> Result<()> {
        let idx = self
            .file
            .position(id)
            .ok_or_else(|| Error::Invalid(format!("consumer {id} not in {:?}", self.path())))?;
        self.file.read_consumer_into(idx, values)?;
        Ok(())
    }

    /// Zero-copy view of one consumer's readings (raw blocks in a live
    /// mapping only).
    pub fn consumer_view(&self, id: ConsumerId) -> Option<&[f64]> {
        self.file.row(self.file.position(id)?)
    }

    /// Zero-copy view of the whole store as a row-major `n × hours`
    /// matrix (raw-contiguous files in a live mapping only).
    pub fn matrix_view(&self) -> Option<&[f64]> {
        self.file.rows()
    }

    /// Read the whole store into a validated dataset.
    pub fn read_all(&self) -> Result<Dataset> {
        self.file.read_dataset()
    }

    /// Recompute every checksum, including the whole-file digest.
    pub fn verify(&self) -> Result<SmcSummary> {
        self.file.verify()
    }

    /// Total bytes of the backing file (for loading-cost reports).
    pub fn total_bytes(&self) -> Result<u64> {
        Ok(self.file.file_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_types::{ConsumerSeries, TemperatureSeries, HOURS_PER_YEAR};

    fn tiny(n: u32) -> Dataset {
        let temp =
            TemperatureSeries::new((0..HOURS_PER_YEAR).map(|h| (h % 20) as f64).collect()).unwrap();
        let consumers = (0..n)
            .map(|i| {
                ConsumerSeries::new(
                    ConsumerId(i),
                    (0..HOURS_PER_YEAR)
                        .map(|h| (h % 24) as f64 * 0.1 + i as f64)
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        Dataset::new(consumers, temp).unwrap()
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("smda-binary-{tag}-{}.smc", std::process::id()))
    }

    #[test]
    fn mirrors_the_file_store_surface_bit_exactly() {
        let ds = tiny(3);
        for encoding in [BinaryEncoding::Raw, BinaryEncoding::Packed] {
            let path = tmp(&format!("surface-{encoding:?}"));
            let store = BinaryStore::create(&path, &ds, encoding).unwrap();
            assert_eq!(store.len(), 3);
            assert_eq!(
                store.consumer_ids().unwrap(),
                vec![ConsumerId(0), ConsumerId(1), ConsumerId(2)]
            );
            let mut got = Vec::new();
            store.read_consumer_into(ConsumerId(1), &mut got).unwrap();
            assert!(got
                .iter()
                .zip(ds.consumers()[1].readings())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert!(store
                .file()
                .temperature()
                .iter()
                .zip(ds.temperature().values())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            let all = store.read_all().unwrap();
            assert_eq!(all.len(), 3);
            store.verify().unwrap();
            assert!(store.total_bytes().unwrap() > 0);
            assert!(store.read_consumer_into(ConsumerId(42), &mut got).is_err());
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn band_lending_round_trips_on_both_encodings() {
        let ds = tiny(5);
        for encoding in [BinaryEncoding::Raw, BinaryEncoding::Packed] {
            let path = tmp(&format!("bands-{encoding:?}"));
            let store = BinaryStore::create(&path, &ds, encoding).unwrap();
            let mut band = Vec::new();
            store.file().read_rows_into(1..4, &mut band).unwrap();
            assert_eq!(band.len(), 3 * HOURS_PER_YEAR);
            for (r, c) in ds.consumers()[1..4].iter().enumerate() {
                let row = &band[r * HOURS_PER_YEAR..(r + 1) * HOURS_PER_YEAR];
                assert!(row
                    .iter()
                    .zip(c.readings())
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn raw_store_serves_zero_copy_views() {
        let ds = tiny(2);
        let path = tmp("views");
        let store = BinaryStore::create(&path, &ds, BinaryEncoding::Raw).unwrap();
        if cfg!(target_os = "linux") {
            let matrix = store.matrix_view().expect("raw store must serve a matrix");
            assert_eq!(matrix.len(), 2 * HOURS_PER_YEAR);
            let row = store.consumer_view(ConsumerId(1)).expect("row view");
            assert_eq!(row.as_ptr(), matrix[HOURS_PER_YEAR..].as_ptr());
        }
        let packed_path = tmp("views-packed");
        let packed = BinaryStore::create(&packed_path, &ds, BinaryEncoding::Packed).unwrap();
        assert!(packed.matrix_view().is_none());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&packed_path).unwrap();
    }
}
