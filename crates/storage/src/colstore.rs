//! The "System C"-like main-memory column store.
//!
//! Data is stored as raw little-endian `f64` column files:
//!
//! * `kwh.col` — all consumers' readings concatenated in consumer order
//!   (`n × 8760` values);
//! * `temperature.col` — the shared weather series (8760 values);
//! * `consumers.meta` — the consumer ids, in order.
//!
//! The real System C maps tables into memory; `memmap2` is outside the
//! dependency budget, so chunks of 64 Ki values (512 KiB) are faulted in
//! on first touch and cached — the same access-pattern semantics with
//! explicit residency accounting (useful for the Figure 8 memory
//! experiment).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use std::collections::{hash_map::Entry, HashMap};

use bytes::{Buf, BufMut};

use smda_types::{ConsumerId, Dataset, Error, Result, HOURS_PER_YEAR};

/// Values per chunk (64 Ki f64 = 512 KiB).
pub const CHUNK_VALUES: usize = 64 * 1024;

/// Residency and fault counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnStoreStats {
    /// Bytes of column data currently resident.
    pub resident_bytes: usize,
    /// Chunks faulted in from disk.
    pub chunk_faults: u64,
    /// Chunk requests served from cache.
    pub chunk_hits: u64,
}

/// A column store over one dataset.
pub struct ColumnStore {
    dir: PathBuf,
    consumers: Vec<ConsumerId>,
    kwh_file: File,
    kwh_values: usize,
    temperature: Option<Vec<f64>>,
    chunks: HashMap<usize, Vec<f64>>,
    stats: ColumnStoreStats,
}

impl std::fmt::Debug for ColumnStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnStore")
            .field("dir", &self.dir)
            .field("consumers", &self.consumers.len())
            .field("stats", &self.stats)
            .finish()
    }
}

fn write_f64_column(path: &Path, values: impl Iterator<Item = f64>) -> Result<()> {
    let f = File::create(path)
        .map_err(|e| Error::io(format!("creating column {}", path.display()), e))?;
    let mut w = std::io::BufWriter::new(f);
    let mut buf = [0u8; 8];
    for v in values {
        (&mut buf[..]).put_f64_le(v);
        w.write_all(&buf)
            .map_err(|e| Error::io("writing column value", e))?;
    }
    w.flush().map_err(|e| Error::io("flushing column", e))
}

impl ColumnStore {
    /// Bulk-load a dataset into a fresh column store under `dir`.
    ///
    /// This is the fast-load path the paper credits System C for: values
    /// are appended raw, with no tuple construction.
    pub fn create(dir: impl Into<PathBuf>, ds: &Dataset) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::io(format!("creating {}", dir.display()), e))?;
        write_f64_column(
            &dir.join("kwh.col"),
            ds.consumers()
                .iter()
                .flat_map(|c| c.readings().iter().copied()),
        )?;
        write_f64_column(
            &dir.join("temperature.col"),
            ds.temperature().values().iter().copied(),
        )?;
        // Consumer ids.
        let mut meta = Vec::with_capacity(ds.len() * 4);
        for c in ds.consumers() {
            meta.put_u32_le(c.id.raw());
        }
        std::fs::write(dir.join("consumers.meta"), &meta)
            .map_err(|e| Error::io("writing consumers.meta", e))?;
        Self::open(dir)
    }

    /// Open an existing column store.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        let meta = std::fs::read(dir.join("consumers.meta"))
            .map_err(|e| Error::io("reading consumers.meta", e))?;
        if meta.len() % 4 != 0 {
            return Err(Error::Schema("consumers.meta not u32-aligned".into()));
        }
        let mut consumers = Vec::with_capacity(meta.len() / 4);
        let mut r = &meta[..];
        while r.has_remaining() {
            consumers.push(ConsumerId(r.get_u32_le()));
        }
        let kwh_path = dir.join("kwh.col");
        let kwh_file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&kwh_path)
            .map_err(|e| Error::io(format!("opening {}", kwh_path.display()), e))?;
        let len = kwh_file
            .metadata()
            .map_err(|e| Error::io("stat kwh.col", e))?
            .len();
        if len % 8 != 0 {
            return Err(Error::Schema("kwh.col not f64-aligned".into()));
        }
        let kwh_values = (len / 8) as usize;
        if kwh_values != consumers.len() * HOURS_PER_YEAR {
            return Err(Error::Schema(format!(
                "kwh.col holds {kwh_values} values, expected {}",
                consumers.len() * HOURS_PER_YEAR
            )));
        }
        Ok(ColumnStore {
            dir,
            consumers,
            kwh_file,
            kwh_values,
            temperature: None,
            chunks: HashMap::new(),
            stats: ColumnStoreStats::default(),
        })
    }

    /// Number of consumers stored.
    pub fn len(&self) -> usize {
        self.consumers.len()
    }

    /// True when the store holds no consumers.
    pub fn is_empty(&self) -> bool {
        self.consumers.is_empty()
    }

    /// Consumer ids in storage order.
    pub fn consumer_ids(&self) -> &[ConsumerId] {
        &self.consumers
    }

    /// Residency and fault counters.
    pub fn stats(&self) -> ColumnStoreStats {
        self.stats
    }

    /// Fault in chunk `chunk_no` of the kwh column.
    fn chunk(&mut self, chunk_no: usize) -> Result<&[f64]> {
        let slot = match self.chunks.entry(chunk_no) {
            Entry::Occupied(held) => {
                self.stats.chunk_hits += 1;
                return Ok(held.into_mut());
            }
            Entry::Vacant(slot) => slot,
        };
        self.stats.chunk_faults += 1;
        let start = chunk_no * CHUNK_VALUES;
        let count = CHUNK_VALUES.min(self.kwh_values.saturating_sub(start));
        let mut raw = vec![0u8; count * 8];
        self.kwh_file
            .seek(SeekFrom::Start(start as u64 * 8))
            .map_err(|e| Error::io("seeking kwh.col", e))?;
        self.kwh_file
            .read_exact(&mut raw)
            .map_err(|e| Error::io(format!("reading kwh.col chunk {chunk_no}"), e))?;
        let mut values = Vec::with_capacity(count);
        let mut r = &raw[..];
        while r.has_remaining() {
            values.push(r.get_f64_le());
        }
        self.stats.resident_bytes += values.len() * 8;
        Ok(slot.insert(values))
    }

    /// One consumer's year of readings, assembled from resident chunks.
    pub fn readings(&mut self, index: usize) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(HOURS_PER_YEAR);
        self.readings_into(index, &mut out)?;
        Ok(out)
    }

    /// [`ColumnStore::readings`] into a caller-provided buffer, reusing
    /// its capacity across consumers.
    pub fn readings_into(&mut self, index: usize, out: &mut Vec<f64>) -> Result<()> {
        if index >= self.consumers.len() {
            return Err(Error::Invalid(format!(
                "consumer index {index} out of range"
            )));
        }
        let start = index * HOURS_PER_YEAR;
        let end = start + HOURS_PER_YEAR;
        out.clear();
        let mut pos = start;
        while pos < end {
            let chunk_no = pos / CHUNK_VALUES;
            let offset = pos % CHUNK_VALUES;
            let take = (CHUNK_VALUES - offset).min(end - pos);
            let chunk = self.chunk(chunk_no)?;
            out.extend_from_slice(&chunk[offset..offset + take]);
            pos += take;
        }
        Ok(())
    }

    /// The shared temperature column (loaded once, kept resident).
    pub fn temperature(&mut self) -> Result<&[f64]> {
        let values = match self.temperature.take() {
            Some(held) => held,
            None => {
                let raw = std::fs::read(self.dir.join("temperature.col"))
                    .map_err(|e| Error::io("reading temperature.col", e))?;
                let mut values = Vec::with_capacity(raw.len() / 8);
                let mut r = &raw[..];
                while r.has_remaining() {
                    values.push(r.get_f64_le());
                }
                if values.len() != HOURS_PER_YEAR {
                    return Err(Error::Schema(format!(
                        "temperature.col holds {} values",
                        values.len()
                    )));
                }
                self.stats.resident_bytes += values.len() * 8;
                values
            }
        };
        Ok(self.temperature.insert(values))
    }

    /// Overwrite `values.len()` consecutive column values starting at
    /// value offset `start` (late-data restatement). Callers must evict
    /// affected chunks themselves ([`ColumnStore::evict_all`]).
    pub fn overwrite_values(&mut self, start: usize, values: &[f64]) -> Result<()> {
        if start + values.len() > self.kwh_values {
            return Err(Error::Invalid(format!(
                "overwrite of {} values at {start} exceeds column length {}",
                values.len(),
                self.kwh_values
            )));
        }
        let mut buf = Vec::with_capacity(values.len() * 8);
        for &v in values {
            buf.put_f64_le(v);
        }
        self.kwh_file
            .seek(SeekFrom::Start(start as u64 * 8))
            .map_err(|e| Error::io("seeking kwh.col for restatement", e))?;
        self.kwh_file
            .write_all(&buf)
            .map_err(|e| Error::io("writing kwh.col restatement", e))?;
        Ok(())
    }

    /// Drop all resident chunks (cold-start simulation).
    pub fn evict_all(&mut self) {
        self.chunks.clear();
        self.temperature = None;
        self.stats.resident_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_types::{ConsumerSeries, TemperatureSeries};

    fn tiny(n: u32) -> Dataset {
        let temp =
            TemperatureSeries::new((0..HOURS_PER_YEAR).map(|h| (h % 30) as f64 - 5.0).collect())
                .unwrap();
        let consumers = (0..n)
            .map(|i| {
                ConsumerSeries::new(
                    ConsumerId(i),
                    (0..HOURS_PER_YEAR)
                        .map(|h| (i as f64) + (h % 24) as f64 * 0.01)
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        Dataset::new(consumers, temp).unwrap()
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("smda-col-{tag}-{}", std::process::id()))
    }

    #[test]
    fn round_trip() {
        let ds = tiny(3);
        let dir = tmp("rt");
        let mut store = ColumnStore::create(&dir, &ds).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.temperature().unwrap(), ds.temperature().values());
        for (i, c) in ds.consumers().iter().enumerate() {
            assert_eq!(store.consumer_ids()[i], c.id);
            assert_eq!(store.readings(i).unwrap(), c.readings());
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn chunk_faults_are_counted_and_cached() {
        let ds = tiny(2);
        let dir = tmp("faults");
        let mut store = ColumnStore::create(&dir, &ds).unwrap();
        store.readings(0).unwrap();
        let after_first = store.stats();
        assert!(after_first.chunk_faults >= 1);
        store.readings(0).unwrap();
        let after_second = store.stats();
        assert_eq!(after_second.chunk_faults, after_first.chunk_faults);
        assert!(after_second.chunk_hits > after_first.chunk_hits);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn eviction_resets_residency() {
        let ds = tiny(2);
        let dir = tmp("evict");
        let mut store = ColumnStore::create(&dir, &ds).unwrap();
        store.readings(1).unwrap();
        store.temperature().unwrap();
        assert!(store.stats().resident_bytes > 0);
        store.evict_all();
        assert_eq!(store.stats().resident_bytes, 0);
        // Still readable after eviction.
        assert_eq!(store.readings(1).unwrap().len(), HOURS_PER_YEAR);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn consumer_spanning_chunks_is_assembled_correctly() {
        // 8 consumers × 8760 values = 70,080 values > one 65,536 chunk, so
        // consumer 7 spans the chunk boundary.
        let ds = tiny(8);
        let dir = tmp("span");
        let mut store = ColumnStore::create(&dir, &ds).unwrap();
        let got = store.readings(7).unwrap();
        assert_eq!(got, ds.consumers()[7].readings());
        assert!(store.stats().chunk_faults >= 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn open_validates_sizes() {
        let ds = tiny(1);
        let dir = tmp("validate");
        ColumnStore::create(&dir, &ds).unwrap();
        // Truncate the column file: open must fail.
        let kwh = dir.join("kwh.col");
        let data = std::fs::read(&kwh).unwrap();
        std::fs::write(&kwh, &data[..data.len() - 16]).unwrap();
        assert!(ColumnStore::open(&dir).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn out_of_range_index_errors() {
        let ds = tiny(1);
        let dir = tmp("oob");
        let mut store = ColumnStore::create(&dir, &ds).unwrap();
        assert!(store.readings(5).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
