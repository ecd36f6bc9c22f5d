//! The three relational table layouts of Figure 9.
//!
//! * [`ReadingTable`] — Table 1 of the figure: one smart meter reading
//!   per row `(household, hour, temperature, reading)`, with a B+tree on
//!   the household id.
//! * [`ArrayTable`] — Table 2: one row per household whose temperature
//!   and consumption readings are arrays with positional encoding.
//!   Array payloads exceed a page, so they live in an overflow (TOAST-
//!   like) data file addressed from an in-memory directory.
//! * [`DayTable`] — the in-between layout mentioned in Section 5.3.3:
//!   one row per consumer per day (24 readings + 24 temperatures).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::{Buf, BufMut};

use smda_types::{
    ConsumerId, ConsumerSeries, Dataset, Error, Reading, Result, TemperatureSeries, DAYS_PER_YEAR,
    HOURS_PER_DAY, HOURS_PER_YEAR,
};

use crate::btree::BTreeIndex;
use crate::buffer::BufferPool;
use crate::heap::{HeapFile, TupleId};

/// Common interface over the three layouts, as far as the relational
/// engine needs: load a dataset, then fetch whole consumers.
pub trait TableLayout: Send {
    /// Human-readable layout name (for reports).
    fn layout_name(&self) -> &'static str;

    /// Household ids present, ascending.
    fn consumer_ids(&mut self) -> Result<Vec<ConsumerId>>;

    /// Fetch one household's full year: `(kwh, temperature)` aligned by
    /// hour of year.
    fn consumer_year(&mut self, id: ConsumerId) -> Result<(Vec<f64>, Vec<f64>)> {
        let mut kwh = Vec::new();
        let mut temps = Vec::new();
        self.consumer_year_into(id, &mut kwh, &mut temps)?;
        Ok((kwh, temps))
    }

    /// [`TableLayout::consumer_year`] into caller-owned buffers, which
    /// are cleared and refilled — sources iterate a whole table through
    /// two reusable allocations.
    fn consumer_year_into(
        &mut self,
        id: ConsumerId,
        kwh: &mut Vec<f64>,
        temps: &mut Vec<f64>,
    ) -> Result<()>;

    /// Drop all caches so the next access is cold.
    fn make_cold(&mut self);
}

// ---------------------------------------------------------------- layout 1

/// Layout 1: one reading per row in a heap file + B+tree on household id.
pub struct ReadingTable {
    heap: HeapFile,
    index: Arc<BTreeIndex>,
    pool: BufferPool,
}

impl std::fmt::Debug for ReadingTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadingTable")
            .field("heap", &self.heap)
            .finish()
    }
}

impl ReadingTable {
    /// Default pool size: 384 pages (3 MiB), echoing the paper's modest
    /// `shared_buffers` relative to its data.
    pub const DEFAULT_POOL_PAGES: usize = 384;

    /// Bulk-load a dataset into a fresh heap file at `path`.
    pub fn create(path: impl Into<PathBuf>, ds: &Dataset) -> Result<Self> {
        let mut heap = HeapFile::create(path)?;
        let mut index = BTreeIndex::new();
        for r in ds.readings() {
            let tid = heap.insert(&r.to_le_bytes())?;
            index.insert(r.consumer.raw() as u64, tid.pack());
        }
        heap.flush()?;
        Ok(ReadingTable {
            heap,
            index: Arc::new(index),
            pool: BufferPool::new(Self::DEFAULT_POOL_PAGES),
        })
    }

    /// Open another handle ("connection") on the same heap file, sharing
    /// an already-built index instead of rescanning.
    pub fn open_with_index(path: impl Into<PathBuf>, index: Arc<BTreeIndex>) -> Result<Self> {
        let heap = HeapFile::open(path)?;
        Ok(ReadingTable {
            heap,
            index,
            pool: BufferPool::new(Self::DEFAULT_POOL_PAGES),
        })
    }

    /// The shared household index.
    pub fn index(&self) -> Arc<BTreeIndex> {
        self.index.clone()
    }

    /// Overwrite one reading's kWh value in place (late-data
    /// restatement). The page is updated on disk and invalidated in the
    /// buffer pool.
    pub fn overwrite_kwh(&mut self, tid: TupleId, kwh: f64) -> Result<()> {
        let mut page = self.heap.read_page(tid.page)?;
        let mut tuple = page
            .get(tid.slot as usize)
            .ok_or_else(|| Error::Invalid(format!("no live tuple at {tid:?}")))?
            .to_vec();
        if tuple.len() != Reading::BYTES {
            return Err(Error::Schema(format!(
                "tuple at {tid:?} has {} bytes",
                tuple.len()
            )));
        }
        (&mut tuple[16..24]).put_f64_le(kwh);
        if !page.overwrite(tid.slot as usize, &tuple) {
            return Err(Error::Invalid(format!("overwrite failed at {tid:?}")));
        }
        self.heap.write_page(tid.page, &page)?;
        self.pool.invalidate(tid.page);
        Ok(())
    }
}

impl TableLayout for ReadingTable {
    fn layout_name(&self) -> &'static str {
        "one-reading-per-row"
    }

    fn consumer_ids(&mut self) -> Result<Vec<ConsumerId>> {
        Ok(self
            .index
            .keys()
            .into_iter()
            .map(|k| ConsumerId(k as u32))
            .collect())
    }

    fn consumer_year_into(
        &mut self,
        id: ConsumerId,
        kwh: &mut Vec<f64>,
        temps: &mut Vec<f64>,
    ) -> Result<()> {
        let postings: Vec<u64> = self.index.get(id.raw() as u64).to_vec();
        if postings.is_empty() {
            return Err(Error::Invalid(format!("unknown consumer {id}")));
        }
        kwh.clear();
        kwh.resize(HOURS_PER_YEAR, 0.0);
        temps.clear();
        temps.resize(HOURS_PER_YEAR, 0.0);
        for raw in postings {
            let tid = TupleId::unpack(raw);
            let page = self.pool.get(&mut self.heap, tid.page)?;
            let tuple = page
                .get(tid.slot as usize)
                .ok_or_else(|| Error::Schema(format!("dangling index entry {tid:?}")))?;
            let r = Reading::from_le_bytes(tuple)?;
            let h = r.hour as usize;
            if h >= HOURS_PER_YEAR {
                return Err(Error::Schema(format!("hour {h} out of range")));
            }
            kwh[h] = r.kwh;
            temps[h] = r.temperature;
        }
        Ok(())
    }

    fn make_cold(&mut self) {
        self.pool.clear();
    }
}

// ---------------------------------------------------------------- layout 2

/// Layout 2: one row per household, readings and temperatures as arrays
/// in an overflow file.
pub struct ArrayTable {
    file: File,
    path: PathBuf,
    /// (consumer, byte offset of the record), ascending by consumer.
    directory: Arc<Vec<(ConsumerId, u64)>>,
    /// Reusable record read buffer.
    record_buf: Vec<u8>,
}

impl std::fmt::Debug for ArrayTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArrayTable")
            .field("path", &self.path)
            .field("rows", &self.directory.len())
            .finish()
    }
}

const ARRAY_RECORD_BYTES: usize = 4 + 2 * HOURS_PER_YEAR * 8;

impl ArrayTable {
    /// Bulk-load a dataset into a fresh overflow file at `path`.
    pub fn create(path: impl Into<PathBuf>, ds: &Dataset) -> Result<Self> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| Error::io(format!("creating array table {}", path.display()), e))?;
        let mut directory = Vec::with_capacity(ds.len());
        let temps = ds.temperature().values();
        let mut offset = 0u64;
        let mut record = Vec::with_capacity(ARRAY_RECORD_BYTES);
        for c in ds.consumers() {
            record.clear();
            record.put_u32_le(c.id.raw());
            for &v in c.readings() {
                record.put_f64_le(v);
            }
            for &t in temps {
                record.put_f64_le(t);
            }
            file.write_all(&record)
                .map_err(|e| Error::io("writing array record", e))?;
            directory.push((c.id, offset));
            offset += record.len() as u64;
        }
        file.flush()
            .map_err(|e| Error::io("flushing array table", e))?;
        directory.sort_by_key(|(id, _)| *id);
        Ok(ArrayTable {
            file,
            path,
            directory: Arc::new(directory),
            record_buf: Vec::new(),
        })
    }

    /// Open another handle on the same overflow file, sharing the
    /// directory.
    pub fn open_with_directory(
        path: impl Into<PathBuf>,
        directory: Arc<Vec<(ConsumerId, u64)>>,
    ) -> Result<Self> {
        let path = path.into();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| Error::io(format!("opening array table {}", path.display()), e))?;
        Ok(ArrayTable {
            file,
            path,
            directory,
            record_buf: Vec::new(),
        })
    }

    /// The shared record directory.
    pub fn directory(&self) -> Arc<Vec<(ConsumerId, u64)>> {
        self.directory.clone()
    }
}

impl ArrayTable {
    /// Overwrite one day's readings in place (late-data restatement):
    /// a single contiguous region write inside the household's record.
    pub fn overwrite_day(
        &mut self,
        id: ConsumerId,
        day: usize,
        kwh: &[f64; HOURS_PER_DAY],
    ) -> Result<()> {
        if day >= DAYS_PER_YEAR {
            return Err(Error::Invalid(format!("day {day} out of range")));
        }
        let pos = self
            .directory
            .binary_search_by_key(&id, |(i, _)| *i)
            .map_err(|_| Error::Invalid(format!("unknown consumer {id}")))?;
        let record_offset = self.directory[pos].1;
        let offset = record_offset + 4 + (day * HOURS_PER_DAY) as u64 * 8;
        let bytes = crate::update::day_bytes(kwh);
        crate::update::write_at(&mut self.file, offset, &bytes)
    }
}

impl TableLayout for ArrayTable {
    fn layout_name(&self) -> &'static str {
        "one-consumer-per-row-arrays"
    }

    fn consumer_ids(&mut self) -> Result<Vec<ConsumerId>> {
        Ok(self.directory.iter().map(|(id, _)| *id).collect())
    }

    fn consumer_year_into(
        &mut self,
        id: ConsumerId,
        kwh: &mut Vec<f64>,
        temps: &mut Vec<f64>,
    ) -> Result<()> {
        let pos = self
            .directory
            .binary_search_by_key(&id, |(i, _)| *i)
            .map_err(|_| Error::Invalid(format!("unknown consumer {id}")))?;
        let offset = self.directory[pos].1;
        self.record_buf.clear();
        self.record_buf.resize(ARRAY_RECORD_BYTES, 0);
        self.file
            .seek(SeekFrom::Start(offset))
            .map_err(|e| Error::io("seeking array record", e))?;
        self.file
            .read_exact(&mut self.record_buf)
            .map_err(|e| Error::io("reading array record", e))?;
        let mut r = &self.record_buf[..];
        let stored = ConsumerId(r.get_u32_le());
        if stored != id {
            return Err(Error::Schema(format!(
                "directory points at {stored}, wanted {id}"
            )));
        }
        kwh.clear();
        for _ in 0..HOURS_PER_YEAR {
            kwh.push(r.get_f64_le());
        }
        temps.clear();
        for _ in 0..HOURS_PER_YEAR {
            temps.push(r.get_f64_le());
        }
        Ok(())
    }

    fn make_cold(&mut self) {
        // No user-level cache; reads always hit the file.
    }
}

// ---------------------------------------------------------------- layout 3

const DAY_TUPLE_BYTES: usize = 4 + 4 + 2 * HOURS_PER_DAY * 8;

/// Layout 3: one row per consumer per day in a heap file + B+tree.
pub struct DayTable {
    heap: HeapFile,
    index: Arc<BTreeIndex>,
    pool: BufferPool,
}

impl std::fmt::Debug for DayTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DayTable")
            .field("heap", &self.heap)
            .finish()
    }
}

impl DayTable {
    /// Bulk-load a dataset into a fresh heap file at `path`.
    pub fn create(path: impl Into<PathBuf>, ds: &Dataset) -> Result<Self> {
        let mut heap = HeapFile::create(path)?;
        let mut index = BTreeIndex::new();
        let temps = ds.temperature().values();
        let mut tuple = Vec::with_capacity(DAY_TUPLE_BYTES);
        for c in ds.consumers() {
            for day in 0..DAYS_PER_YEAR {
                tuple.clear();
                tuple.put_u32_le(c.id.raw());
                tuple.put_u32_le(day as u32);
                let start = day * HOURS_PER_DAY;
                for h in 0..HOURS_PER_DAY {
                    tuple.put_f64_le(c.readings()[start + h]);
                }
                for h in 0..HOURS_PER_DAY {
                    tuple.put_f64_le(temps[start + h]);
                }
                let tid = heap.insert(&tuple)?;
                index.insert(c.id.raw() as u64, tid.pack());
            }
        }
        heap.flush()?;
        Ok(DayTable {
            heap,
            index: Arc::new(index),
            pool: BufferPool::new(ReadingTable::DEFAULT_POOL_PAGES),
        })
    }

    /// Open another handle on the same heap file, sharing the index.
    pub fn open_with_index(path: impl Into<PathBuf>, index: Arc<BTreeIndex>) -> Result<Self> {
        let heap = HeapFile::open(path)?;
        Ok(DayTable {
            heap,
            index,
            pool: BufferPool::new(ReadingTable::DEFAULT_POOL_PAGES),
        })
    }

    /// The shared household index.
    pub fn index(&self) -> Arc<BTreeIndex> {
        self.index.clone()
    }
}

impl DayTable {
    /// Overwrite one day-row's readings in place (late-data
    /// restatement). Day rows were inserted in day order, so the day-th
    /// posting addresses the right tuple.
    pub fn overwrite_day(
        &mut self,
        id: ConsumerId,
        day: usize,
        kwh: &[f64; HOURS_PER_DAY],
    ) -> Result<()> {
        if day >= DAYS_PER_YEAR {
            return Err(Error::Invalid(format!("day {day} out of range")));
        }
        let postings = self.index.get(id.raw() as u64);
        if postings.len() != DAYS_PER_YEAR {
            return Err(Error::Invalid(format!(
                "unknown or incomplete consumer {id}"
            )));
        }
        let tid = TupleId::unpack(postings[day]);
        let mut page = self.heap.read_page(tid.page)?;
        let mut tuple = page
            .get(tid.slot as usize)
            .ok_or_else(|| Error::Invalid(format!("no live tuple at {tid:?}")))?
            .to_vec();
        if tuple.len() != DAY_TUPLE_BYTES {
            return Err(Error::Schema(format!(
                "day tuple has {} bytes",
                tuple.len()
            )));
        }
        // Header is consumer (4) + day (4); kWh block follows.
        let mut w = &mut tuple[8..8 + HOURS_PER_DAY * 8];
        for &v in kwh {
            w.put_f64_le(v);
        }
        if !page.overwrite(tid.slot as usize, &tuple) {
            return Err(Error::Invalid(format!("overwrite failed at {tid:?}")));
        }
        self.heap.write_page(tid.page, &page)?;
        self.pool.invalidate(tid.page);
        Ok(())
    }
}

impl TableLayout for DayTable {
    fn layout_name(&self) -> &'static str {
        "one-consumer-day-per-row"
    }

    fn consumer_ids(&mut self) -> Result<Vec<ConsumerId>> {
        Ok(self
            .index
            .keys()
            .into_iter()
            .map(|k| ConsumerId(k as u32))
            .collect())
    }

    fn consumer_year_into(
        &mut self,
        id: ConsumerId,
        kwh: &mut Vec<f64>,
        temps: &mut Vec<f64>,
    ) -> Result<()> {
        let postings: Vec<u64> = self.index.get(id.raw() as u64).to_vec();
        if postings.is_empty() {
            return Err(Error::Invalid(format!("unknown consumer {id}")));
        }
        kwh.clear();
        kwh.resize(HOURS_PER_YEAR, 0.0);
        temps.clear();
        temps.resize(HOURS_PER_YEAR, 0.0);
        for raw in postings {
            let tid = TupleId::unpack(raw);
            let page = self.pool.get(&mut self.heap, tid.page)?;
            let mut t = page
                .get(tid.slot as usize)
                .ok_or_else(|| Error::Schema(format!("dangling index entry {tid:?}")))?;
            if t.len() != DAY_TUPLE_BYTES {
                return Err(Error::Schema(format!("day tuple has {} bytes", t.len())));
            }
            let _consumer = t.get_u32_le();
            let day = t.get_u32_le() as usize;
            if day >= DAYS_PER_YEAR {
                return Err(Error::Schema(format!("day {day} out of range")));
            }
            let start = day * HOURS_PER_DAY;
            for h in 0..HOURS_PER_DAY {
                kwh[start + h] = t.get_f64_le();
            }
            for h in 0..HOURS_PER_DAY {
                temps[start + h] = t.get_f64_le();
            }
        }
        Ok(())
    }

    fn make_cold(&mut self) {
        self.pool.clear();
    }
}

/// Rebuild a [`Dataset`] from any layout (used for validation tests).
pub fn dataset_from_layout(layout: &mut dyn TableLayout) -> Result<Dataset> {
    let ids = layout.consumer_ids()?;
    let mut consumers = Vec::with_capacity(ids.len());
    let mut temperature: Option<TemperatureSeries> = None;
    for id in ids {
        let (kwh, temps) = layout.consumer_year(id)?;
        if temperature.is_none() {
            temperature = Some(TemperatureSeries::new(temps)?);
        }
        consumers.push(ConsumerSeries::new(id, kwh)?);
    }
    let temperature =
        temperature.ok_or_else(|| Error::Invalid("layout holds no consumers".into()))?;
    Dataset::new(consumers, temperature)
}

/// Helper shared by tests and engines: the heap/overflow file path for a
/// table stored under `dir`.
pub fn table_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.tbl"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(n: u32) -> Dataset {
        let temp = TemperatureSeries::new(
            (0..HOURS_PER_YEAR)
                .map(|h| ((h % 50) as f64) - 12.0)
                .collect(),
        )
        .unwrap();
        let consumers = (0..n)
            .map(|i| {
                ConsumerSeries::new(
                    ConsumerId(i * 10),
                    (0..HOURS_PER_YEAR)
                        .map(|h| 0.2 + ((h + i as usize) % 24) as f64 * 0.05)
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        Dataset::new(consumers, temp).unwrap()
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("smda-layout-{tag}-{}", std::process::id()))
    }

    fn assert_round_trip(layout: &mut dyn TableLayout, ds: &Dataset) {
        let back = dataset_from_layout(layout).unwrap();
        assert_eq!(back.len(), ds.len());
        for (a, b) in back.consumers().iter().zip(ds.consumers()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.readings(), b.readings());
        }
        assert_eq!(back.temperature().values(), ds.temperature().values());
    }

    #[test]
    fn reading_table_round_trip() {
        let ds = tiny(3);
        let path = tmp("l1");
        let mut t = ReadingTable::create(&path, &ds).unwrap();
        assert_round_trip(&mut t, &ds);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn array_table_round_trip() {
        let ds = tiny(3);
        let path = tmp("l2");
        let mut t = ArrayTable::create(&path, &ds).unwrap();
        assert_round_trip(&mut t, &ds);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn day_table_round_trip() {
        let ds = tiny(2);
        let path = tmp("l3");
        let mut t = DayTable::create(&path, &ds).unwrap();
        assert_round_trip(&mut t, &ds);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn array_layout_reads_fewer_tuples_than_row_layout() {
        // The point of Figure 9: extracting one consumer touches 1 record
        // in layout 2 versus 8760 tuples in layout 1. Verify via pool
        // misses on layout 1 vs a single read in layout 2.
        let ds = tiny(2);
        let p1 = tmp("cmp1");
        let mut t1 = ReadingTable::create(&p1, &ds).unwrap();
        t1.make_cold();
        t1.consumer_year(ConsumerId(0)).unwrap();
        let misses = t1.pool.stats().misses;
        // 8760 readings * 24 B ≈ 26 pages minimum.
        assert!(misses >= 25, "layout 1 touched only {misses} pages");
        std::fs::remove_file(p1).unwrap();
    }

    #[test]
    fn unknown_consumer_errors() {
        let ds = tiny(1);
        let p = tmp("unknown");
        let mut t = ReadingTable::create(&p, &ds).unwrap();
        assert!(t.consumer_year(ConsumerId(999)).is_err());
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn layout_names_are_distinct() {
        let ds = tiny(1);
        let p1 = tmp("n1");
        let p2 = tmp("n2");
        let p3 = tmp("n3");
        let t1 = ReadingTable::create(&p1, &ds).unwrap();
        let t2 = ArrayTable::create(&p2, &ds).unwrap();
        let t3 = DayTable::create(&p3, &ds).unwrap();
        let names = [t1.layout_name(), t2.layout_name(), t3.layout_name()];
        assert_eq!(
            names.iter().collect::<std::collections::HashSet<_>>().len(),
            3,
            "{names:?}"
        );
        for p in [p1, p2, p3] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn reopened_tables_serve_the_same_data() {
        let ds = tiny(2);
        let p1 = tmp("ro1");
        let p2 = tmp("ro2");
        let p3 = tmp("ro3");
        let index1 = ReadingTable::create(&p1, &ds).unwrap().index();
        let directory = ArrayTable::create(&p2, &ds).unwrap().directory();
        let index3 = DayTable::create(&p3, &ds).unwrap().index();
        assert_round_trip(
            &mut ReadingTable::open_with_index(&p1, index1).unwrap(),
            &ds,
        );
        assert_round_trip(
            &mut ArrayTable::open_with_directory(&p2, directory).unwrap(),
            &ds,
        );
        assert_round_trip(&mut DayTable::open_with_index(&p3, index3).unwrap(), &ds);
        for p in [p1, p2, p3] {
            std::fs::remove_file(p).unwrap();
        }
    }
}
