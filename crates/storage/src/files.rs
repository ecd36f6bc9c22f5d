//! The Matlab-like file store: CSV read directly at query time.
//!
//! Two layouts mirror the Figure 4/5 experiment:
//!
//! * [`FileLayout::Partitioned`] — one `H%06d.csv` file per consumer
//!   (lines `hour,kwh`), plus the shared `temperature.csv`. Reading one
//!   consumer touches one small file — the layout Matlab prefers.
//! * [`FileLayout::Unpartitioned`] — a single `readings.csv` in Format 1.
//!   Extracting a consumer requires scanning and grouping the whole file,
//!   which is what makes unpartitioned Matlab slow in Figure 5.

use std::fs::{self, File};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use smda_types::formats::assemble_year;
use smda_types::{
    csv, ConsumerId, ConsumerSeries, DataFormat, Dataset, Error, FormatReader, FormatWriter,
    Reading, Result, TemperatureSeries, HOURS_PER_YEAR,
};

/// How the CSV data is laid out on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileLayout {
    /// One file per consumer.
    Partitioned,
    /// One big Format-1 file.
    Unpartitioned,
}

impl FileLayout {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FileLayout::Partitioned => "part.",
            FileLayout::Unpartitioned => "un-part.",
        }
    }
}

/// A directory of CSV files in one of the two layouts.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    layout: FileLayout,
}

fn consumer_file_name(id: ConsumerId) -> String {
    format!("{id}.csv")
}

impl FileStore {
    /// Materialize `ds` under `dir` in the given layout.
    pub fn create(dir: impl Into<PathBuf>, ds: &Dataset, layout: FileLayout) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| Error::io(format!("creating {}", dir.display()), e))?;
        match layout {
            FileLayout::Unpartitioned => {
                FormatWriter::new(&dir)?.write(ds, DataFormat::ReadingPerLine)?;
            }
            FileLayout::Partitioned => {
                for c in ds.consumers() {
                    let path = dir.join(consumer_file_name(c.id));
                    let f = File::create(&path)
                        .map_err(|e| Error::io(format!("creating {}", path.display()), e))?;
                    let mut w = BufWriter::new(f);
                    for (h, kwh) in c.readings().iter().enumerate() {
                        writeln!(w, "{h},{kwh}")
                            .map_err(|e| Error::io("writing consumer file", e))?;
                    }
                    w.flush()
                        .map_err(|e| Error::io("flushing consumer file", e))?;
                }
                // Shared temperature sidecar (reuse the format writer's
                // convention by writing it directly).
                let path = dir.join("temperature.csv");
                let f = File::create(&path)
                    .map_err(|e| Error::io(format!("creating {}", path.display()), e))?;
                let mut w = BufWriter::new(f);
                for t in ds.temperature().values() {
                    writeln!(w, "{t}").map_err(|e| Error::io("writing temperature", e))?;
                }
                w.flush()
                    .map_err(|e| Error::io("flushing temperature", e))?;
            }
        }
        Ok(FileStore { dir, layout })
    }

    /// Open an existing store.
    pub fn open(dir: impl Into<PathBuf>, layout: FileLayout) -> Self {
        FileStore {
            dir: dir.into(),
            layout,
        }
    }

    /// The layout in use.
    pub fn layout(&self) -> FileLayout {
        self.layout
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Consumer ids present, ascending.
    pub fn consumer_ids(&self) -> Result<Vec<ConsumerId>> {
        match self.layout {
            FileLayout::Partitioned => {
                let mut ids = Vec::new();
                let entries = fs::read_dir(&self.dir)
                    .map_err(|e| Error::io(format!("listing {}", self.dir.display()), e))?;
                for entry in entries {
                    let entry = entry.map_err(|e| Error::io("listing store", e))?;
                    let name = entry.file_name();
                    let name = name.to_string_lossy();
                    if let Some(num) = name.strip_prefix('H').and_then(|s| s.strip_suffix(".csv")) {
                        if let Ok(id) = num.parse::<u32>() {
                            ids.push(ConsumerId(id));
                        }
                    }
                }
                ids.sort();
                Ok(ids)
            }
            FileLayout::Unpartitioned => {
                // Requires a full scan — intentionally expensive, matching
                // how Matlab must index the big file.
                let ds = self.read_all()?;
                Ok(ds.consumers().iter().map(|c| c.id).collect())
            }
        }
    }

    /// The shared temperature series.
    pub fn read_temperature(&self) -> Result<TemperatureSeries> {
        FormatReader::new(&self.dir).read_temperature()
    }

    /// Read one consumer's readings.
    ///
    /// Partitioned: opens exactly one small file. Unpartitioned: scans
    /// the whole big file and extracts the consumer — the pathology
    /// Figure 5 demonstrates.
    pub fn read_consumer(&self, id: ConsumerId) -> Result<Vec<f64>> {
        let mut values = Vec::new();
        self.read_consumer_into(id, &mut values)?;
        Ok(values)
    }

    /// [`FileStore::read_consumer`] into a caller-provided buffer. The
    /// rows found for `id` — in any order — go through the one assembler
    /// ([`assemble_year`]): an hour out of range, twice or not at all is
    /// a schema error naming the household and the hour.
    pub fn read_consumer_into(&self, id: ConsumerId, values: &mut Vec<f64>) -> Result<()> {
        let partitioned = self.layout == FileLayout::Partitioned;
        let path = self.dir.join(match partitioned {
            true => consumer_file_name(id),
            false => "readings.csv".into(),
        });
        let context = path.display().to_string();
        let f = File::open(&path).map_err(|e| Error::io(format!("opening {context}"), e))?;
        let mut rows = Vec::with_capacity(HOURS_PER_YEAR);
        for (i, line) in BufReader::new(f).lines().enumerate() {
            let line = line.map_err(|e| Error::io(format!("reading {context}"), e))?;
            if line.is_empty() {
                continue;
            }
            let row = if partitioned {
                // `hour,kwh`: the file's name carries the household, the
                // sidecar the temperature.
                let bad = |what: &str| Error::parse(context.as_str(), Some(i + 1), what);
                let (h, v) = line
                    .split_once(',')
                    .ok_or_else(|| bad("expected hour,kwh"))?;
                Reading {
                    consumer: id,
                    hour: h.trim().parse().map_err(|_| bad("bad hour"))?,
                    temperature: 0.0,
                    kwh: v.trim().parse().map_err(|_| bad("bad kwh"))?,
                }
            } else {
                csv::parse_reading_line(&line, &context, Some(i + 1))?
            };
            // The big file holds everyone: scanning past the others is
            // the pathology Figure 5 demonstrates.
            if row.consumer == id {
                rows.push(row);
            }
        }
        *values = assemble_year(id, rows)?.kwh;
        Ok(())
    }

    /// Read the whole store into a dataset.
    pub fn read_all(&self) -> Result<Dataset> {
        match self.layout {
            FileLayout::Unpartitioned => {
                FormatReader::new(&self.dir).read(DataFormat::ReadingPerLine)
            }
            FileLayout::Partitioned => {
                let temperature = self.read_temperature()?;
                let ids = self.consumer_ids()?;
                let consumers = ids
                    .into_iter()
                    .map(|id| ConsumerSeries::new(id, self.read_consumer(id)?))
                    .collect::<Result<Vec<_>>>()?;
                Dataset::new(consumers, temperature)
            }
        }
    }

    /// Total bytes of the store's data files (for loading-cost reports).
    pub fn total_bytes(&self) -> Result<u64> {
        let mut total = 0;
        let entries = fs::read_dir(&self.dir)
            .map_err(|e| Error::io(format!("listing {}", self.dir.display()), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| Error::io("listing store", e))?;
            total += entry
                .metadata()
                .map_err(|e| Error::io("stat file", e))?
                .len();
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        std::env::temp_dir().join(format!("smda-files-{tag}-{}", std::process::id()))
    }

    #[test]
    fn partitioned_round_trip() {
        let ds = tiny(3);
        let dir = tmp("part");
        let _ = fs::remove_dir_all(&dir);
        let store = FileStore::create(&dir, &ds, FileLayout::Partitioned).unwrap();
        assert_eq!(store.consumer_ids().unwrap().len(), 3);
        let got = store.read_consumer(ConsumerId(1)).unwrap();
        for (a, b) in got.iter().zip(ds.consumers()[1].readings()) {
            assert!((a - b).abs() < 1e-3);
        }
        let all = store.read_all().unwrap();
        assert_eq!(all.len(), 3);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn unpartitioned_round_trip() {
        let ds = tiny(2);
        let dir = tmp("unpart");
        let _ = fs::remove_dir_all(&dir);
        let store = FileStore::create(&dir, &ds, FileLayout::Unpartitioned).unwrap();
        let got = store.read_consumer(ConsumerId(0)).unwrap();
        for (a, b) in got.iter().zip(ds.consumers()[0].readings()) {
            assert!((a - b).abs() < 1e-3);
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_consumer_errors() {
        let ds = tiny(1);
        let dir = tmp("missing");
        let _ = fs::remove_dir_all(&dir);
        let store = FileStore::create(&dir, &ds, FileLayout::Partitioned).unwrap();
        assert!(store.read_consumer(ConsumerId(42)).is_err());
        let dir2 = tmp("missing2");
        let _ = fs::remove_dir_all(&dir2);
        let store2 = FileStore::create(&dir2, &ds, FileLayout::Unpartitioned).unwrap();
        assert!(store2.read_consumer(ConsumerId(42)).is_err());
        fs::remove_dir_all(dir).unwrap();
        fs::remove_dir_all(dir2).unwrap();
    }

    #[test]
    fn an_hour_out_of_range_or_twice_is_a_schema_error_in_both_layouts() {
        let ds = tiny(2);
        // Per layout: household 1's file, the line holding its hour 100,
        // which field of that line is the hour, and one more row for it.
        for (layout, file, at, hour_field, extra) in [
            (
                FileLayout::Unpartitioned,
                "readings.csv",
                HOURS_PER_YEAR + 100,
                1,
                "1,9000,0,0.5",
            ),
            (FileLayout::Partitioned, "H000001.csv", 100, 0, "9000,0.5"),
        ] {
            let dir = tmp(&format!("damaged-{}", layout.label()));
            let _ = fs::remove_dir_all(&dir);
            let store = FileStore::create(&dir, &ds, layout).unwrap();
            let path = dir.join(file);
            let clean = fs::read_to_string(&path).unwrap();
            let with_hour = |hour: &str| {
                let mut lines: Vec<String> = clean.lines().map(str::to_owned).collect();
                let mut fields: Vec<&str> = lines[at].split(',').collect();
                fields[hour_field] = hour;
                lines[at] = fields.join(",");
                lines.join("\n")
            };
            for (damaged, want) in [
                // Used to index past the year: a panic, unpartitioned.
                (with_hour("9000"), "hour 100 is missing"),
                // One hour twice and one never is still 8760 rows, which a
                // count alone accepted.
                (with_hour("99"), "hour 99 is duplicated"),
                (format!("{clean}{extra}\n"), "hour 9000 is out of range"),
            ] {
                fs::write(&path, damaged).unwrap();
                match store.read_consumer(ConsumerId(1)) {
                    Err(Error::Schema(msg)) => {
                        assert!(msg.contains("H000001") && msg.contains(want), "{msg}")
                    }
                    other => panic!("{layout:?}/{want}: want a schema error, got {other:?}"),
                }
            }
            fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn partitioned_store_has_one_file_per_consumer() {
        let ds = tiny(4);
        let dir = tmp("count");
        let _ = fs::remove_dir_all(&dir);
        let store = FileStore::create(&dir, &ds, FileLayout::Partitioned).unwrap();
        let files = fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 5); // 4 consumers + temperature.csv
        assert!(store.total_bytes().unwrap() > 0);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn temperature_shared_across_layouts() {
        let ds = tiny(1);
        for layout in [FileLayout::Partitioned, FileLayout::Unpartitioned] {
            let dir = tmp(layout.label());
            let _ = fs::remove_dir_all(&dir);
            let store = FileStore::create(&dir, &ds, layout).unwrap();
            let t = store.read_temperature().unwrap();
            for (a, b) in t.values().iter().zip(ds.temperature().values()) {
                assert!((a - b).abs() < 1e-3);
            }
            fs::remove_dir_all(dir).unwrap();
        }
    }
}
