//! The three text formats evaluated in Section 5.4.2 of the paper.
//!
//! * [`DataFormat::ReadingPerLine`] (format 1): one file, one smart meter
//!   reading per line. The most flexible layout, but a grouping (reduce)
//!   step is needed because a household's readings may be scattered.
//! * [`DataFormat::ConsumerPerLine`] (format 2): one file, one household
//!   per line — all 8760 readings on a single line. Map-only jobs suffice.
//! * [`DataFormat::ManyFiles`] (format 3): many files, one reading per
//!   line, with every household fully contained in exactly one file
//!   (the paper pairs this with a non-splittable input format).
//!
//! Formats 2 and 3 do not embed temperature per line; the shared weather
//! series is stored in a sidecar `temperature.csv` (one value per line).
//! Format 1 embeds the temperature in every row, which is why the paper
//! observes 3-line to be the most memory-hungry task under format 1.

use std::fs;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::PathBuf;

use crate::calendar::HOURS_PER_YEAR;
use crate::csv;
use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::reading::Reading;
use crate::series::{ConsumerId, ConsumerSeries, TemperatureSeries};

/// Which on-disk text format a dataset is materialized in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataFormat {
    /// Format 1: one file, one reading per line (`consumer,hour,temp,kwh`).
    ReadingPerLine,
    /// Format 2: one file, one consumer per line (`consumer,kwh0,...,kwh8759`).
    ConsumerPerLine,
    /// Format 3: `files` files, one reading per line, households never split
    /// across files.
    ManyFiles {
        /// Number of part files to produce.
        files: usize,
    },
}

impl DataFormat {
    /// Short name used in reports ("F1"/"F2"/"F3").
    pub fn label(&self) -> &'static str {
        match self {
            DataFormat::ReadingPerLine => "F1",
            DataFormat::ConsumerPerLine => "F2",
            DataFormat::ManyFiles { .. } => "F3",
        }
    }
}

const TEMPERATURE_FILE: &str = "temperature.csv";

/// Writes datasets to a directory in one of the three formats.
#[derive(Debug)]
pub struct FormatWriter {
    dir: PathBuf,
}

impl FormatWriter {
    /// A writer rooted at `dir` (created if missing).
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| Error::io(format!("creating {}", dir.display()), e))?;
        Ok(FormatWriter { dir })
    }

    /// Materialize `ds` in `format`, returning the data files written
    /// (excluding the temperature sidecar).
    pub fn write(&self, ds: &Dataset, format: DataFormat) -> Result<Vec<PathBuf>> {
        match format {
            DataFormat::ReadingPerLine => self.write_f1(ds),
            DataFormat::ConsumerPerLine => self.write_f2(ds),
            DataFormat::ManyFiles { files } => self.write_f3(ds, files),
        }
    }

    fn create(&self, name: &str) -> Result<BufWriter<fs::File>> {
        let path = self.dir.join(name);
        let f = fs::File::create(&path)
            .map_err(|e| Error::io(format!("creating {}", path.display()), e))?;
        Ok(BufWriter::new(f))
    }

    /// Write the shared temperature sidecar, `temperature.csv`: one
    /// value per line. Every format writes it; a store with a layout of
    /// its own calls it for the same bytes.
    pub fn write_temperature(&self, ds: &Dataset) -> Result<()> {
        let mut w = self.create(TEMPERATURE_FILE)?;
        for v in ds.temperature().values() {
            writeln!(w, "{v}").map_err(|e| Error::io("writing temperature", e))?;
        }
        w.flush().map_err(|e| Error::io("flushing temperature", e))
    }

    fn write_f1(&self, ds: &Dataset) -> Result<Vec<PathBuf>> {
        let mut w = self.create("readings.csv")?;
        for r in ds.readings() {
            writeln!(w, "{}", csv::reading_line(&r))
                .map_err(|e| Error::io("writing readings.csv", e))?;
        }
        w.flush()
            .map_err(|e| Error::io("flushing readings.csv", e))?;
        self.write_temperature(ds)?;
        Ok(vec![self.dir.join("readings.csv")])
    }

    fn write_f2(&self, ds: &Dataset) -> Result<Vec<PathBuf>> {
        let mut w = self.create("consumers.csv")?;
        for c in ds.consumers() {
            writeln!(w, "{}", csv::consumer_line(c.id, c.readings()))
                .map_err(|e| Error::io("writing consumers.csv", e))?;
        }
        w.flush()
            .map_err(|e| Error::io("flushing consumers.csv", e))?;
        self.write_temperature(ds)?;
        Ok(vec![self.dir.join("consumers.csv")])
    }

    fn write_f3(&self, ds: &Dataset, files: usize) -> Result<Vec<PathBuf>> {
        if files == 0 {
            return Err(Error::Invalid("format 3 requires at least one file".into()));
        }
        let n = ds.len();
        let per_file = n.div_ceil(files.max(1));
        let mut paths = Vec::new();
        for (fi, chunk) in ds.consumers().chunks(per_file.max(1)).enumerate() {
            let name = format!("part-{fi:05}.csv");
            let mut w = self.create(&name)?;
            for r in chunk.iter().flat_map(|c| ds.readings_of(c)) {
                writeln!(w, "{}", csv::reading_line(&r))
                    .map_err(|e| Error::io(format!("writing {name}"), e))?;
            }
            w.flush()
                .map_err(|e| Error::io(format!("flushing {name}"), e))?;
            paths.push(self.dir.join(name));
        }
        self.write_temperature(ds)?;
        Ok(paths)
    }
}

/// Reads datasets back from a directory written by [`FormatWriter`].
#[derive(Debug)]
pub struct FormatReader {
    dir: PathBuf,
}

impl FormatReader {
    /// A reader rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FormatReader { dir: dir.into() }
    }

    /// The data files for `format`, in deterministic (sorted) order —
    /// the unit of input splits for the cluster engines.
    fn data_files(&self, format: DataFormat) -> Result<Vec<PathBuf>> {
        match format {
            DataFormat::ReadingPerLine => Ok(vec![self.dir.join("readings.csv")]),
            DataFormat::ConsumerPerLine => Ok(vec![self.dir.join("consumers.csv")]),
            DataFormat::ManyFiles { .. } => {
                let mut parts = Vec::new();
                let entries = fs::read_dir(&self.dir)
                    .map_err(|e| Error::io(format!("listing {}", self.dir.display()), e))?;
                for entry in entries {
                    let entry = entry.map_err(|e| Error::io("listing directory", e))?;
                    let name = entry.file_name();
                    let name = name.to_string_lossy();
                    if name.starts_with("part-") && name.ends_with(".csv") {
                        parts.push(entry.path());
                    }
                }
                parts.sort();
                Ok(parts)
            }
        }
    }

    /// Read the shared temperature sidecar.
    pub fn read_temperature(&self) -> Result<TemperatureSeries> {
        let path = self.dir.join(TEMPERATURE_FILE);
        let f = fs::File::open(&path)
            .map_err(|e| Error::io(format!("opening {}", path.display()), e))?;
        let mut values = Vec::with_capacity(HOURS_PER_YEAR);
        for (i, line) in BufReader::new(f).lines().enumerate() {
            let line = line.map_err(|e| Error::io("reading temperature", e))?;
            if line.is_empty() {
                continue;
            }
            let v: f64 = line.trim().parse().map_err(|_| {
                Error::parse(
                    TEMPERATURE_FILE,
                    Some(i + 1),
                    format!("invalid value `{line}`"),
                )
            })?;
            values.push(v);
        }
        TemperatureSeries::new(values)
    }

    /// Read the whole dataset back into memory.
    pub fn read(&self, format: DataFormat) -> Result<Dataset> {
        let temperature = self.read_temperature()?;
        let consumers = match format {
            DataFormat::ReadingPerLine | DataFormat::ManyFiles { .. } => {
                let mut readings = Vec::new();
                for path in self.data_files(format)? {
                    let f = fs::File::open(&path)
                        .map_err(|e| Error::io(format!("opening {}", path.display()), e))?;
                    readings.extend(csv::read_readings(
                        BufReader::new(f),
                        &path.display().to_string(),
                    )?);
                }
                assemble_consumers(readings)?
            }
            DataFormat::ConsumerPerLine => {
                let path = self.dir.join("consumers.csv");
                let f = fs::File::open(&path)
                    .map_err(|e| Error::io(format!("opening {}", path.display()), e))?;
                let mut out = Vec::new();
                for (i, line) in BufReader::new(f).lines().enumerate() {
                    let line = line.map_err(|e| Error::io("reading consumers.csv", e))?;
                    if line.is_empty() {
                        continue;
                    }
                    out.push(csv::parse_consumer_line(
                        &line,
                        "consumers.csv",
                        Some(i + 1),
                    )?);
                }
                out
            }
        };
        Dataset::new(consumers, temperature)
    }
}

/// One household's year as text formats 1 and 3 carry it: the readings
/// and, beside each, the temperature of its hour.
#[derive(Debug, Clone, PartialEq)]
pub struct HouseholdYear {
    /// The household.
    pub consumer: ConsumerId,
    /// Consumption by hour of year, kWh.
    pub kwh: Vec<f64>,
    /// Outdoor temperature by hour of year, °C.
    pub temperature: Vec<f64>,
}

impl HouseholdYear {
    /// One household's rows, ascending by hour, to its year — or the
    /// lowest hour at which the rows stop being a year.
    fn from_sorted(consumer: ConsumerId, rows: &[Reading]) -> Result<Self> {
        let refuse = |hour: usize, what: &str| {
            Err(Error::Schema(format!(
                "consumer {consumer}: hour {hour} is {what} (a year is every hour of \
                 0..{HOURS_PER_YEAR} once)"
            )))
        };
        for (next, r) in rows.iter().enumerate() {
            let hour = r.hour as usize;
            if hour >= HOURS_PER_YEAR {
                return refuse(hour, "out of range");
            } else if hour < next {
                return refuse(hour, "duplicated");
            } else if hour > next {
                return refuse(next, "missing");
            }
        }
        if rows.len() < HOURS_PER_YEAR {
            return refuse(rows.len(), "missing");
        }
        Ok(HouseholdYear {
            consumer,
            kwh: rows.iter().map(|r| r.kwh).collect(),
            temperature: rows.iter().map(|r| r.temperature).collect(),
        })
    }
}

/// The one assembler — the "reduce" the paper says format 1 requires.
/// Rows of any number of households, in any order, to each household's
/// year, ascending by id. A household whose rows are not every hour of
/// the year exactly once is a [`Error::Schema`] naming it and the lowest
/// hour that is out of range, duplicated or missing; the households
/// before it still come out whole.
pub fn assemble_households(mut rows: Vec<Reading>) -> impl Iterator<Item = Result<HouseholdYear>> {
    rows.sort_by_key(|r| (r.consumer, r.hour));
    let mut done = 0;
    std::iter::from_fn(move || {
        let run = rows[done..]
            .chunk_by(|a, b| a.consumer == b.consumer)
            .next()?;
        done += run.len();
        Some(HouseholdYear::from_sorted(run[0].consumer, run))
    })
}

/// [`assemble_households`] for rows that all belong to `consumer` — a
/// reducer's key group, one file of a partitioned store. No rows at all
/// is that household's hour 0 missing.
pub fn assemble_year(consumer: ConsumerId, rows: Vec<Reading>) -> Result<HouseholdYear> {
    assemble_households(rows)
        .next()
        .unwrap_or_else(|| HouseholdYear::from_sorted(consumer, &[]))
}

/// Group row-oriented readings back into per-consumer series.
pub fn assemble_consumers(readings: Vec<Reading>) -> Result<Vec<ConsumerSeries>> {
    assemble_households(readings)
        .map(|year| year.and_then(|y| ConsumerSeries::new(y.consumer, y.kwh)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(n: u32) -> Dataset {
        let temp = TemperatureSeries::new(
            (0..HOURS_PER_YEAR)
                .map(|h| (h % 40) as f64 - 10.0)
                .collect(),
        )
        .unwrap();
        let consumers = (0..n)
            .map(|i| {
                let readings = (0..HOURS_PER_YEAR)
                    .map(|h| 0.1 * ((h % 24) as f64) + i as f64 * 0.01)
                    .collect();
                ConsumerSeries::new(ConsumerId(i), readings).unwrap()
            })
            .collect();
        Dataset::new(consumers, temp).unwrap()
    }

    fn round_trip(format: DataFormat) {
        let dir = std::env::temp_dir().join(format!(
            "smda-fmt-{}-{}",
            format.label(),
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let ds = tiny(5);
        let writer = FormatWriter::new(&dir).unwrap();
        let files = writer.write(&ds, format).unwrap();
        assert!(!files.is_empty());
        let back = FormatReader::new(&dir).read(format).unwrap();
        assert_eq!(back.len(), ds.len());
        for (a, b) in back.consumers().iter().zip(ds.consumers()) {
            assert_eq!(a.id, b.id);
            for (x, y) in a.readings().iter().zip(b.readings()) {
                assert!((x - y).abs() < 1e-3, "{x} vs {y}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn format1_round_trip() {
        round_trip(DataFormat::ReadingPerLine);
    }

    #[test]
    fn format2_round_trip() {
        round_trip(DataFormat::ConsumerPerLine);
    }

    #[test]
    fn format3_round_trip_and_file_count() {
        let dir = std::env::temp_dir().join(format!("smda-f3-count-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let ds = tiny(7);
        let writer = FormatWriter::new(&dir).unwrap();
        let files = writer
            .write(&ds, DataFormat::ManyFiles { files: 3 })
            .unwrap();
        assert_eq!(files.len(), 3);
        let reader = FormatReader::new(&dir);
        let listed = reader
            .data_files(DataFormat::ManyFiles { files: 3 })
            .unwrap();
        assert_eq!(listed, files);
        round_trip(DataFormat::ManyFiles { files: 3 });
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn format3_rejects_zero_files() {
        let dir = std::env::temp_dir().join(format!("smda-f3-zero-{}", std::process::id()));
        let writer = FormatWriter::new(&dir).unwrap();
        assert!(writer
            .write(&tiny(1), DataFormat::ManyFiles { files: 0 })
            .is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn assemble_rejects_gaps() {
        let mut rows: Vec<Reading> = tiny(1).readings().collect();
        rows.remove(100);
        let err = assemble_consumers(rows).unwrap_err().to_string();
        assert!(err.contains("H000000: hour 100 is missing"), "{err}");
    }

    #[test]
    fn assemble_names_the_household_and_the_lowest_offending_hour() {
        let clean: Vec<Reading> = tiny(2).readings().collect();
        let second = HOURS_PER_YEAR; // the second household's hour 0
        for (damage, want) in [
            (
                Box::new(|rows: &mut Vec<Reading>| rows[second + 7].hour = 9000)
                    as Box<dyn Fn(&mut Vec<Reading>)>,
                "H000001: hour 7 is missing",
            ),
            (
                Box::new(|rows: &mut Vec<Reading>| {
                    rows.push(Reading {
                        hour: 9000,
                        ..rows[0]
                    })
                }),
                "H000000: hour 9000 is out of range",
            ),
            (
                Box::new(|rows: &mut Vec<Reading>| rows[second + 7].hour = 6),
                "H000001: hour 6 is duplicated",
            ),
            (
                Box::new(|rows: &mut Vec<Reading>| rows.truncate(second + 8000)),
                "H000001: hour 8000 is missing",
            ),
        ] {
            let mut rows = clean.clone();
            damage(&mut rows);
            rows.reverse();
            let mut years = assemble_households(rows);
            let first = years.next().unwrap();
            let err = match want.starts_with("H000000") {
                true => first.unwrap_err(),
                false => {
                    assert_eq!(first.unwrap().consumer, ConsumerId(0), "{want}");
                    years.next().unwrap().unwrap_err()
                }
            };
            assert!(matches!(err, Error::Schema(_)), "{err:?}");
            assert!(err.to_string().contains(want), "{want}: {err}");
        }
        let err = assemble_year(ConsumerId(5), Vec::new()).unwrap_err();
        assert!(
            err.to_string().contains("H000005: hour 0 is missing"),
            "{err}"
        );
    }

    #[test]
    fn assembled_years_carry_the_temperature_beside_the_reading() {
        let ds = tiny(2);
        let mut rows: Vec<Reading> = ds.readings().collect();
        rows.reverse();
        let years: Vec<HouseholdYear> = assemble_households(rows).collect::<Result<_>>().unwrap();
        assert_eq!(years.len(), 2);
        for (year, c) in years.iter().zip(ds.consumers()) {
            assert_eq!(year.consumer, c.id);
            assert_eq!(year.kwh, c.readings());
            assert_eq!(year.temperature, ds.temperature().values());
        }
    }

    #[test]
    fn assemble_handles_shuffled_input() {
        let mut rows: Vec<Reading> = tiny(2).readings().collect();
        rows.reverse();
        let consumers = assemble_consumers(rows).unwrap();
        assert_eq!(consumers.len(), 2);
        assert_eq!(consumers[0].id, ConsumerId(0));
    }

    #[test]
    fn labels() {
        assert_eq!(DataFormat::ReadingPerLine.label(), "F1");
    }
}
