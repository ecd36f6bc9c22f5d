//! In-memory text renderings of a dataset, split for cluster input.
//!
//! The cluster engines process *text*, exactly as Hive external tables
//! and Spark text RDDs do — parsing costs are real and format-dependent
//! (Section 5.4.2). A [`TextTable`] renders a dataset into lines in one
//! of the three formats, registers the file(s) in the simulated DFS, and
//! exposes the DFS input splits paired with their actual lines.

use std::sync::Arc;

use smda_obs::{counters, MetricsSink};
use smda_types::{
    csv, ConsumerSeries, DataFormat, Dataset, DirtyDataPolicy, Error, Reading, Result,
    HOURS_PER_YEAR,
};

use crate::dfs::SimDfs;

/// A parsed line under a dirty-data policy: a line the codec refuses
/// either fails the load (fail-fast, the default) or is dropped as
/// `Ok(None)` with [`counters::ROWS_SKIPPED_DIRTY`] bumped
/// (skip-and-count). Only *lines* are ever skipped: what the surviving
/// lines say about a household is a schema question, refused under
/// either policy.
fn policed<T>(
    parsed: Result<T>,
    policy: DirtyDataPolicy,
    metrics: &MetricsSink,
) -> Result<Option<T>> {
    match parsed {
        Ok(row) => Ok(Some(row)),
        Err(Error::Parse { .. }) if policy.skips() => {
            metrics.incr(counters::ROWS_SKIPPED_DIRTY, 1);
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// Parse a `consumer,hour,temp,kwh` line (the engines' map-side cost)
/// under a dirty-data policy. Dirtiness covers unparsable text,
/// non-finite values, and hours past the year.
pub fn parse_reading_policed(
    line: &str,
    policy: DirtyDataPolicy,
    metrics: &MetricsSink,
) -> Result<Option<Reading>> {
    let parsed = csv::parse_reading_line(line, "reading line", None).and_then(|row| {
        if !row.kwh.is_finite() || !row.temperature.is_finite() {
            return Err(Error::parse("reading line", None, "non-finite value"));
        }
        if row.hour as usize >= HOURS_PER_YEAR {
            let what = format!("hour {} beyond the benchmark year", row.hour);
            return Err(Error::parse("reading line", None, what));
        }
        Ok(row)
    });
    policed(parsed, policy, metrics)
}

/// Parse a Format-2 `consumer,kwh0,...,kwh8759` line under a dirty-data
/// policy. A line that parses but is not a valid year is refused under
/// either policy.
pub fn parse_consumer_policed(
    line: &str,
    policy: DirtyDataPolicy,
    metrics: &MetricsSink,
) -> Result<Option<ConsumerSeries>> {
    let parsed = csv::parse_consumer_line(line, "consumer line", None);
    policed(parsed, policy, metrics)
}

/// One input split: real lines plus modeled placement.
#[derive(Debug, Clone)]
pub struct TextSplit {
    /// The actual text lines of the split.
    pub lines: Arc<Vec<String>>,
    /// Split size in bytes (drives modeled read time).
    pub bytes: u64,
    /// Nodes holding the split locally.
    pub hosts: Vec<usize>,
}

/// A dataset rendered to text and registered in the DFS.
#[derive(Debug)]
pub struct TextTable {
    /// Table name (DFS file prefix).
    pub name: String,
    /// The format the text is in.
    pub format: DataFormat,
    /// The input splits, in file/offset order.
    pub splits: Vec<TextSplit>,
    /// The shared temperature series, hour-indexed (formats 2/3 do not
    /// embed temperature per line; format 1 does, but engines may still
    /// use this sidecar).
    pub temperature: Arc<Vec<f64>>,
    /// Total data bytes.
    pub total_bytes: u64,
}

fn line_bytes(lines: &[String]) -> u64 {
    lines.iter().map(|l| l.len() as u64 + 1).sum()
}

impl TextTable {
    /// Render `ds` in `format`, register it in `dfs`, and cut splits.
    ///
    /// Formats 1 and 2 produce one splittable DFS file whose splits
    /// follow block boundaries (respecting line boundaries on the real
    /// text). Format 3 produces `files` non-splittable DFS files, one
    /// split each.
    pub fn build(
        name: impl Into<String>,
        ds: &Dataset,
        format: DataFormat,
        dfs: &mut SimDfs,
    ) -> Result<Self> {
        let name = name.into();
        if ds.is_empty() {
            return Err(Error::Invalid(
                "cannot build a text table from an empty dataset".into(),
            ));
        }
        let temperature = Arc::new(ds.temperature().values().to_vec());
        let block = dfs.config().block_bytes;
        let mut splits = Vec::new();
        let mut total_bytes = 0u64;

        match format {
            DataFormat::ReadingPerLine | DataFormat::ConsumerPerLine => {
                let lines: Vec<String> = match format {
                    DataFormat::ConsumerPerLine => ds
                        .consumers()
                        .iter()
                        .map(|c| csv::consumer_line(c.id, c.readings()))
                        .collect(),
                    _ => {
                        let mut lines = Vec::with_capacity(ds.reading_count());
                        lines.extend(ds.readings().map(|r| csv::reading_line(&r)));
                        lines
                    }
                };
                total_bytes = line_bytes(&lines);
                // Attach hosts straight from the returned placement.
                let file = dfs.ingest(&name, total_bytes, true)?;
                splits = cut_line_splits(lines, file.blocks.len(), block);
                for (s, b) in splits.iter_mut().zip(&file.blocks) {
                    s.hosts = b.replicas.clone();
                }
            }
            DataFormat::ManyFiles { files } => {
                if files == 0 {
                    return Err(Error::Invalid("format 3 requires at least one file".into()));
                }
                let per_file = ds.len().div_ceil(files);
                for (fi, chunk) in ds.consumers().chunks(per_file.max(1)).enumerate() {
                    let lines: Vec<String> = chunk
                        .iter()
                        .flat_map(|c| ds.readings_of(c))
                        .map(|r| csv::reading_line(&r))
                        .collect();
                    let bytes = line_bytes(&lines);
                    total_bytes += bytes;
                    let file_name = format!("{name}/part-{fi:05}");
                    let file = dfs.ingest(&file_name, bytes, false)?;
                    splits.push(TextSplit {
                        lines: Arc::new(lines),
                        bytes,
                        hosts: file.blocks[0].replicas.clone(),
                    });
                }
            }
        }

        Ok(TextTable {
            name,
            format,
            splits,
            temperature,
            total_bytes,
        })
    }

    /// Number of map input splits.
    pub fn split_count(&self) -> usize {
        self.splits.len()
    }

    /// Re-read every split's host list from the DFS — after replica
    /// losses or node failures, so the scheduler plans against real
    /// placement instead of stale locality.
    ///
    /// # Errors
    /// [`Error::BlockUnavailable`] when a split's block lost every
    /// replica: the table is unreadable and the job must fail with a
    /// diagnostic instead of a fictitious makespan.
    pub fn refresh_hosts(&mut self, dfs: &SimDfs) -> Result<()> {
        match self.format {
            DataFormat::ManyFiles { .. } => {
                for (fi, split) in self.splits.iter_mut().enumerate() {
                    let file_name = format!("{}/part-{fi:05}", self.name);
                    let placed = dfs.splits(std::slice::from_ref(&file_name))?;
                    split.hosts = placed[0].hosts.clone();
                }
            }
            _ => {
                let placed = dfs.splits(std::slice::from_ref(&self.name))?;
                for (split, p) in self.splits.iter_mut().zip(placed) {
                    split.hosts = p.hosts;
                }
            }
        }
        Ok(())
    }
}

/// Cut `lines` into `parts` splits of roughly `block` bytes each,
/// respecting line boundaries (like HDFS readers do).
fn cut_line_splits(lines: Vec<String>, parts: usize, block: u64) -> Vec<TextSplit> {
    let mut splits = Vec::with_capacity(parts);
    let mut current: Vec<String> = Vec::new();
    let mut current_bytes = 0u64;
    for line in lines {
        let lb = line.len() as u64 + 1;
        if current_bytes + lb > block && !current.is_empty() {
            splits.push(TextSplit {
                lines: Arc::new(std::mem::take(&mut current)),
                bytes: current_bytes,
                hosts: Vec::new(),
            });
            current_bytes = 0;
        }
        current.push(line);
        current_bytes += lb;
    }
    if !current.is_empty() {
        splits.push(TextSplit {
            lines: Arc::new(current),
            bytes: current_bytes,
            hosts: Vec::new(),
        });
    }
    splits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::DfsConfig;
    use smda_types::{ConsumerId, ConsumerSeries, TemperatureSeries, HOURS_PER_YEAR};

    fn tiny(n: u32) -> Dataset {
        let temp =
            TemperatureSeries::new((0..HOURS_PER_YEAR).map(|h| (h % 30) as f64 - 5.0).collect())
                .unwrap();
        let consumers = (0..n)
            .map(|i| {
                ConsumerSeries::new(
                    ConsumerId(i),
                    (0..HOURS_PER_YEAR)
                        .map(|h| 0.5 + (h % 24) as f64 * 0.02)
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        Dataset::new(consumers, temp).unwrap()
    }

    fn dfs() -> SimDfs {
        SimDfs::new(DfsConfig {
            block_bytes: 256 * 1024,
            replication: 3,
            nodes: 8,
        })
    }

    #[test]
    fn format1_lines_count_matches_readings() {
        let ds = tiny(2);
        let mut d = dfs();
        let t = TextTable::build("f1", &ds, DataFormat::ReadingPerLine, &mut d).unwrap();
        let total_lines: usize = t.splits.iter().map(|s| s.lines.len()).sum();
        assert_eq!(total_lines, 2 * HOURS_PER_YEAR);
        assert!(
            t.split_count() > 1,
            "2 consumers of readings exceed one 256 KiB block"
        );
        for s in &t.splits {
            assert!(!s.hosts.is_empty());
        }
    }

    #[test]
    fn format2_one_line_per_consumer() {
        let ds = tiny(3);
        let mut d = dfs();
        let t = TextTable::build("f2", &ds, DataFormat::ConsumerPerLine, &mut d).unwrap();
        let total_lines: usize = t.splits.iter().map(|s| s.lines.len()).sum();
        assert_eq!(total_lines, 3);
    }

    #[test]
    fn format3_one_split_per_file() {
        let ds = tiny(4);
        let mut d = dfs();
        let t = TextTable::build("f3", &ds, DataFormat::ManyFiles { files: 2 }, &mut d).unwrap();
        assert_eq!(t.split_count(), 2);
        // Households never split across files: each split's consumer set
        // is disjoint.
        let consumers_of = |s: &TextSplit| -> std::collections::HashSet<String> {
            s.lines
                .iter()
                .map(|l| l.split(',').next().unwrap().to_string())
                .collect()
        };
        let a = consumers_of(&t.splits[0]);
        let b = consumers_of(&t.splits[1]);
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn split_bytes_sum_to_total() {
        let ds = tiny(2);
        let mut d = dfs();
        for format in [
            DataFormat::ReadingPerLine,
            DataFormat::ConsumerPerLine,
            DataFormat::ManyFiles { files: 3 },
        ] {
            let t = TextTable::build(format.label(), &ds, format, &mut d).unwrap();
            let sum: u64 = t.splits.iter().map(|s| s.bytes).sum();
            assert_eq!(sum, t.total_bytes, "{format:?}");
        }
    }

    #[test]
    fn empty_dataset_rejected() {
        let temp = TemperatureSeries::new(vec![0.0; HOURS_PER_YEAR]).unwrap();
        let empty = Dataset::new(vec![], temp).unwrap();
        let mut d = dfs();
        assert!(TextTable::build("e", &empty, DataFormat::ReadingPerLine, &mut d).is_err());
    }
}
