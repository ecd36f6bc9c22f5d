//! Row groups of an `SMC1` file, decoded on request.
//!
//! The out-of-core tier used to stream packed files through a bounded
//! LRU cache of decoded row groups. It no longer does: a packed decode
//! runs at about memcpy speed, so a band's rows are decoded straight
//! into the band from one positioned read ([`SmcFile::read_rows_into`]),
//! and a walk keeps the *unit* rows its budget holds instead of raw
//! groups (`smda_stats::Streamed`; DESIGN.md §16). What is left is
//! [`RowGroupCache::group`]: the rows of one group of `group_rows`
//! consecutive consumers, checksum-verified, decoded afresh on every
//! call and kept by nobody. The benchmark's per-layer probe times a
//! group load through it.

use smda_types::{Error, Result};

use crate::reader::SmcFile;

/// Groups of `group_rows` consecutive consumers of one open
/// [`SmcFile`]. See the module docs.
#[derive(Debug)]
pub struct RowGroupCache<'a> {
    file: &'a SmcFile,
    group_rows: usize,
}

impl SmcFile {
    /// Groups of `group_rows` consecutive consumers (zero is read as
    /// one), each decoded when asked for ([`RowGroupCache::group`]);
    /// nothing is kept, whatever `_max_resident_bytes` says.
    pub fn group_cache(&self, group_rows: usize, _max_resident_bytes: usize) -> RowGroupCache<'_> {
        RowGroupCache {
            file: self,
            group_rows: group_rows.max(1),
        }
    }
}

impl RowGroupCache<'_> {
    /// The decoded rows of group `g` (row-major, the group's rows ×
    /// hours), every block checksummed; an [`Error::Invalid`] past the
    /// last group.
    pub fn group(&self, g: usize) -> Result<Vec<f64>> {
        let n = self.file.n();
        let groups = n.div_ceil(self.group_rows);
        if g >= groups {
            return Err(Error::Invalid(format!(
                "row group {g} out of range (file has {groups})"
            )));
        }
        let start = g * self.group_rows;
        let mut rows = Vec::new();
        self.file
            .read_rows_into(start..(start + self.group_rows).min(n), &mut rows)?;
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{write_dataset, Encoding};
    use smda_types::{ConsumerId, ConsumerSeries, Dataset, TemperatureSeries, HOURS_PER_YEAR};

    #[test]
    fn a_group_is_its_rows_decoded_and_a_group_past_the_last_is_an_error() {
        let consumers = (0..7)
            .map(|i| {
                let readings: Vec<f64> = (0..HOURS_PER_YEAR)
                    .map(|h| 0.25 * ((h * (i + 2)) % 53) as f64)
                    .collect();
                ConsumerSeries::new(ConsumerId(i as u32), readings).unwrap()
            })
            .collect();
        let temp = TemperatureSeries::new(vec![1.0; HOURS_PER_YEAR]).unwrap();
        let ds = Dataset::new(consumers, temp).unwrap();
        let path = std::env::temp_dir().join(format!("smda-groups-{}.smc", std::process::id()));
        write_dataset(&path, &ds, Encoding::Packed).unwrap();
        let file = SmcFile::open(&path).unwrap();
        let groups = file.group_cache(3, 0);
        let mut direct = Vec::new();
        // Groups of 3 rows: the last holds one.
        for (g, rows) in [(0, 0..3usize), (1, 3..6), (2, 6..7)] {
            let group = groups.group(g).unwrap();
            file.read_rows_into(rows.clone(), &mut direct).unwrap();
            assert_eq!(group.len(), rows.len() * HOURS_PER_YEAR, "group {g}");
            assert!(group
                .iter()
                .zip(&direct)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        assert!(matches!(groups.group(3), Err(Error::Invalid(_))));
        std::fs::remove_file(&path).unwrap();
    }
}
