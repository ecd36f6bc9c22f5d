//! Bounded decode cache for packed `SMC1` files: the decode-on-demand
//! tier of the out-of-core kernels.
//!
//! A raw-contiguous file serves bands zero-copy from its mapping, but
//! a packed file must decode blocks to hand out rows. Decoding the
//! same band over and over (the band scheduler revisits each band
//! `O(B)` times) would dominate the run, and decoding everything up
//! front is exactly the `O(n · hours)` residency the out-of-core tier
//! exists to avoid. The [`RowGroupCache`] is the middle ground:
//!
//! * rows are cached in **groups** of `group_rows` consecutive
//!   consumers, decoded with full per-block checksum verification via
//!   [`SmcFile::read_rows_into`];
//! * residency is bounded by a byte budget translated to a group
//!   count at construction; going over evicts the **least recently
//!   used** group;
//! * a miss that extends a sequential scan (miss on `g` right after a
//!   miss on `g−1`) **prefetches** group `g+1`, so the band streaming
//!   pattern pays one decode ahead instead of stalling per band;
//! * a span that covers only part of a group it misses decodes just its
//!   own rows, checksummed, straight into the caller's buffer, and the
//!   group is **not admitted**: it evicts nothing;
//! * every lookup updates the process-global `format.cache_*`
//!   counters ([`crate::metrics`]), making the cache tunable from
//!   bench exports.
//!
//! The partial-span rule is what keeps the cache from thrashing under
//! the out-of-core all-pairs walk (`smda_stats::similarity_walk`). Its
//! sketch pass reads every group once, whole and in order, so the last
//! groups that fit stay resident. Its bands are then cut from a chain
//! of similar rows, not from file order: one band's rows fall in most
//! groups of the file, a few rows each. Were each miss to decode and
//! admit its whole group, one band would cycle every group through a
//! cache that holds fewer than all of them, decoding a group for a few
//! of its rows and evicting a group the next span needs. Instead the
//! resident groups serve their rows as hits, and a missed row costs the
//! decode of that row alone. Whole-group spans — the sketch pass, the
//! bands of the streamed query form (`smda_stats::Streamed::top_k_queries`,
//! every band once in file order), [`RowGroupCache::group`] — decode,
//! admit and prefetch as before.
//!
//! Groups are handed out as `Arc<Vec<f64>>`, so an evicted group a
//! reader still holds stays valid — eviction only drops the cache's
//! reference. Decodes happen outside the table lock; two threads
//! racing on one group may both decode it (same bits), last insert
//! wins.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use smda_types::{Error, Result};

use crate::metrics;
use crate::reader::SmcFile;

struct CachedGroup {
    data: Arc<Vec<f64>>,
    last_used: u64,
}

struct Inner {
    groups: HashMap<usize, CachedGroup>,
    tick: u64,
    last_miss: Option<usize>,
}

/// A bounded, LRU, checksum-verifying row-group cache over one open
/// [`SmcFile`]. See the module docs for the policy.
pub struct RowGroupCache<'a> {
    file: &'a SmcFile,
    group_rows: usize,
    capacity_groups: usize,
    inner: Mutex<Inner>,
}

impl<'a> RowGroupCache<'a> {
    /// A cache over `file` holding groups of `group_rows` consecutive
    /// consumers within (roughly) `max_resident_bytes` of decoded
    /// rows; the budget is floored at one group so progress is always
    /// possible.
    pub fn new(file: &'a SmcFile, group_rows: usize, max_resident_bytes: usize) -> Self {
        let group_rows = group_rows.max(1);
        let group_bytes = (group_rows * file.hours() * 8).max(1);
        RowGroupCache {
            file,
            group_rows,
            capacity_groups: (max_resident_bytes / group_bytes).max(1),
            inner: Mutex::new(Inner {
                groups: HashMap::new(),
                tick: 0,
                last_miss: None,
            }),
        }
    }

    /// Number of groups the file splits into.
    fn group_count(&self) -> usize {
        self.file.n().div_ceil(self.group_rows)
    }

    /// Groups currently resident.
    fn resident_groups(&self) -> usize {
        self.inner.lock().expect("cache lock").groups.len()
    }

    fn group_bounds(&self, g: usize) -> Range<usize> {
        let start = g * self.group_rows;
        start..(start + self.group_rows).min(self.file.n())
    }

    fn decode_group(&self, g: usize) -> Result<Vec<f64>> {
        let mut rows = Vec::new();
        let bounds = self.group_bounds(g);
        self.file.read_rows_into(bounds.clone(), &mut rows)?;
        // The decoded copy is what gets cached; the mapped source pages
        // are done — drop them from the resident set so RSS tracks the
        // cache budget, not the file (they re-fault losslessly from the
        // page cache if the group is ever decoded again).
        self.file.advise_rows_dontneed(bounds);
        Ok(rows)
    }

    fn evict_over_capacity(&self, inner: &mut Inner) {
        let mut evicted = 0u64;
        while inner.groups.len() > self.capacity_groups {
            let lru = inner
                .groups
                .iter()
                .min_by_key(|(_, c)| c.last_used)
                .map(|(g, _)| *g)
                .expect("non-empty over-capacity cache");
            inner.groups.remove(&lru);
            evicted += 1;
        }
        if evicted > 0 {
            metrics::record_cache_evictions(evicted);
        }
    }

    /// Group `g`'s rows if it is resident, marked used; a hit.
    fn cached(&self, g: usize) -> Option<Arc<Vec<f64>>> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let c = inner.groups.get_mut(&g)?;
        c.last_used = tick;
        metrics::record_cache_hit();
        Some(c.data.clone())
    }

    /// The decoded rows of group `g` (row-major,
    /// `group_bounds(g).len() × hours`), from cache or a verified
    /// decode.
    pub fn group(&self, g: usize) -> Result<Arc<Vec<f64>>> {
        if g >= self.group_count() {
            return Err(Error::Invalid(format!(
                "row group {g} out of range (file has {})",
                self.group_count()
            )));
        }
        if let Some(data) = self.cached(g) {
            return Ok(data);
        }
        metrics::record_cache_miss();
        let data = Arc::new(self.decode_group(g)?);
        let prefetch = {
            let mut inner = self.inner.lock().expect("cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            let sequential = inner.last_miss.is_some_and(|m| m + 1 == g);
            inner.last_miss = Some(g);
            inner.groups.insert(
                g,
                CachedGroup {
                    data: data.clone(),
                    last_used: tick,
                },
            );
            self.evict_over_capacity(&mut inner);
            sequential && g + 1 < self.group_count() && !inner.groups.contains_key(&(g + 1))
        };
        if prefetch {
            // Best effort: a bad next block will surface on its own
            // explicit read.
            if let Ok(next) = self.decode_group(g + 1) {
                let mut inner = self.inner.lock().expect("cache lock");
                inner.tick += 1;
                let tick = inner.tick;
                inner.groups.entry(g + 1).or_insert(CachedGroup {
                    data: Arc::new(next),
                    last_used: tick,
                });
                self.evict_over_capacity(&mut inner);
            }
        }
        Ok(data)
    }

    /// Fill `out` (cleared first) with rows `rows.start..rows.end`,
    /// row-major, assembling from however many groups the span touches:
    /// each whole group through [`RowGroupCache::group`], each part of a
    /// group from the group if it is resident, else decoded alone and
    /// not admitted (module docs). This is the band-lending surface the
    /// out-of-core kernels consume.
    pub fn load_rows(&self, rows: Range<usize>, out: &mut Vec<f64>) -> Result<()> {
        let hours = self.file.hours();
        if rows.end > self.file.n() || rows.start > rows.end {
            return Err(Error::Invalid(format!(
                "row range {rows:?} out of bounds (file has {})",
                self.file.n()
            )));
        }
        out.clear();
        out.reserve(rows.len() * hours);
        let mut r = rows.start;
        while r < rows.end {
            let g = r / self.group_rows;
            let bounds = self.group_bounds(g);
            let span = r..rows.end.min(bounds.end);
            let part = span.start - bounds.start..span.end - bounds.start;
            if span == bounds {
                out.extend_from_slice(&self.group(g)?);
            } else if let Some(data) = self.cached(g) {
                out.extend_from_slice(&data[part.start * hours..part.end * hours]);
            } else {
                metrics::record_cache_miss();
                self.file.append_rows(span.clone(), out)?;
                self.file.advise_rows_dontneed(span.clone());
            }
            r = span.end;
        }
        Ok(())
    }
}

impl std::fmt::Debug for RowGroupCache<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowGroupCache")
            .field("group_rows", &self.group_rows)
            .field("capacity_groups", &self.capacity_groups)
            .field("resident_groups", &self.resident_groups())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{write_dataset, Encoding};
    use smda_types::{ConsumerId, ConsumerSeries, Dataset, TemperatureSeries, HOURS_PER_YEAR};
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("smda-cache-{tag}-{}.smc", std::process::id()))
    }

    fn dataset(n: usize) -> Dataset {
        let consumers = (0..n)
            .map(|i| {
                let readings: Vec<f64> = (0..HOURS_PER_YEAR)
                    .map(|h| 0.25 * ((h * (i + 2)) % 53) as f64)
                    .collect();
                ConsumerSeries::new(ConsumerId(i as u32), readings).unwrap()
            })
            .collect();
        let temp = TemperatureSeries::new(vec![1.0; HOURS_PER_YEAR]).unwrap();
        Dataset::new(consumers, temp).unwrap()
    }

    #[test]
    fn cached_rows_are_bit_identical_under_eviction_pressure() {
        let ds = dataset(9);
        for encoding in [Encoding::Raw, Encoding::Packed] {
            let path = tmp(&format!("pressure-{encoding:?}"));
            write_dataset(&path, &ds, encoding).unwrap();
            let file = SmcFile::open(&path).unwrap();
            // Budget below one group: capacity floors at a single
            // resident group, so every group cycles through eviction.
            let cache = file.group_cache(4, 1);
            assert_eq!(cache.capacity_groups, 1);
            let mut band = Vec::new();
            // A band wider than the whole budget still assembles.
            cache.load_rows(1..8, &mut band).unwrap();
            assert_eq!(band.len(), 7 * HOURS_PER_YEAR);
            for (i, c) in ds.consumers().iter().enumerate().skip(1).take(7) {
                let row = &band[(i - 1) * HOURS_PER_YEAR..i * HOURS_PER_YEAR];
                assert!(row
                    .iter()
                    .zip(c.readings())
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
            assert!(cache.resident_groups() <= cache.capacity_groups);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn lru_keeps_the_recently_used_group() {
        let ds = dataset(8);
        let path = tmp("lru");
        write_dataset(&path, &ds, Encoding::Packed).unwrap();
        let file = SmcFile::open(&path).unwrap();
        // Two groups of 2 rows fit.
        let cache = file.group_cache(2, 2 * 2 * HOURS_PER_YEAR * 8);
        assert_eq!(cache.capacity_groups, 2);
        let g0 = cache.group(0).unwrap();
        cache.group(2).unwrap();
        // Touch 0 again, then bring in a third group: 2 must go.
        let g0_again = cache.group(0).unwrap();
        assert!(
            Arc::ptr_eq(&g0, &g0_again),
            "hit must return the resident group"
        );
        cache.group(3).unwrap();
        assert_eq!(cache.resident_groups(), 2);
        let g0_third = cache.group(0).unwrap();
        assert!(
            Arc::ptr_eq(&g0, &g0_third),
            "LRU must not evict the hot group"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sequential_misses_prefetch_the_next_group() {
        let ds = dataset(10);
        let path = tmp("prefetch");
        write_dataset(&path, &ds, Encoding::Packed).unwrap();
        let file = SmcFile::open(&path).unwrap();
        let cache = file.group_cache(2, 64 * 2 * HOURS_PER_YEAR * 8);
        let before = crate::metrics::snapshot();
        cache.group(0).unwrap(); // cold miss, no pattern yet
        cache.group(1).unwrap(); // sequential miss: prefetches 2
        cache.group(2).unwrap(); // served by the prefetch
        let d = crate::metrics::snapshot().since(&before);
        assert!(d.cache_hits >= 1, "prefetched group must hit: {d:?}");
        assert_eq!(cache.resident_groups(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_span_that_misses_part_of_a_group_decodes_its_rows_and_admits_nothing() {
        let ds = dataset(8);
        let path = tmp("partial");
        write_dataset(&path, &ds, Encoding::Packed).unwrap();
        let file = SmcFile::open(&path).unwrap();
        // Groups of 4 rows, one resident at a time.
        let cache = file.group_cache(4, 4 * HOURS_PER_YEAR * 8);
        let (mut via_cache, mut direct) = (Vec::new(), Vec::new());
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        // Cold: two partial spans of group 1 and one straddling both
        // groups decode their own rows; nothing is admitted.
        for range in [5..6usize, 6..8, 2..7] {
            cache.load_rows(range.clone(), &mut via_cache).unwrap();
            file.read_rows_into(range.clone(), &mut direct).unwrap();
            assert!(same(&via_cache, &direct), "{range:?}");
            assert_eq!(cache.resident_groups(), 0, "{range:?}");
        }
        // A whole group is admitted, and serves a part of itself after.
        cache.load_rows(4..8, &mut via_cache).unwrap();
        assert_eq!(cache.resident_groups(), 1);
        let group = cache.group(1).unwrap();
        cache.load_rows(5..7, &mut via_cache).unwrap();
        assert!(same(&via_cache, &group[HOURS_PER_YEAR..3 * HOURS_PER_YEAR]));
        // A partial miss of group 0 evicts nothing.
        cache.load_rows(1..3, &mut via_cache).unwrap();
        assert!(Arc::ptr_eq(&group, &cache.group(1).unwrap()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn range_assembly_matches_direct_decode() {
        let ds = dataset(7);
        let path = tmp("assemble");
        write_dataset(&path, &ds, Encoding::Packed).unwrap();
        let file = SmcFile::open(&path).unwrap();
        let cache = file.group_cache(3, usize::MAX);
        let (mut via_cache, mut direct) = (Vec::new(), Vec::new());
        for range in [0..7usize, 2..5, 6..7, 3..3] {
            cache.load_rows(range.clone(), &mut via_cache).unwrap();
            file.read_rows_into(range, &mut direct).unwrap();
            assert_eq!(via_cache.len(), direct.len());
            assert!(via_cache
                .iter()
                .zip(&direct)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        // Out-of-range spans are the caller's typed error, as on the
        // file itself — not a panic.
        #[allow(clippy::reversed_empty_ranges)]
        for range in [0..8usize, 5..4] {
            let cached = cache.load_rows(range.clone(), &mut via_cache);
            assert!(matches!(cached, Err(Error::Invalid(_))), "{range:?}");
            assert!(file.read_rows_into(range, &mut direct).is_err());
        }
        assert!(matches!(cache.group(3), Err(Error::Invalid(_))));
        std::fs::remove_file(&path).unwrap();
    }
}
