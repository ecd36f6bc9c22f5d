//! Process-global counters for the `SMC1` read paths.
//!
//! `smda-format` sits below the observability crate in the dependency
//! DAG, so instead of taking a metrics sink it exposes plain atomic
//! counters; engine layers snapshot them around a run and publish the
//! deltas under the `format.*` metric names. The counters answer the
//! out-of-core tuning questions: how often reads were served zero-copy
//! straight from the mapping, how many blocks had to be decoded (and
//! how many bytes were checksummed and produced doing so — divide by
//! the run's time for checksum and decode throughput). No read path
//! keeps a decode cache any more, so the three `cache_*` fields read 0.

use std::sync::atomic::{AtomicU64, Ordering};

static ZERO_COPY_HITS: AtomicU64 = AtomicU64::new(0);
static BLOCKS_DECODED: AtomicU64 = AtomicU64::new(0);
static BYTES_CHECKSUMMED: AtomicU64 = AtomicU64::new(0);
static BYTES_DECODED: AtomicU64 = AtomicU64::new(0);

/// One consistent reading of every format counter (monotonic totals
/// since process start).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FormatCounters {
    /// Reads served as zero-copy views straight from the mapping.
    pub zero_copy_hits: u64,
    /// Consumer blocks decoded (checksummed raw or packed decode).
    pub blocks_decoded: u64,
    /// Stored bytes run through the digest on the read side (every
    /// block checksum verified, plus `verify`'s whole-file pass).
    pub bytes_checksummed: u64,
    /// `f64` bytes produced by block decodes.
    pub bytes_decoded: u64,
    /// Decode-cache lookups answered from a resident group: 0, since no
    /// read path keeps a decode cache (kept for the benchmark, which
    /// reads it).
    pub cache_hits: u64,
    /// Decode-cache lookups that decoded: 0, as `cache_hits`.
    pub cache_misses: u64,
    /// Decode-cache evictions: 0, as `cache_hits`.
    pub cache_evictions: u64,
}

impl FormatCounters {
    /// Per-field difference `self - earlier` (saturating, so a stale
    /// snapshot can never underflow).
    pub fn since(&self, earlier: &FormatCounters) -> FormatCounters {
        FormatCounters {
            zero_copy_hits: self.zero_copy_hits.saturating_sub(earlier.zero_copy_hits),
            blocks_decoded: self.blocks_decoded.saturating_sub(earlier.blocks_decoded),
            bytes_checksummed: self
                .bytes_checksummed
                .saturating_sub(earlier.bytes_checksummed),
            bytes_decoded: self.bytes_decoded.saturating_sub(earlier.bytes_decoded),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            cache_evictions: self.cache_evictions.saturating_sub(earlier.cache_evictions),
        }
    }
}

/// Read every counter at once.
pub fn snapshot() -> FormatCounters {
    FormatCounters {
        zero_copy_hits: ZERO_COPY_HITS.load(Ordering::Relaxed),
        blocks_decoded: BLOCKS_DECODED.load(Ordering::Relaxed),
        bytes_checksummed: BYTES_CHECKSUMMED.load(Ordering::Relaxed),
        bytes_decoded: BYTES_DECODED.load(Ordering::Relaxed),
        ..FormatCounters::default()
    }
}

pub(crate) fn record_zero_copy_hit() {
    ZERO_COPY_HITS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_blocks_decoded(blocks: u64, bytes: u64) {
    BLOCKS_DECODED.fetch_add(blocks, Ordering::Relaxed);
    BYTES_DECODED.fetch_add(bytes, Ordering::Relaxed);
}

pub(crate) fn record_bytes_checksummed(n: u64) {
    BYTES_CHECKSUMMED.fetch_add(n, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_never_underflow_and_counters_are_monotonic() {
        let before = snapshot();
        record_zero_copy_hit();
        record_blocks_decoded(3, 24);
        record_bytes_checksummed(17);
        let after = snapshot();
        let d = after.since(&before);
        // Other tests may bump the globals concurrently: deltas are
        // lower-bounded by this test's own increments.
        assert!(d.zero_copy_hits >= 1);
        assert!(d.blocks_decoded >= 3);
        assert!(d.bytes_decoded >= 24);
        assert!(d.bytes_checksummed >= 17);
        assert_eq!(before.since(&after), FormatCounters::default());
    }
}
