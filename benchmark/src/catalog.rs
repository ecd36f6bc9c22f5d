//! The benchmark's fixed vocabulary: workloads with their sizes, and the
//! name and unit of every metric. `BENCHMARK.json` lists the same names;
//! a unit test keeps the two in step.

/// Threads every timed parallel call is given: one. The run is pinned to
/// one CPU ([`crate::machine::Pinned`]), because where the kernel puts a
/// second thread on this machine's two vCPUs changes from minute to
/// minute and a two-thread call then takes anything between 1× and 1.6×
/// its best time, which says nothing about the program. The pool and
/// two-thread scaling are measured by the per-layer probes, with the pin
/// released ([`POOL_THREADS`]).
pub const THREADS: usize = 1;

/// Threads of the per-layer probes that measure the pool itself.
pub const POOL_THREADS: usize = 2;

/// How many consumers each phase group works on in one workload, and the
/// knobs that scale with them.
///
/// Every workload runs all four groups, because the result line must
/// carry every end-to-end metric; the two workloads are two regimes of
/// working-set size relative to the program's own caches. Operations
/// are kept between ~25 ms and ~300 ms: long enough that a timer read
/// and a pool wake-up do not matter, short enough that a run holds
/// dozens of each and some of them fall into quiet stretches of the
/// machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Consumers in the packed `.smc` the three cold tasks read.
    pub batch_n: usize,
    /// Consumers loaded into each of the four platform twins (traced
    /// runs only).
    pub twins_n: usize,
    /// Rows of the in-memory similarity matrix.
    pub sim_n: usize,
    /// Single-row `top_k_query` calls per round.
    pub sim_queries: usize,
    /// Rows of the raw and the packed out-of-core files.
    pub oooc_n: usize,
    /// Band (and row-group) height of the out-of-core run.
    pub oooc_band: usize,
    /// Decode-cache budget of the packed tier, bytes.
    pub oooc_cache_bytes: usize,
    /// Consumer-years replayed through the ingest pipeline and served.
    pub online_n: usize,
    /// Queries one serve round issues.
    pub serve_queries: usize,
    /// `ServeConfig::cache_capacity`, against `5 × online_n` distinct
    /// queries.
    pub serve_cache: usize,
    /// Consumer-years the per-layer probes of the traced run work on.
    pub layer_probe_n: usize,
}

const ROW_BYTES: usize = 8760 * 8;

impl Sizes {
    /// Everything fits the program's own caches: the decode cache holds
    /// the whole packed file (no evictions), the result cache holds
    /// every distinct query (a repeated query always hits), and the
    /// matrices are a few row-bands. Fixed costs — open, plan, queue
    /// hand-off — weigh most here.
    pub const RESIDENT: Sizes = Sizes {
        batch_n: 96,
        twins_n: 6,
        sim_n: 256,
        sim_queries: 32,
        oooc_n: 128,
        oooc_band: 16,
        oooc_cache_bytes: (128 + 16) * ROW_BYTES,
        online_n: 48,
        serve_queries: 2_000,
        serve_cache: 256,
        layer_probe_n: 128,
    };

    /// Working sets larger than the program's own caches: the decode
    /// cache holds 5 of the packed file's 8 row groups (evictions
    /// forced — the ratio of the 128 MiB default against a file too
    /// large to time here), the result cache two thirds of the distinct
    /// queries (it fills and drops inserts), and the matrices are tens
    /// of megabytes.
    pub const SPILLING: Sizes = Sizes {
        batch_n: 192,
        twins_n: 12,
        sim_n: 384,
        sim_queries: 32,
        oooc_n: 192,
        oooc_band: 24,
        oooc_cache_bytes: 5 * 24 * ROW_BYTES + ROW_BYTES,
        online_n: 96,
        serve_queries: 3_000,
        serve_cache: 320,
        layer_probe_n: 128,
    };

    /// Sizes of `workload`, or `None` for an unknown name.
    pub fn of(workload: &str) -> Option<Sizes> {
        match workload {
            "resident" => Some(Sizes::RESIDENT),
            "spilling" => Some(Sizes::SPILLING),
            _ => None,
        }
    }

    /// Tiny sizes for the crate's own tests.
    pub const TEST: Sizes = Sizes {
        batch_n: 6,
        twins_n: 3,
        sim_n: 24,
        sim_queries: 8,
        oooc_n: 32,
        oooc_band: 4,
        oooc_cache_bytes: 5 * 4 * ROW_BYTES + ROW_BYTES,
        online_n: 5,
        serve_queries: 200,
        serve_cache: 16,
        layer_probe_n: 16,
    };
}

/// The two workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 2] = ["resident", "spilling"];

/// `(name, unit)` of every end-to-end metric; printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("histogram_cold_s", "s"),
    ("three_line_cold_s", "s"),
    ("par_cold_s", "s"),
    ("sim_allpairs_s", "s"),
    ("sim_query_ms", "ms"),
    ("oooc_raw_s", "s"),
    ("oooc_packed_s", "s"),
    ("oooc_peak_rss_mib", "MiB"),
    ("ingest_readings_per_s", "1/s"),
    ("seal_smc_s", "s"),
    ("sealed_bytes_per_reading", "B"),
    ("serve_qps", "1/s"),
    ("serve_topk_p50_ms", "ms"),
];

/// `(name, unit)` of every per-layer metric; printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("machine.memcpy_gb_per_s", "GB/s"),
    ("machine.read_gb_per_s", "GB/s"),
    ("machine.dot_scalar_gflops", "GFLOP/s"),
    ("stats.dot_gflops", "GFLOP/s"),
    ("stats.tile_gflops", "GFLOP/s"),
    ("stats.tile_pairs", "count"),
    ("stats.oooc_slice_gflops", "GFLOP/s"),
    ("stats.query_gb_per_s", "GB/s"),
    ("stats.merge_partials_ms", "ms"),
    ("stats.normalize_mb_per_s", "MB/s"),
    ("core.histogram_us_per_consumer", "us"),
    ("core.three_line_us_per_consumer", "us"),
    ("core.par_us_per_consumer", "us"),
    ("core.generate_consumers_per_s", "1/s"),
    ("format.open_ms", "ms"),
    ("format.verify_mb_per_s", "MB/s"),
    ("format.decode_packed_mb_per_s", "MB/s"),
    ("format.read_raw_mb_per_s", "MB/s"),
    ("format.group_load_ms", "ms"),
    ("format.cache_hit_ratio", "ratio"),
    ("format.cache_evictions", "count"),
    ("format.blocks_decoded", "count"),
    ("format.write_packed_mb_per_s", "MB/s"),
    ("format.write_raw_mb_per_s", "MB/s"),
    ("format.packed_bytes_per_reading", "B"),
    ("storage.read_consumer_us", "us"),
    ("engines.pool_broadcast_us", "us"),
    ("engines.scale_2t", "ratio"),
    ("engines.extract_s", "s"),
    ("engines.band_load_raw_mb_per_s", "MB/s"),
    ("engines.band_load_packed_mb_per_s", "MB/s"),
    ("engines.oooc_bands_loaded", "count"),
    ("engines.oooc_bytes_streamed", "B"),
    ("engines.twins_three_line_s", "s"),
    ("engines.relational_load_s", "s"),
    ("engines.relational_three_line_s", "s"),
    ("engines.columnar_load_s", "s"),
    ("engines.columnar_three_line_s", "s"),
    ("hive.three_line_s", "s"),
    ("spark.three_line_s", "s"),
    ("ingest.replay_events_s", "s"),
    ("ingest.pipeline_1shard_readings_per_s", "1/s"),
    ("ingest.publish_us", "us"),
    ("ingest.pin_ns", "ns"),
    ("ingest.backpressure_stalls", "count"),
    ("ingest.watermark_lag_hours", "h"),
    ("serve.execute_topk_ms", "ms"),
    ("serve.execute_three_line_ms", "ms"),
    ("serve.execute_par_ms", "ms"),
    ("serve.execute_histogram_us", "us"),
    ("serve.execute_anomaly_us", "us"),
    ("serve.cache_probe_ns", "ns"),
    ("serve.queue_overhead_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.p99_ms", "ms"),
    ("serve.p999_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.deadline_misses", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("share.stats_pct", "%"),
    ("share.core_pct", "%"),
    ("share.format_pct", "%"),
    ("share.engines_pct", "%"),
    ("share.hive_pct", "%"),
    ("share.spark_pct", "%"),
    ("share.ingest_pct", "%"),
    ("share.serve_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_sizes() {
        for w in WORKLOADS {
            assert!(Sizes::of(w).is_some(), "{w}");
        }
        assert!(Sizes::of("nope").is_none());
    }

    #[test]
    fn the_caches_hold_everything_when_resident_and_two_thirds_when_spilling() {
        for s in [Sizes::SPILLING, Sizes::TEST] {
            let group = s.oooc_band * ROW_BYTES;
            assert_eq!(s.oooc_cache_bytes / group, 5);
            assert!(
                s.oooc_n / s.oooc_band >= 6,
                "more groups than the cache holds"
            );
            assert!(s.serve_cache < 5 * s.online_n);
        }
        let s = Sizes::RESIDENT;
        assert!(s.oooc_cache_bytes >= s.oooc_n * ROW_BYTES);
        assert!(s.serve_cache >= 5 * s.online_n);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }
}
