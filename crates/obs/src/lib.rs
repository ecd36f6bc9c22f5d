//! Observability layer for benchmark runs.
//!
//! Three pieces, designed to thread through every platform with near-zero
//! cost when disabled:
//!
//! - [`MetricsSink`] — a cheap cloneable handle that engines write into:
//!   hierarchical phase durations (via [`PhaseTimer`] scopes or explicit
//!   [`MetricsSink::add_phase`] calls) and named monotonic counters
//!   ([`MetricsSink::incr`]). A [`MetricsSink::disabled`] sink makes every
//!   operation a no-op, so instrumented code paths cost one branch when
//!   nobody is listening.
//! - [`RunManifest`] — what was run: task, platform, thread count,
//!   dataset size, cold/warm.
//! - [`MetricsReport`] — the snapshot of one run (manifest + phase tree +
//!   counters). Serializes to JSON and flattens to the continuous-bench
//!   entry format (`{"name", "value", "range", "unit"}`) used by
//!   `BENCH_*.json` exports; see [`report::BenchExport`].
//!
//! # Phase hierarchy
//!
//! Phases form a tree keyed by `/`-joined paths. The benchmark driver
//! records the three top-level phases `load`, `warm` and `run`; engines
//! nest detail beneath `run` (for example `run/t1`..`run/t3` for the
//! three-line algorithm phases, or `run/fan_out` for the parallel
//! executor). Repeated scopes with the same path accumulate.
//!
//! ```
//! use smda_obs::{counters, MetricsSink, RunManifest};
//!
//! let sink = MetricsSink::recording();
//! {
//!     let _load = sink.scope("load");
//!     // ... do the load ...
//!     sink.incr(counters::ROWS_SCANNED, 8760);
//! }
//! {
//!     let _run = sink.scope("run");
//!     let _part = sink.scope("partition");
//!     // records under "run/partition"
//! }
//! let report = sink.finish(RunManifest::new("three_line", "matlab"));
//! assert!(report.phase_ns(&["run", "partition"]).is_some());
//! ```

mod sink;

pub mod report;

pub use report::{BenchEntry, BenchExport, MetricsReport, PhaseNode, RunManifest};
pub use sink::{MetricsSink, PhaseTimer};

/// Canonical counter names. Engines should prefer these constants over ad
/// hoc strings so exports stay mergeable across platforms.
pub mod counters {
    /// Individual readings visited while executing a task.
    pub const ROWS_SCANNED: &str = "rows_scanned";
    /// Page-granular reads that missed the buffer pool and hit storage.
    pub const PAGES_FAULTED: &str = "pages_faulted";
    /// Page-granular reads served from the buffer pool.
    pub const CACHE_HITS: &str = "cache_hits";
    /// OS threads spawned to execute the run.
    pub const WORKERS_SPAWNED: &str = "workers_spawned";
    /// Unordered series pairs scored by the similarity kernel (the
    /// symmetric kernel at most `n(n-1)/2` — fewer over resident rows,
    /// whose sketch bounds skip register blocks — the naive scan
    /// `n(n-1)`).
    pub const PAIRS_SCORED: &str = "pairs_scored";
    /// Effective similarity-kernel throughput in MFLOP/s (2 flops per
    /// element per pair scored over the tile phase's wall time): a rate
    /// over the pairs actually scored.
    pub const SIMILARITY_MFLOPS: &str = "similarity.effective_mflops";
    /// 1 when the run's similarity scoring dispatched *at least* the
    /// lane-preserving AVX2 kernels (so also 1 on an AVX-512 host), 0
    /// when the scalar reference ran.
    pub const SIMD_AVX2_ACTIVE: &str = "simd.avx2_active";
    /// 1 when the run's pair sweep ran the AVX-512 tier's 8 × 4 `zmm`
    /// register blocks (`simd.avx2_active` is 1 beside it: every other
    /// kernel of that tier is the AVX2 one), absent otherwise.
    pub const SIMD_AVX512_ACTIVE: &str = "simd.avx512_active";
    /// Logical tasks placed by a cluster scheduler.
    pub const TASKS_SCHEDULED: &str = "tasks_scheduled";
    /// Bytes moved across the simulated cluster network.
    pub const BYTES_SHUFFLED: &str = "bytes_shuffled";
    /// Task attempts re-run after a failure (injected, panic, or crash).
    pub const TASKS_RETRIED: &str = "tasks_retried";
    /// Speculative backup copies launched for straggler tasks.
    pub const TASKS_SPECULATIVE: &str = "tasks_speculative";
    /// Malformed input rows dropped under a skip-and-count policy.
    pub const ROWS_SKIPPED_DIRTY: &str = "rows_skipped_dirty";
    /// Node crashes injected by a fault plan.
    pub const FAULTS_INJECTED_NODE_CRASH: &str = "faults.injected.node_crash";
    /// Task failures injected by a fault plan.
    pub const FAULTS_INJECTED_TASK_FAILURE: &str = "faults.injected.task_failure";
    /// Slow-node (straggler) factors injected by a fault plan.
    pub const FAULTS_INJECTED_SLOW_NODE: &str = "faults.injected.slow_node";
    /// Block-replica losses injected by a fault plan.
    pub const FAULTS_INJECTED_REPLICA_LOSS: &str = "faults.injected.replica_loss";
    /// Tasks rescheduled to completion after their node crashed.
    pub const FAULTS_RECOVERED_NODE_CRASH: &str = "faults.recovered.node_crash";
    /// Tasks that succeeded on retry after an injected failure.
    pub const FAULTS_RECOVERED_TASK_FAILURE: &str = "faults.recovered.task_failure";
    /// Tasks that succeeded on retry after panicking in the worker pool.
    pub const FAULTS_RECOVERED_TASK_PANIC: &str = "faults.recovered.task_panic";
    /// Block replicas restored by re-replication after a loss.
    pub const FAULTS_RECOVERED_REPLICA_LOSS: &str = "faults.recovered.replica_loss";
    /// Readings accepted by the ingest router and handed to a shard.
    pub const INGEST_READINGS_IN: &str = "ingest.readings_in";
    /// Readings that arrived behind their shard's event-time watermark
    /// and were routed to the dead-letter sink.
    pub const INGEST_READINGS_LATE: &str = "ingest.readings_late";
    /// Readings whose (consumer, hour) slot was already filled.
    pub const INGEST_READINGS_DUPLICATE: &str = "ingest.readings_duplicate";
    /// Hours still empty when a consumer's year was sealed (zero-filled
    /// under a skip-and-count policy).
    pub const INGEST_READINGS_MISSING: &str = "ingest.readings_missing";
    /// Malformed readings dropped by the ingest router.
    pub const INGEST_READINGS_DIRTY: &str = "ingest.readings_dirty";
    /// Chunks of readings the ingest router handed to shard queues;
    /// depends on the stream, shard count and queue capacity only.
    pub const INGEST_CHUNKS_ROUTED: &str = "ingest.chunks_routed";
    /// Ingest hand-offs that blocked on a full shard queue (at most one
    /// per hand-off).
    pub const INGEST_BACKPRESSURE_STALLS: &str = "ingest.backpressure_stalls";
    /// Worst observed event-time gap (hours) between the router's
    /// progress and a shard's watermark.
    pub const INGEST_WATERMARK_LAG_HOURS: &str = "ingest.watermark_lag_hours";
    /// Consumer years sealed into the snapshot.
    pub const INGEST_CONSUMERS_SEALED: &str = "ingest.consumers_sealed";
    /// Anomaly alerts raised by the per-consumer detectors.
    pub const INGEST_ALERTS: &str = "ingest.alerts";
    /// WAL records re-applied while recovering a crashed shard.
    pub const INGEST_WAL_RECORDS_REPLAYED: &str = "ingest.wal_records_replayed";
    /// Cumulative heap bytes allocated (global-allocator total delta)
    /// over a phase or run. Only populated by binaries that install the
    /// counting allocator (the bench runner); zero elsewhere.
    pub const HEAP_BYTES_ALLOCATED: &str = "heap.bytes_allocated";
    /// High-water heap growth (peak live bytes above the phase's
    /// starting point). Same allocator caveat as
    /// [`HEAP_BYTES_ALLOCATED`].
    pub const HEAP_PEAK_BYTES: &str = "heap.peak_bytes";
    /// Model fits served by an already-warm `FitScratch` arena (every
    /// fit on a worker's arena after its first).
    pub const FITS_SCRATCH_REUSES: &str = "fits.scratch_reuses";
    /// Temperature plans built for 3-line T1 (`BinPlan` rebuilds): one per
    /// worker arena per temperature year, however many consumers are
    /// fitted — a count that grows with the consumers means the grouping
    /// is being redone for each.
    pub const FITS_PLAN_BUILDS: &str = "fits.plan_builds";
    /// Queries admitted by the serving layer: counted in flight until
    /// their ticket is waited or dropped.
    pub const SERVE_ADMITTED: &str = "serve.admitted";
    /// Queries rejected at admission because `queue_depth` were already
    /// in flight.
    pub const SERVE_REJECTED_OVERLOAD: &str = "serve.rejected.overload";
    /// Queries answered from the per-epoch result cache.
    pub const SERVE_CACHE_HITS: &str = "serve.cache_hits";
    /// Queries that missed their deadline (expired on arrival or
    /// waiting for a permit, or finished past the deadline).
    pub const SERVE_DEADLINE_MISSES: &str = "serve.deadline_misses";
    /// Per-epoch cache generations discarded on a snapshot swap.
    pub const SERVE_CACHE_INVALIDATIONS: &str = "serve.cache_invalidations";
    /// Cumulative serving latency in nanoseconds, per query type
    /// (suffixed `serve.latency_ns.<kind>`); divide by the matching
    /// `serve.answered.<kind>` counter for the mean.
    pub const SERVE_LATENCY_NS: &str = "serve.latency_ns";
    /// Queries answered successfully, per query type (suffixed
    /// `serve.answered.<kind>`).
    pub const SERVE_ANSWERED: &str = "serve.answered";
    /// Cache misses executed against the pinned snapshot, per query
    /// type (suffixed `serve.executed.<kind>`), answered or typed-failed.
    pub const SERVE_EXECUTED: &str = "serve.executed";
    /// Cumulative execution time of those misses in nanoseconds
    /// (suffixed `serve.execute_ns.<kind>`); divide by the matching
    /// `serve.executed.<kind>` counter for the mean.
    pub const SERVE_EXECUTE_NS: &str = "serve.execute_ns";
    /// Cache misses that found every `workers` permit taken and blocked.
    pub const SERVE_PERMIT_WAITS: &str = "serve.permit_waits";
    /// Cumulative time those misses blocked, in nanoseconds — until a
    /// permit or their deadline, whichever came first.
    pub const SERVE_PERMIT_WAIT_NS: &str = "serve.permit_wait_ns";
    /// Frames written to a transport socket (requests + heartbeats).
    pub const TRANSPORT_FRAMES_SENT: &str = "transport.frames_sent";
    /// Frames read back from a transport socket.
    pub const TRANSPORT_FRAMES_RECEIVED: &str = "transport.frames_received";
    /// Payload bytes written to transport sockets.
    pub const TRANSPORT_BYTES_SENT: &str = "transport.bytes_sent";
    /// Payload bytes read from transport sockets.
    pub const TRANSPORT_BYTES_RECEIVED: &str = "transport.bytes_received";
    /// RPC attempts re-sent after a connect/read failure (bounded
    /// exponential backoff).
    pub const TRANSPORT_RETRIES: &str = "transport.retries";
    /// Connect or read attempts that hit their deadline.
    pub const TRANSPORT_TIMEOUTS: &str = "transport.timeouts";
    /// Workers declared dead after missing their heartbeat budget.
    pub const TRANSPORT_HEARTBEAT_LOSSES: &str = "transport.heartbeat_losses";
    /// Shuffle partitions spilled to the write-ahead log by the real
    /// scheduler (exactly one record per completed map task).
    pub const REAL_PARTITIONS_SPILLED: &str = "real.partitions_spilled";
    /// Shuffle partitions replayed from the write-ahead log into the
    /// reduce phase.
    pub const REAL_PARTITIONS_REPLAYED: &str = "real.partitions_replayed";
    /// Worker processes forked by the real scheduler.
    pub const REAL_WORKERS_SPAWNED: &str = "real.workers_spawned";
    /// `SMC1` reads served as zero-copy views straight from the
    /// memory mapping (no decode, no copy).
    pub const FORMAT_ZERO_COPY_HITS: &str = "format.zero_copy_hits";
    /// `SMC1` consumer blocks decoded (checksum-verified raw or
    /// packed decode).
    pub const FORMAT_BLOCKS_DECODED: &str = "format.blocks_decoded";
    /// Stored `SMC1` bytes run through the digest on the read side.
    pub const FORMAT_BYTES_CHECKSUMMED: &str = "format.bytes_checksummed";
    /// `f64` bytes produced by `SMC1` block decodes.
    pub const FORMAT_BYTES_DECODED: &str = "format.bytes_decoded";
    /// Row-group cache lookups answered from a resident group.
    pub const FORMAT_CACHE_HITS: &str = "format.cache_hits";
    /// Row-group cache lookups that had to decode a group.
    pub const FORMAT_CACHE_MISSES: &str = "format.cache_misses";
    /// Row groups evicted to stay inside the cache's byte budget.
    pub const FORMAT_CACHE_EVICTIONS: &str = "format.cache_evictions";
    /// Out-of-core similarity runs taken by an engine (0/1 per run).
    pub const OOOC_RUNS: &str = "oooc.runs";
    /// Band buffers filled from the series source by the out-of-core
    /// scheduler (reloads included).
    pub const OOOC_BANDS_LOADED: &str = "oooc.bands_loaded";
    /// Band pairs scheduled across workers by the out-of-core
    /// scheduler.
    pub const OOOC_BAND_PAIRS: &str = "oooc.band_pairs";
    /// `f64` bytes streamed through out-of-core band buffers.
    pub const OOOC_BYTES_STREAMED: &str = "oooc.bytes_streamed";
    /// Row norms the out-of-core scheduler computed; reloads read
    /// them from a store every worker of the walk shares, so a walk
    /// counts each row once.
    pub const OOOC_NORMS_COMPUTED: &str = "oooc.norms_computed";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = MetricsSink::disabled();
        {
            let _t = sink.scope("load");
            sink.incr(counters::ROWS_SCANNED, 10);
        }
        let report = sink.finish(RunManifest::new("t", "p"));
        assert!(report.phases.is_empty());
        assert!(report.counters.is_empty());
        assert!(!sink.is_recording());
    }

    #[test]
    fn scopes_nest_into_a_tree() {
        let sink = MetricsSink::recording();
        assert!(sink.is_recording());
        {
            let _run = sink.scope("run");
            {
                let _a = sink.scope("t1");
            }
            {
                let _b = sink.scope("t2");
            }
        }
        let report = sink.finish(RunManifest::new("three_line", "x"));
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].name, "run");
        let kids: Vec<&str> = report.phases[0]
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(kids, ["t1", "t2"]);
        // Parent spans at least its children.
        let child_sum: u64 = report.phases[0].children.iter().map(|c| c.ns).sum();
        assert!(report.phases[0].ns >= child_sum);
    }

    #[test]
    fn explicit_paths_accumulate() {
        let sink = MetricsSink::recording();
        sink.add_phase(&["run", "t1"], std::time::Duration::from_nanos(50));
        sink.add_phase(&["run", "t1"], std::time::Duration::from_nanos(25));
        sink.incr("widgets", 2);
        sink.incr("widgets", 3);
        let report = sink.finish(RunManifest::new("t", "p"));
        assert_eq!(report.phase_ns(&["run", "t1"]), Some(75));
        assert_eq!(report.counter("widgets"), Some(5));
        assert_eq!(report.counter("missing"), None);
    }

    #[test]
    fn clones_share_the_recorder() {
        let sink = MetricsSink::recording();
        let clone = sink.clone();
        clone.incr(counters::WORKERS_SPAWNED, 4);
        sink.add_phase(&["load"], std::time::Duration::from_nanos(9));
        let report = sink.finish(RunManifest::new("t", "p"));
        assert_eq!(report.counter(counters::WORKERS_SPAWNED), Some(4));
        assert_eq!(report.phase_ns(&["load"]), Some(9));
    }

    #[test]
    fn finish_resets_for_reuse() {
        let sink = MetricsSink::recording();
        sink.incr("a", 1);
        let first = sink.finish(RunManifest::new("t", "p"));
        assert_eq!(first.counter("a"), Some(1));
        let second = sink.finish(RunManifest::new("t", "p"));
        assert_eq!(second.counter("a"), None);
    }
}
