//! Streaming ingest: the live half of the lambda architecture.
//!
//! The paper's Section 6 future work calls for "real-time applications
//! ... using data stream processing technologies", and Liu & Nielsen's
//! hybrid ICT architecture (PAPERS.md) gives it a shape: a streaming
//! path accepts live meter readings and feeds the *same* analytics as
//! the batch path. Every other crate in this workspace consumes a
//! finished 8760-hour year; this crate is the path by which a reading
//! *arrives*.
//!
//! # Pipeline
//!
//! [`run_pipeline`] accepts out-of-order hourly [`Reading`](smda_types::Reading)s and:
//!
//! 1. **routes** each one by consumer-id hash to one of N shards over a
//!    bounded queue, a chunk at a time (a chunk is handed over when it
//!    holds 256 readings, when the routed event hour advances, and at
//!    end of stream — `ingest.chunks_routed`) — a full queue blocks the
//!    router until it has drained to half its capacity (backpressure;
//!    hand-offs that blocked are counted as
//!    `ingest.backpressure_stalls`);
//! 2. **advances** a per-shard event-time watermark (`max event hour −
//!    allowed lateness`); readings behind the watermark are counted and
//!    routed to a dead-letter sink per
//!    [`DirtyDataPolicy`](smda_types::DirtyDataPolicy);
//! 3. **finalizes** each consumer's buffered hours in hour order behind
//!    the watermark, feeding the optional
//!    [`AnomalyDetector`](smda_core::AnomalyDetector) — the one consumer
//!    of a reading that cannot wait for the year to close;
//! 4. **seals** each completed year into a [`Snapshot`]: the validated
//!    series go into a [`Dataset`](smda_types::Dataset), and the batch
//!    code builds the similarity rows and histograms from it. Its
//!    [`Snapshot::run_task`] bridge hands the data to the existing batch
//!    engines ([`smda_engines::parallel::execute_task`]) — the four
//!    paper tasks run unchanged and are bit-identical to the offline
//!    load path.
//!
//! Shard execution reuses [`smda_engines::WorkerPool`]; shard crashes
//! and stragglers are injected from a
//! [`FaultPlan`](smda_cluster::FaultPlan) and recovered by replaying the
//! shard's write-ahead log: a [`FrameLog`](smda_storage::FrameLog) of one
//! checksummed frame per reading, so a damaged record fails recovery
//! with a typed error instead of replaying as a different reading.
//! Counters and per-phase timers flow through
//! [`MetricsSink`](smda_obs::MetricsSink) into the `smda-bench/v1`
//! export.
//!
//! # Bit identity
//!
//! Ingest derives nothing from the readings but the detector's alerts.
//! A sealed year's series holds exactly the delivered readings, at any
//! shard count and any arrival order within the allowed lateness, and
//! every other artifact of it — similarity row, histogram, `.smc` file —
//! comes from the code the batch path runs on the same series.

pub mod config;
pub mod handle;
pub mod pipeline;
pub mod replay;
pub mod shard;
pub mod snapshot;
pub mod state;

pub use config::IngestConfig;
pub use handle::{LiveSnapshot, SnapshotHandle};
pub use pipeline::{run_pipeline, IngestOutcome, IngestReport};
pub use replay::{replay_events, throttle, ReplayConfig};
pub use snapshot::Snapshot;
pub use state::{fit_detectors, ConsumerAccumulator};

/// SplitMix64 finalizer — the workspace's standard stateless mixer, used
/// here for shard routing and replay jitter.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
