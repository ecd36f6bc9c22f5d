//! Pipeline configuration.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use smda_cluster::FaultPlan;
use smda_core::AnomalyDetector;
use smda_obs::MetricsSink;
use smda_types::{ConsumerId, DirtyDataPolicy, Error, Result};

use crate::handle::SnapshotHandle;

/// Default shard (worker) count.
pub const DEFAULT_SHARDS: usize = 4;

/// Default bounded-queue capacity per shard, in readings.
pub const DEFAULT_QUEUE_CAPACITY: usize = 4096;

/// Default allowed lateness, in event-time hours.
pub const DEFAULT_ALLOWED_LATENESS: u32 = 24;

/// Everything [`run_pipeline`](crate::run_pipeline) needs to know.
///
/// The dirty-data policy governs the pipeline's three data-quality
/// decisions the same way it governs the batch loaders: late readings
/// (behind the watermark), duplicate `(consumer, hour)` slots, and hours
/// still missing at seal. [`DirtyDataPolicy::FailFast`] surfaces the
/// first occurrence as an error; [`DirtyDataPolicy::SkipAndCount`]
/// counts them, routes late/duplicate readings to the dead-letter sink,
/// and zero-fills missing hours.
#[derive(Clone)]
pub struct IngestConfig {
    /// Number of shard workers readings are hash-routed across.
    pub shards: usize,
    /// Bounded queue capacity per shard, in readings; a full queue
    /// blocks the router. Readings are handed over in chunks of up to
    /// 256, never longer than this capacity. A blocked router goes on
    /// once the queue has drained to half this capacity (to empty, for a
    /// chunk longer than the other half), so it stalls at most once per
    /// `capacity − capacity/2 − 256 + 1` readings on a capacity of 512
    /// or more.
    pub queue_capacity: usize,
    /// Allowed lateness in event-time hours: the per-shard watermark
    /// trails the newest hour seen by this much.
    pub allowed_lateness: u32,
    /// What to do with late, duplicate or missing readings.
    pub policy: DirtyDataPolicy,
    /// Directory for per-shard write-ahead logs. Required when `faults`
    /// schedules shard crashes; optional (durability only) otherwise.
    pub wal_dir: Option<PathBuf>,
    /// Injected faults: `crash=SHARD@SECS` kills a shard's in-memory
    /// state after `SECS × 1000` readings of virtual time (1 ms per
    /// reading), `slow=SHARDxF` stretches that shard's virtual clock,
    /// `task_fail=P` fails batch attempts at rate `P`.
    pub faults: FaultPlan,
    /// Destination for `ingest.*` counters and phase timers.
    pub metrics: MetricsSink,
    /// Per-consumer anomaly detectors fed behind the watermark; see
    /// [`fit_detectors`](crate::fit_detectors).
    pub detectors: Option<Arc<HashMap<ConsumerId, AnomalyDetector>>>,
    /// Where to publish the sealed snapshot for online serving; the
    /// pipeline swaps it in as a new epoch at seal time.
    pub publish: Option<Arc<SnapshotHandle>>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            shards: DEFAULT_SHARDS,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            allowed_lateness: DEFAULT_ALLOWED_LATENESS,
            policy: DirtyDataPolicy::FailFast,
            wal_dir: None,
            faults: FaultPlan::default(),
            metrics: MetricsSink::disabled(),
            detectors: None,
            publish: None,
        }
    }
}

impl IngestConfig {
    /// The default configuration (4 shards, 4096-deep queues, 24 h
    /// lateness, fail-fast, no WAL, no faults, metrics disabled).
    pub fn new() -> IngestConfig {
        IngestConfig::default()
    }

    /// Set the shard count.
    pub fn with_shards(mut self, shards: usize) -> IngestConfig {
        self.shards = shards;
        self
    }

    /// Set the allowed lateness in hours.
    pub fn with_allowed_lateness(mut self, hours: u32) -> IngestConfig {
        self.allowed_lateness = hours;
        self
    }

    /// Set the dirty-data policy.
    pub fn with_policy(mut self, policy: DirtyDataPolicy) -> IngestConfig {
        self.policy = policy;
        self
    }

    /// Enable per-shard write-ahead logging under `dir`.
    pub fn with_wal_dir(mut self, dir: impl Into<PathBuf>) -> IngestConfig {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Set the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> IngestConfig {
        self.faults = faults;
        self
    }

    /// Attach per-consumer anomaly detectors.
    pub fn with_detectors(
        mut self,
        detectors: Arc<HashMap<ConsumerId, AnomalyDetector>>,
    ) -> IngestConfig {
        self.detectors = Some(detectors);
        self
    }

    /// Publish the sealed snapshot into `handle` for online serving.
    pub fn with_publish(mut self, handle: Arc<SnapshotHandle>) -> IngestConfig {
        self.publish = Some(handle);
        self
    }

    /// Check internal consistency before the pipeline starts.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(Error::Invalid("ingest needs at least one shard".into()));
        }
        if self.queue_capacity == 0 {
            return Err(Error::Invalid(
                "ingest queue capacity must be at least 1".into(),
            ));
        }
        if !self.faults.crashes.is_empty() && self.wal_dir.is_none() {
            return Err(Error::Invalid(
                "fault plan schedules shard crashes but no WAL directory is configured; \
                 recovery would lose readings"
                    .into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_cluster::faults::NodeCrash;
    use std::time::Duration;

    #[test]
    fn defaults_validate() {
        assert!(IngestConfig::new().validate().is_ok());
    }

    #[test]
    fn zero_shards_or_capacity_rejected() {
        assert!(IngestConfig::new().with_shards(0).validate().is_err());
        let zero_capacity = IngestConfig {
            queue_capacity: 0,
            ..IngestConfig::new()
        };
        assert!(zero_capacity.validate().is_err());
    }

    #[test]
    fn crashes_require_a_wal() {
        let faults = FaultPlan {
            crashes: vec![NodeCrash {
                node: 0,
                at: Duration::from_secs(1),
            }],
            ..FaultPlan::default()
        };
        let cfg = IngestConfig::new().with_faults(faults.clone());
        assert!(cfg.validate().is_err());
        let cfg = IngestConfig::new()
            .with_faults(faults)
            .with_wal_dir(std::env::temp_dir());
        assert!(cfg.validate().is_ok());
    }
}
