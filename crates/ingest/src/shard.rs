//! Per-shard ingest state: watermark, accumulators, WAL, fault injection.
//!
//! A [`ShardState`] owns every consumer hash-routed to one shard. It is
//! driven in batches by the worker threads in
//! [`pipeline`](crate::pipeline); all ordering guarantees derive from the
//! queue being FIFO and batches being applied under the shard's state
//! lock, so the apply order equals the router's send order regardless of
//! which worker holds the lease.
//!
//! # Crash recovery
//!
//! Every reading handed to the shard is appended to the write-ahead log
//! *before* any lateness/duplicate decision. An injected crash wipes the
//! shard's in-memory state — accumulators, watermark, data tallies,
//! alerts, dead letters — and rebuilds all of it by replaying the log
//! through the same `apply` path. Because decisions are pure functions
//! of the apply order and the log preserves that order, recovery is
//! exact: no reading is lost or double-counted.
//!
//! # Virtual time
//!
//! Crash instants come from a [`FaultPlan`] in wall-clock terms
//! (`crash=SHARD@SECS`). Real wall time would make tests flaky, so the
//! shard advances a deterministic virtual clock instead: one millisecond
//! per processed reading, stretched by the shard's
//! [`slow_factor`](FaultPlan::slow_factor). `crash=0@5` therefore fires
//! after shard 0's 5000th reading — same instant on every run.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use smda_cluster::FaultPlan;
use smda_core::{Alert, AnomalyDetector};
use smda_storage::wal::{replay, WriteAheadLog};
use smda_types::{ConsumerId, DirtyDataPolicy, Error, Reading, Result, HOURS_PER_YEAR};

use crate::splitmix64;
use crate::state::{Admit, ConsumerAccumulator, SealedConsumer};

/// Virtual nanoseconds charged per processed reading (1 ms).
const VIRT_NS_PER_READING: u64 = 1_000_000;

/// Hash state of a shard's accumulator map: one seeded SplitMix64 round
/// per [`ConsumerId`] instead of SipHash. The map is probed once per
/// reading, and its keys are `u32`s the mixer already spreads over all
/// 64 bits; the seed is drawn per map from [`RandomState`], so which ids
/// collide still cannot be chosen from outside the process.
struct IdHashState(u64);

impl Default for IdHashState {
    fn default() -> IdHashState {
        IdHashState(RandomState::new().hash_one(0u8))
    }
}

impl BuildHasher for IdHashState {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher(self.0)
    }
}

struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b as u32);
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = splitmix64(self.0 ^ id as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Counters rebuilt from the WAL on crash recovery.
#[derive(Debug, Default, Clone, Copy)]
struct DataTallies {
    readings_in: u64,
    readings_late: u64,
    readings_duplicate: u64,
}

/// Counters that describe the fault machinery itself and therefore
/// survive a crash (the crash must not erase the record of the crash).
#[derive(Debug, Default, Clone, Copy)]
struct FaultTallies {
    crashes_injected: u64,
    crashes_recovered: u64,
    failures_injected: u64,
    wal_records_replayed: u64,
}

/// One shard's complete ingest state.
pub struct ShardState {
    shard: usize,
    lateness: u32,
    policy: DirtyDataPolicy,
    faults: FaultPlan,
    detectors: Option<Arc<HashMap<ConsumerId, AnomalyDetector>>>,

    wal: Option<WriteAheadLog>,
    wal_path: Option<PathBuf>,

    consumers: HashMap<ConsumerId, ConsumerAccumulator, IdHashState>,
    max_hour: Option<u32>,
    tallies: DataTallies,
    alerts: Vec<Alert>,
    dead: Vec<Reading>,

    virtual_ns: u128,
    /// Virtual nanoseconds one reading costs on this shard:
    /// [`VIRT_NS_PER_READING`] stretched by the shard's slow factor.
    virt_ns_per_reading: u128,
    /// Scheduled crashes for this shard, soonest first.
    crashes: Vec<Duration>,
    next_crash: usize,
    fault_tallies: FaultTallies,
    batch_seq: u64,
    max_lag: u32,
    busy: Duration,
}

impl ShardState {
    /// Build shard `shard`'s empty state, creating its WAL file under
    /// `wal_dir` when logging is enabled.
    pub fn new(
        shard: usize,
        lateness: u32,
        policy: DirtyDataPolicy,
        faults: FaultPlan,
        detectors: Option<Arc<HashMap<ConsumerId, AnomalyDetector>>>,
        wal_dir: Option<&std::path::Path>,
    ) -> Result<ShardState> {
        let wal_path = wal_dir.map(|d| d.join(format!("shard-{shard}.wal")));
        let wal = wal_path.as_ref().map(WriteAheadLog::create).transpose()?;
        let mut crashes: Vec<Duration> = faults
            .crashes
            .iter()
            .filter(|c| c.node == shard)
            .map(|c| c.at)
            .collect();
        crashes.sort();
        let virt_ns_per_reading = (VIRT_NS_PER_READING as f64 * faults.slow_factor(shard)) as u128;
        Ok(ShardState {
            shard,
            lateness,
            policy,
            faults,
            detectors,
            wal,
            wal_path,
            consumers: HashMap::default(),
            max_hour: None,
            tallies: DataTallies::default(),
            alerts: Vec::new(),
            dead: Vec::new(),
            virtual_ns: 0,
            virt_ns_per_reading,
            crashes,
            next_crash: 0,
            fault_tallies: FaultTallies::default(),
            batch_seq: 0,
            max_lag: 0,
            busy: Duration::ZERO,
        })
    }

    /// The shard's event-time watermark: newest hour seen minus allowed
    /// lateness. `None` before the first reading.
    pub fn watermark(&self) -> Option<u32> {
        self.max_hour.map(|m| m.saturating_sub(self.lateness))
    }

    /// Apply one FIFO batch from the shard's queue. `routed_hour` is the
    /// newest event hour the router has emitted, used only for the
    /// watermark-lag gauge.
    pub fn process_batch(&mut self, batch: &[Reading], routed_hour: u32) -> Result<()> {
        let started = std::time::Instant::now();
        self.batch_seq += 1;
        if self.faults.task_failure_rate > 0.0 {
            self.draw_task_attempts()?;
        }
        for r in batch {
            self.ingest_one(r)?;
        }
        if let Some(w) = self.watermark() {
            self.max_lag = self.max_lag.max(routed_hour.saturating_sub(w));
        }
        self.busy += started.elapsed();
        Ok(())
    }

    /// Simulate the batch's task attempts against the fault plan: retry
    /// until an attempt survives or the retry budget runs out.
    fn draw_task_attempts(&mut self) -> Result<()> {
        for attempt in 0..self.faults.max_attempts.max(1) {
            if !self
                .faults
                .attempt_fails(self.shard as u64, self.batch_seq, attempt as u64)
            {
                return Ok(());
            }
            self.fault_tallies.failures_injected += 1;
        }
        Err(Error::TaskFailed {
            task: format!("ingest shard {} batch {}", self.shard, self.batch_seq),
            attempts: self.faults.max_attempts.max(1),
        })
    }

    fn ingest_one(&mut self, r: &Reading) -> Result<()> {
        if let Some(wal) = &mut self.wal {
            wal.append(r)?;
        }
        self.virtual_ns += self.virt_ns_per_reading;
        if self.next_crash < self.crashes.len()
            && self.virtual_ns >= self.crashes[self.next_crash].as_nanos()
        {
            self.next_crash += 1;
            self.crash_and_recover()?;
            // The crashing reading is already in the WAL, so the replay
            // above has applied it; applying it again would duplicate it.
            return Ok(());
        }
        self.apply(r)
    }

    /// The pure state transition: lateness check, dedup, accumulate,
    /// advance the watermark cursor. Both live ingest and WAL replay go
    /// through here, which is what makes recovery exact.
    fn apply(&mut self, r: &Reading) -> Result<()> {
        self.tallies.readings_in += 1;
        let watermark = self.watermark().unwrap_or(0);
        if r.hour < watermark {
            self.tallies.readings_late += 1;
            if self.policy.skips() {
                self.dead.push(*r);
                return Ok(());
            }
            return Err(Error::Schema(format!(
                "consumer {}: hour {} arrived behind the shard-{} watermark {watermark} \
                 (allowed lateness {} h)",
                r.consumer, r.hour, self.shard, self.lateness
            )));
        }
        // The one probe of the accumulator map this reading pays; the
        // detector (~1.2 KB) is looked up and copied only for a consumer
        // seen for the first time.
        let acc = match self.consumers.entry(r.consumer) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => {
                let detector = self
                    .detectors
                    .as_ref()
                    .and_then(|d| d.get(&r.consumer))
                    .cloned();
                slot.insert(ConsumerAccumulator::new(r.consumer, detector))
            }
        };
        if acc.admit(r) == Admit::Duplicate {
            self.tallies.readings_duplicate += 1;
            if self.policy.skips() {
                self.dead.push(*r);
                return Ok(());
            }
            return Err(Error::Schema(format!(
                "consumer {}: duplicate reading for hour {}",
                r.consumer, r.hour
            )));
        }
        match self.max_hour {
            Some(newest) if r.hour <= newest => acc.advance(watermark, &mut self.alerts),
            _ => {
                // The watermark moved: every consumer of the shard may
                // have hours to finalize, not only this reading's.
                self.max_hour = Some(r.hour);
                let bound = r.hour.saturating_sub(self.lateness);
                for acc in self.consumers.values_mut() {
                    acc.advance(bound, &mut self.alerts);
                }
            }
        }
        Ok(())
    }

    /// Injected crash: wipe in-memory state, then rebuild it by
    /// replaying the shard's WAL through [`ShardState::apply`].
    fn crash_and_recover(&mut self) -> Result<()> {
        self.fault_tallies.crashes_injected += 1;
        let path = self
            .wal_path
            .clone()
            .expect("IngestConfig::validate requires a WAL when crashes are planned");
        if let Some(wal) = &mut self.wal {
            wal.flush()?;
        }
        self.consumers.clear();
        self.max_hour = None;
        self.tallies = DataTallies::default();
        self.alerts.clear();
        self.dead.clear();
        let logged = replay(&path)?;
        self.fault_tallies.wal_records_replayed += logged.len() as u64;
        // Replay must not re-log or re-crash: go straight to `apply`.
        for r in &logged {
            self.apply(r)?;
        }
        self.fault_tallies.crashes_recovered += 1;
        Ok(())
    }

    /// Close every consumer's year, in consumer-id order. `missing`
    /// accumulates zero-filled hours under
    /// [`DirtyDataPolicy::SkipAndCount`].
    pub fn seal(&mut self, missing: &mut u64) -> Result<Vec<SealedConsumer>> {
        if let Some(wal) = &mut self.wal {
            wal.flush()?;
        }
        let mut accs: Vec<ConsumerAccumulator> =
            std::mem::take(&mut self.consumers).into_values().collect();
        accs.sort_by_key(|a| a.id());
        let mut sealed = Vec::with_capacity(accs.len());
        for acc in accs {
            sealed.push(acc.seal(self.policy, missing, &mut self.alerts)?);
        }
        Ok(sealed)
    }

    /// Readings applied (including late/duplicate ones).
    pub fn readings_in(&self) -> u64 {
        self.tallies.readings_in
    }

    /// Readings that arrived behind the watermark.
    pub fn readings_late(&self) -> u64 {
        self.tallies.readings_late
    }

    /// Readings whose `(consumer, hour)` slot was already filled.
    pub fn readings_duplicate(&self) -> u64 {
        self.tallies.readings_duplicate
    }

    /// Worst observed router-to-watermark lag, in event hours.
    pub fn max_lag_hours(&self) -> u32 {
        self.max_lag
    }

    /// Time this shard spent applying batches and sealing.
    pub fn busy_time(&self) -> Duration {
        self.busy
    }

    /// Injected crashes (survives the crash it records).
    pub fn crashes_injected(&self) -> u64 {
        self.fault_tallies.crashes_injected
    }

    /// Crashes fully recovered by WAL replay.
    pub fn crashes_recovered(&self) -> u64 {
        self.fault_tallies.crashes_recovered
    }

    /// Failed task attempts drawn from the fault plan.
    pub fn failures_injected(&self) -> u64 {
        self.fault_tallies.failures_injected
    }

    /// WAL records replayed across all recoveries.
    pub fn wal_records_replayed(&self) -> u64 {
        self.fault_tallies.wal_records_replayed
    }

    /// Alerts raised so far; drained by the pipeline at seal.
    pub fn take_alerts(&mut self) -> Vec<Alert> {
        std::mem::take(&mut self.alerts)
    }

    /// Dead-lettered readings; drained by the pipeline at seal.
    pub fn take_dead_letters(&mut self) -> Vec<Reading> {
        std::mem::take(&mut self.dead)
    }

    /// Upper bound check used by the router before a reading is queued.
    pub fn valid_hour(hour: u32) -> bool {
        (hour as usize) < HOURS_PER_YEAR
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(consumer: u32, hour: u32, kwh: f64) -> Reading {
        Reading {
            consumer: ConsumerId(consumer),
            hour,
            temperature: 12.0,
            kwh,
        }
    }

    fn plain_shard(lateness: u32, policy: DirtyDataPolicy) -> ShardState {
        ShardState::new(0, lateness, policy, FaultPlan::default(), None, None).unwrap()
    }

    #[test]
    fn id_hash_is_stable_within_a_map_and_seeded_per_map() {
        let (a, b) = (IdHashState::default(), IdHashState::default());
        assert_eq!(a.hash_one(ConsumerId(7)), a.hash_one(ConsumerId(7)));
        assert_ne!(a.hash_one(ConsumerId(7)), a.hash_one(ConsumerId(8)));
        assert_ne!(a.0, b.0, "each map draws its own seed");
        assert_ne!(a.hash_one(ConsumerId(7)), b.hash_one(ConsumerId(7)));
    }

    #[test]
    fn watermark_trails_newest_hour() {
        let mut s = plain_shard(24, DirtyDataPolicy::FailFast);
        assert_eq!(s.watermark(), None);
        s.process_batch(&[reading(1, 10, 1.0)], 10).unwrap();
        assert_eq!(s.watermark(), Some(0));
        s.process_batch(&[reading(1, 100, 1.0)], 100).unwrap();
        assert_eq!(s.watermark(), Some(76));
    }

    #[test]
    fn late_reading_fails_fast_or_dead_letters() {
        let mut s = plain_shard(2, DirtyDataPolicy::FailFast);
        s.process_batch(&[reading(1, 100, 1.0)], 100).unwrap();
        assert!(s.process_batch(&[reading(1, 50, 1.0)], 100).is_err());

        let mut s = plain_shard(2, DirtyDataPolicy::SkipAndCount);
        s.process_batch(&[reading(1, 100, 1.0), reading(1, 50, 1.0)], 100)
            .unwrap();
        assert_eq!(s.readings_late(), 1);
        assert_eq!(s.take_dead_letters().len(), 1);
    }

    #[test]
    fn exactly_at_watermark_is_accepted() {
        let mut s = plain_shard(10, DirtyDataPolicy::FailFast);
        s.process_batch(&[reading(1, 20, 1.0)], 20).unwrap();
        // Watermark is 10; hour 10 is not strictly behind it.
        s.process_batch(&[reading(1, 10, 1.0)], 20).unwrap();
        assert_eq!(s.readings_late(), 0);
    }

    #[test]
    fn crash_recovery_replays_the_wal_exactly() {
        let dir =
            std::env::temp_dir().join(format!("smda-ingest-shard-test-{}", std::process::id()));
        // 1 ms of virtual time per reading: crash at 3 ms fires on the
        // 3rd reading.
        let faults = FaultPlan {
            crashes: vec![smda_cluster::NodeCrash {
                node: 0,
                at: Duration::from_millis(3),
            }],
            ..FaultPlan::default()
        };
        let mut s = ShardState::new(
            0,
            8760,
            DirtyDataPolicy::SkipAndCount,
            faults,
            None,
            Some(&dir),
        )
        .unwrap();
        let batch: Vec<Reading> = (0..10).map(|h| reading(7, h, h as f64)).collect();
        s.process_batch(&batch, 9).unwrap();
        assert_eq!(s.crashes_injected(), 1);
        assert_eq!(s.crashes_recovered(), 1);
        // The crashing (3rd) reading was logged before the crash, so the
        // replay covers it and nothing is lost or duplicated.
        assert_eq!(s.wal_records_replayed(), 3);
        assert_eq!(s.readings_in(), 10);
        assert_eq!(s.readings_duplicate(), 0);
        let mut missing = 0;
        let sealed = s.seal(&mut missing).unwrap();
        assert_eq!(sealed.len(), 1);
        assert_eq!(missing, (HOURS_PER_YEAR - 10) as u64);
        // The recovered state holds the exact delivered values.
        for h in 0..10 {
            assert_eq!(sealed[0].series.readings()[h], h as f64);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn task_failures_respect_the_retry_budget() {
        let faults = FaultPlan {
            task_failure_rate: 1.0,
            max_attempts: 3,
            ..FaultPlan::default()
        };
        let mut s = ShardState::new(0, 24, DirtyDataPolicy::FailFast, faults, None, None).unwrap();
        let err = s.process_batch(&[reading(1, 0, 1.0)], 0).unwrap_err();
        assert!(matches!(err, Error::TaskFailed { attempts: 3, .. }));
        assert_eq!(s.failures_injected(), 3);
    }
}
