//! The epoch-swap bridge between the sealer and the serving layer.
//!
//! A [`SnapshotHandle`] holds at most one *live* snapshot. Publishing
//! replaces the whole `Arc<LiveSnapshot>` under a short write lock and
//! bumps the epoch; readers [`pin`](SnapshotHandle::pin) by cloning the
//! `Arc` under a short read lock. Because the epoch and the data travel
//! together inside one immutable `LiveSnapshot`, a reader can never
//! observe a *torn* state (epoch N paired with epoch N+1's data) — it
//! either pins the old world or the new one, and holds whichever it
//! pinned alive for the duration of its query regardless of how many
//! publishes happen meanwhile. The sealer never waits for
//! readers: swapping the `Arc` is all it does.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use smda_core::Alert;

use crate::snapshot::Snapshot;

/// One published world: a sealed snapshot with its epoch and alerts,
/// immutable once constructed.
pub struct LiveSnapshot {
    epoch: u64,
    snapshot: Arc<Snapshot>,
    alerts: Arc<Vec<Alert>>,
}

impl LiveSnapshot {
    /// Publication number, starting at 1 and strictly increasing.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sealed world.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.snapshot
    }

    /// Anomaly alerts raised up to this snapshot's watermark, in
    /// `(consumer, hour)` order.
    pub fn alerts(&self) -> &Arc<Vec<Alert>> {
        &self.alerts
    }
}

/// Shared mailbox the sealer publishes into and queries pin from.
///
/// Create one, hand a clone of the `Arc` to
/// [`IngestConfig::with_publish`](crate::IngestConfig::with_publish)
/// (or call [`publish`](SnapshotHandle::publish) directly), and give the
/// same `Arc` to the serving layer.
#[derive(Default)]
pub struct SnapshotHandle {
    live: RwLock<Option<Arc<LiveSnapshot>>>,
    epoch: AtomicU64,
    /// Publishers serialize here.
    gate: Mutex<()>,
}

impl SnapshotHandle {
    /// An empty handle — [`pin`](SnapshotHandle::pin) returns `None`
    /// until the first publish.
    pub fn new() -> SnapshotHandle {
        SnapshotHandle::default()
    }

    /// Publish a sealed snapshot as the new live world; returns its
    /// epoch. Readers pinned to earlier epochs are unaffected. The
    /// stream position the snapshot was sealed at is taken but not kept:
    /// nothing reads it.
    pub fn publish(
        &self,
        snapshot: Arc<Snapshot>,
        _watermark: u32,
        alerts: Arc<Vec<Alert>>,
    ) -> u64 {
        let gate = lock(&self.gate);
        let epoch = self.epoch.load(Ordering::Acquire) + 1;
        let live = Arc::new(LiveSnapshot {
            epoch,
            snapshot,
            alerts,
        });
        *self
            .live
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(live);
        self.epoch.store(epoch, Ordering::Release);
        drop(gate);
        epoch
    }

    /// Pin the current live snapshot: clone the `Arc` under a short
    /// read lock. `None` before the first publish.
    pub fn pin(&self) -> Option<Arc<LiveSnapshot>> {
        self.live
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_types::{ConsumerId, DirtyDataPolicy, Reading, TemperatureSeries, HOURS_PER_YEAR};

    fn tiny_snapshot(id: u32) -> Arc<Snapshot> {
        let mut acc = crate::state::ConsumerAccumulator::new(ConsumerId(id), None);
        for h in 0..HOURS_PER_YEAR as u32 {
            acc.admit(&Reading {
                consumer: ConsumerId(id),
                hour: h,
                temperature: 10.0,
                kwh: 1.0,
            });
        }
        let mut missing = 0;
        let sealed = acc
            .seal(DirtyDataPolicy::FailFast, &mut missing, &mut Vec::new())
            .unwrap();
        let temps = TemperatureSeries::new(vec![10.0; HOURS_PER_YEAR]).unwrap();
        Arc::new(Snapshot::from_sealed(vec![sealed], temps).unwrap())
    }

    #[test]
    fn empty_handle_pins_nothing() {
        let h = SnapshotHandle::new();
        assert!(h.pin().is_none());
    }

    #[test]
    fn publish_bumps_epoch_and_readers_keep_their_pin() {
        let h = SnapshotHandle::new();
        let e1 = h.publish(tiny_snapshot(1), 100, Arc::new(Vec::new()));
        assert_eq!(e1, 1);
        let pinned = h.pin().unwrap();
        assert_eq!(pinned.epoch(), 1);

        let e2 = h.publish(tiny_snapshot(2), 200, Arc::new(Vec::new()));
        assert_eq!(e2, 2);
        // The old pin still sees the old world, whole and consistent.
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(pinned.snapshot().dataset().consumers()[0].id, ConsumerId(1));
        // A fresh pin sees the new world.
        let fresh = h.pin().unwrap();
        assert_eq!(fresh.epoch(), 2);
        assert_eq!(fresh.snapshot().dataset().consumers()[0].id, ConsumerId(2));
    }
}
