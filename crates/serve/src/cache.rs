//! The per-epoch result cache.
//!
//! One generation at a time: answers are memoized per `(epoch, query)`,
//! and the first lookup that arrives with a *newer* epoch discards the
//! whole previous generation before missing. Lookups carrying an
//! *older* epoch (a worker that pinned just before a swap) always miss
//! and never insert — so an entry computed at epoch `N` can never be
//! served to, or polluted by, a query at any other epoch.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use smda_types::{Query, QueryResult};

/// What a cache probe found.
#[derive(Debug)]
pub enum CacheLookup {
    /// A memoized answer from the same epoch.
    Hit(Arc<QueryResult>),
    /// No answer cached for this query.
    Miss,
    /// The probe's epoch was newer: the old generation was discarded
    /// (counts into `serve.cache_invalidations`), then missed.
    MissInvalidated,
}

struct Generation {
    epoch: u64,
    map: HashMap<Query, Arc<QueryResult>>,
}

/// Single-generation query cache keyed by epoch; see the module docs.
pub struct EpochCache {
    inner: Mutex<Generation>,
    capacity: usize,
}

impl EpochCache {
    /// A cache holding at most `capacity` answers per epoch.
    pub fn new(capacity: usize) -> EpochCache {
        EpochCache {
            inner: Mutex::new(Generation {
                epoch: 0,
                map: HashMap::new(),
            }),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Generation> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Probe for `query` at `epoch`, rolling the generation forward if
    /// `epoch` is newer than the cached one.
    pub fn lookup(&self, epoch: u64, query: &Query) -> CacheLookup {
        let mut gen = self.lock();
        if epoch > gen.epoch {
            let had_entries = !gen.map.is_empty();
            gen.map.clear();
            gen.epoch = epoch;
            return if had_entries {
                CacheLookup::MissInvalidated
            } else {
                CacheLookup::Miss
            };
        }
        if epoch < gen.epoch {
            // Stale pin during a swap: the old world's answers are gone
            // and must not be recomputed into the new generation.
            return CacheLookup::Miss;
        }
        match gen.map.get(query) {
            Some(r) => CacheLookup::Hit(r.clone()),
            None => CacheLookup::Miss,
        }
    }

    /// Memoize `result` for `query`, but only into the generation it
    /// was computed against; stale or overflow inserts are dropped.
    pub fn insert(&self, epoch: u64, query: Query, result: Arc<QueryResult>) {
        let mut gen = self.lock();
        if gen.epoch != epoch || gen.map.len() >= self.capacity {
            return;
        }
        gen.map.insert(query, result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_types::ConsumerId;

    fn q(id: u32) -> Query {
        Query::Histogram {
            consumer: ConsumerId(id),
        }
    }

    fn r(id: u32) -> Arc<QueryResult> {
        Arc::new(QueryResult::Histogram {
            consumer: ConsumerId(id),
            min: 0.0,
            max: 1.0,
            counts: vec![1],
        })
    }

    #[test]
    fn hit_after_insert_same_epoch() {
        let cache = EpochCache::new(8);
        assert!(matches!(cache.lookup(1, &q(1)), CacheLookup::Miss));
        cache.insert(1, q(1), r(1));
        assert!(matches!(cache.lookup(1, &q(1)), CacheLookup::Hit(_)));
        assert_eq!(cache.lock().map.len(), 1);
    }

    #[test]
    fn newer_epoch_discards_the_generation() {
        let cache = EpochCache::new(8);
        cache.lookup(1, &q(1));
        cache.insert(1, q(1), r(1));
        assert!(matches!(
            cache.lookup(2, &q(1)),
            CacheLookup::MissInvalidated
        ));
        assert!(cache.lock().map.is_empty());
        assert_eq!(cache.lock().epoch, 2);
        // The epoch-1 answer is gone for good.
        assert!(matches!(cache.lookup(2, &q(1)), CacheLookup::Miss));
    }

    #[test]
    fn stale_epoch_never_hits_and_never_inserts() {
        let cache = EpochCache::new(8);
        cache.lookup(2, &q(1));
        cache.insert(2, q(1), r(1));
        // A worker still pinned to epoch 1 misses...
        assert!(matches!(cache.lookup(1, &q(1)), CacheLookup::Miss));
        // ...and its recomputed answer is dropped, not cached at 2.
        cache.insert(1, q(2), r(2));
        assert!(matches!(cache.lookup(2, &q(2)), CacheLookup::Miss));
        assert_eq!(cache.lock().map.len(), 1);
    }

    #[test]
    fn capacity_bounds_the_generation() {
        let cache = EpochCache::new(2);
        cache.lookup(1, &q(0));
        for id in 0..5 {
            cache.insert(1, q(id), r(id));
        }
        assert_eq!(cache.lock().map.len(), 2);
    }
}
