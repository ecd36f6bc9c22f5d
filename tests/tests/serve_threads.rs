//! The server serves on the caller's thread — witnessed without a
//! clock: the process has as many threads after `Server::start`, and
//! after every kind of query missed and then hit, as it had before.
//!
//! One test, alone in its binary, so nothing else in the process
//! starts or ends a thread while it counts.
#![cfg(target_os = "linux")]

use std::sync::Arc;

use smda_core::SIMILARITY_TOP_K;
use smda_ingest::{replay_events, run_pipeline, IngestConfig, ReplayConfig, SnapshotHandle};
use smda_integration::fixture_dataset;
use smda_serve::{ServeConfig, Server};
use smda_types::Query;

/// Threads of this process, as the kernel lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .count()
}

#[test]
fn serving_starts_no_thread() {
    // Seal and publish first: the pipeline's shard workers have come
    // and gone before anything is counted.
    let ds = fixture_dataset(4);
    let handle = Arc::new(SnapshotHandle::new());
    let events = replay_events(
        &ds,
        &ReplayConfig {
            jitter_hours: 0,
            seed: 11,
        },
    );
    let config = IngestConfig::new()
        .with_shards(2)
        .with_publish(handle.clone());
    run_pipeline(events, &config).expect("pipeline seals and publishes");

    let before = threads();
    let server = Server::start(handle, ServeConfig::default());
    assert_eq!(threads(), before, "Server::start spawned a thread");

    for pass in ["miss", "hit"] {
        for c in ds.consumers() {
            let consumer = c.id;
            for query in [
                Query::TopKSimilar {
                    consumer,
                    k: SIMILARITY_TOP_K,
                },
                Query::Histogram { consumer },
                Query::ThreeLineFeatures { consumer },
                Query::ParCoefficients { consumer },
                Query::AnomalyStatus { consumer },
            ] {
                server
                    .query(query)
                    .unwrap_or_else(|e| panic!("`{query}` serves: {e}"));
                assert_eq!(
                    threads(),
                    before,
                    "`{query}` ({pass}) was not served on the caller's thread"
                );
            }
        }
    }
}
