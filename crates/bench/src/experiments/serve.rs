//! PR 6 extension: the online serving load sweep.
//!
//! Seals one seeded year through the streaming pipeline, publishes it,
//! and drives the serving layer with growing numbers of concurrent
//! closed-loop clients (each blocks on its reply before its next
//! request, no think time) walking the full query mix (all five kinds
//! over every household). Each sweep point reports throughput, p50/p99
//! latency in µs — a cache hit is under a microsecond — and the typed
//! rejection rate: shedding shows up as `Overloaded` rejections and
//! deadline misses, never as silent drops. Later sweep points run warm
//! against the per-epoch cache, exactly as a production server would
//! between publishes.

use std::sync::Arc;

use smda_core::SIMILARITY_TOP_K;
use smda_ingest::{
    fit_detectors, replay_events, run_pipeline, IngestConfig, ReplayConfig, SnapshotHandle,
};
use smda_serve::{run_load_sweep, LoadConfig, ServeConfig, Server};
use smda_types::{ConsumerId, Dataset, Query, QueryKind};

use crate::data::seed_dataset;
use crate::report::Table;
use crate::scale::Scale;

/// Concurrent client counts swept.
pub const CONCURRENCY: [usize; 4] = [1, 2, 4, 8];

/// Queries each client submits per sweep point.
pub const PER_CLIENT: usize = 64;

/// The concrete [`Query`] for one kind against one household.
pub(crate) fn query_of(kind: QueryKind, consumer: ConsumerId) -> Query {
    match kind {
        QueryKind::TopKSimilar => Query::TopKSimilar {
            consumer,
            k: SIMILARITY_TOP_K,
        },
        QueryKind::Histogram => Query::Histogram { consumer },
        QueryKind::ThreeLineFeatures => Query::ThreeLineFeatures { consumer },
        QueryKind::ParCoefficients => Query::ParCoefficients { consumer },
        QueryKind::AnomalyStatus => Query::AnomalyStatus { consumer },
    }
}

/// Every query kind against every household — the sweep's work mix.
pub(crate) fn query_mix(ds: &Dataset) -> Vec<Query> {
    ds.consumers()
        .iter()
        .flat_map(|c| QueryKind::ALL.iter().map(move |&kind| query_of(kind, c.id)))
        .collect()
}

/// Seal `ds` through the streaming pipeline (with anomaly detectors
/// fitted on the data itself), publish the sealed year, and start a
/// server over it. The handle is returned alongside so callers can pin
/// the published world directly.
pub(crate) fn start_server(ds: &Dataset, config: ServeConfig) -> (Server, Arc<SnapshotHandle>) {
    let handle = Arc::new(SnapshotHandle::new());
    let cfg = IngestConfig::new()
        .with_detectors(Arc::new(fit_detectors(ds)))
        .with_publish(handle.clone());
    let events = replay_events(
        ds,
        &ReplayConfig {
            jitter_hours: 0,
            seed: 2014,
        },
    );
    run_pipeline(events, &cfg).expect("seeded year seals cleanly");
    (Server::start(handle.clone(), config), handle)
}

/// Sweep concurrent client counts against one published snapshot.
pub fn run(scale: Scale) -> Vec<Table> {
    let ds = seed_dataset(scale.consumers_for_households(1_000));
    let (server, _handle) = start_server(&ds, ServeConfig::default());
    let mix = query_mix(&ds);
    let mut t = Table::new(
        "serve_sweep",
        "Online serving: load sweep over concurrent clients",
        &[
            "clients",
            "submitted",
            "answered",
            "rejected",
            "rejection_rate",
            "deadline_missed",
            "qps",
            "p50_us",
            "p99_us",
        ],
    );
    for concurrency in CONCURRENCY {
        let point = run_load_sweep(
            &server,
            &mix,
            &LoadConfig {
                concurrency,
                per_client: PER_CLIENT,
                ..LoadConfig::default()
            },
        );
        t.row(vec![
            concurrency.to_string(),
            point.submitted.to_string(),
            point.answered.to_string(),
            point.rejected.to_string(),
            format!("{:.4}", point.rejection_rate()),
            point.deadline_missed.to_string(),
            format!("{:.1}", point.qps),
            format!("{:.2}", point.p50.as_secs_f64() * 1e6),
            format!("{:.2}", point.p99.as_secs_f64() * 1e6),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_one_row_per_concurrency_level() {
        let tables = run(Scale::smoke());
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), CONCURRENCY.len());
        for row in &tables[0].rows {
            let submitted: usize = row[1].parse().expect("submitted is numeric");
            let answered: usize = row[2].parse().expect("answered is numeric");
            assert!(answered <= submitted);
            assert!(answered > 0, "an unloaded server answers");
        }
    }
}
