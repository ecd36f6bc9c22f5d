//! Query execution against a pinned [`LiveSnapshot`].
//!
//! Each function here answers one query from the sealed data alone — no
//! locks, no shared mutable state — so any number of workers can execute
//! against the same pinned snapshot concurrently. Results are built
//! through the same kernels ([`top_k_query`]) and the same per-consumer
//! kernel ([`ConsumerTask`]) as the offline batch path, and the typed
//! conversions in `smda_core::queries` carry every float verbatim:
//! a served answer is `to_bits`-identical to the batch answer for the
//! same data.

use smda_core::queries::{anomaly_result, histogram_result, par_result, three_line_result};
use smda_core::tasks::ConsumerResult;
use smda_core::{ConsumerTask, Task};
use smda_ingest::{LiveSnapshot, Snapshot};
use smda_stats::{top_k_query, with_fit_scratch};
use smda_types::{ConsumerId, Query, QueryResult};

use crate::server::ServeError;

/// Answer `query` from the pinned world.
///
/// # Errors
/// [`ServeError::UnknownConsumer`] when the household is not in the
/// snapshot; [`ServeError::NoModel`] when a degenerate series has no
/// three-line fit.
pub fn execute(live: &LiveSnapshot, query: &Query) -> Result<QueryResult, ServeError> {
    let snap = live.snapshot();
    match *query {
        Query::TopKSimilar { consumer, k } => {
            let row = row_of(snap, consumer)?;
            let hits = top_k_query(snap.matrix(), row, k);
            Ok(QueryResult::TopKSimilar {
                consumer,
                matches: hits
                    .into_iter()
                    .map(|h| (snap.stats()[h.index].0, h.score))
                    .collect(),
            })
        }
        Query::Histogram { consumer } => {
            let row = row_of(snap, consumer)?;
            Ok(histogram_result(&snap.histograms()[row]))
        }
        Query::ThreeLineFeatures { consumer } => per_consumer(snap, consumer, Task::ThreeLine),
        Query::ParCoefficients { consumer } => per_consumer(snap, consumer, Task::Par),
        Query::AnomalyStatus { consumer } => {
            row_of(snap, consumer)?;
            Ok(anomaly_result(consumer, live.alerts()))
        }
    }
}

/// Matrix/stats/histogram row of `consumer` — everything in a snapshot
/// is in ascending consumer-id order, so one binary search serves all.
fn row_of(snap: &Snapshot, consumer: ConsumerId) -> Result<usize, ServeError> {
    snap.stats()
        .binary_search_by_key(&consumer, |(id, _)| *id)
        .map_err(|_| ServeError::UnknownConsumer(consumer))
}

/// Run one per-consumer fit on the sealed series, exactly as a batch
/// worker would — minus the doors: a sealed series and its temperature
/// year are valid by construction, and their types say so.
fn per_consumer(
    snap: &Snapshot,
    consumer: ConsumerId,
    task: Task,
) -> Result<QueryResult, ServeError> {
    let row = row_of(snap, consumer)?;
    let series = &snap.dataset().consumers()[row];
    let kernel = ConsumerTask::over(task, snap.dataset().temperature());
    match with_fit_scratch(|scratch| kernel.run_series(series, scratch)) {
        Some(ConsumerResult::Histogram(h)) => Ok(histogram_result(&h)),
        Some(ConsumerResult::ThreeLine(m)) => Ok(three_line_result(&m)),
        Some(ConsumerResult::Par(m)) => Ok(par_result(&m)),
        None => Err(ServeError::NoModel(consumer)),
    }
}
