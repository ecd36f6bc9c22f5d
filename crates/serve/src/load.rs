//! Closed-loop load generation for the `serve` bench experiment.
//!
//! A sweep point runs `concurrency` client threads against a live
//! [`Server`]; each client submits its share of the query mix and
//! blocks on [`Ticket::wait`](super::Ticket::wait) before its next
//! submission, with an optional pacing gap after each reply. A closed
//! loop: the offered load is whatever the clients' round trips allow,
//! so a slower server receives fewer requests — it shows as lower QPS
//! and longer latencies, and as typed `Overloaded` rejections only
//! when `concurrency` exceeds the server's `queue_depth`.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use smda_types::Query;

use crate::server::{ServeError, Server};

/// One sweep point's client behavior.
#[derive(Clone)]
pub struct LoadConfig {
    /// Concurrent client threads.
    pub concurrency: usize,
    /// Queries each client submits.
    pub per_client: usize,
    /// Deadline attached to every query.
    pub deadline: Duration,
    /// Gap between a client's reply and its next submission (zero =
    /// back-to-back).
    pub pacing: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            concurrency: 4,
            per_client: 64,
            deadline: Duration::from_secs(5),
            pacing: Duration::ZERO,
        }
    }
}

/// What one sweep point measured.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Client threads that generated the load.
    pub concurrency: usize,
    /// Queries the clients attempted to submit.
    pub submitted: usize,
    /// Queries answered successfully.
    pub answered: usize,
    /// Queries rejected at admission (`queue_depth` already in flight).
    pub rejected: usize,
    /// Queries that missed their deadline.
    pub deadline_missed: usize,
    /// Queries that failed for any other typed reason.
    pub failed: usize,
    /// Wall clock of the whole sweep point.
    pub wall: Duration,
    /// Answered queries per second of wall clock.
    pub qps: f64,
    /// Median latency of answered queries (submit → resolution).
    pub p50: Duration,
    /// 99th-percentile latency of answered queries.
    pub p99: Duration,
}

impl SweepPoint {
    /// Rejected submissions as a fraction of attempts.
    pub fn rejection_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.rejected as f64 / self.submitted as f64
        }
    }
}

/// `sorted[p]` by nearest-rank; zero on an empty sample.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Run one sweep point: every client walks the query mix round-robin
/// from its own offset, so the mix is served evenly at any thread
/// count.
pub fn run_load_sweep(server: &Server, queries: &[Query], cfg: &LoadConfig) -> SweepPoint {
    assert!(!queries.is_empty(), "load sweep needs a query mix");
    let latencies: Mutex<Vec<Duration>> = Mutex::new(Vec::new());
    let rejected = Mutex::new(0usize);
    let deadline_missed = Mutex::new(0usize);
    let failed = Mutex::new(0usize);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..cfg.concurrency {
            let latencies = &latencies;
            let rejected = &rejected;
            let deadline_missed = &deadline_missed;
            let failed = &failed;
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(cfg.per_client);
                let (mut r, mut d, mut f) = (0usize, 0usize, 0usize);
                for i in 0..cfg.per_client {
                    let query = queries[(client + i * cfg.concurrency) % queries.len()];
                    let begin = Instant::now();
                    match server
                        .submit_with_deadline(query, cfg.deadline)
                        .and_then(super::Ticket::wait)
                    {
                        Ok(_) => mine.push(begin.elapsed()),
                        Err(ServeError::Overloaded { .. }) => r += 1,
                        Err(ServeError::DeadlineExceeded { .. }) => d += 1,
                        Err(_) => f += 1,
                    }
                    if !cfg.pacing.is_zero() {
                        // Timed wait: the load generator's pacing.
                        std::thread::sleep(cfg.pacing);
                    }
                }
                latencies
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .extend(mine);
                *rejected
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) += r;
                *deadline_missed
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) += d;
                *failed
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) += f;
            });
        }
    });
    let wall = start.elapsed();
    let mut latencies = latencies.into_inner().unwrap_or_else(|e| e.into_inner());
    latencies.sort_unstable();
    let answered = latencies.len();
    SweepPoint {
        concurrency: cfg.concurrency,
        submitted: cfg.concurrency * cfg.per_client,
        answered,
        rejected: rejected.into_inner().unwrap_or_else(|e| e.into_inner()),
        deadline_missed: deadline_missed
            .into_inner()
            .unwrap_or_else(|e| e.into_inner()),
        failed: failed.into_inner().unwrap_or_else(|e| e.into_inner()),
        qps: if wall.as_secs_f64() > 0.0 {
            answered as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let sample: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&sample, 0.50), Duration::from_millis(51));
        assert_eq!(percentile(&sample, 0.99), Duration::from_millis(99));
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
        assert_eq!(
            percentile(&[Duration::from_millis(7)], 0.99),
            Duration::from_millis(7)
        );
    }
}
