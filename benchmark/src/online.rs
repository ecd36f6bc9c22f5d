//! Group `online`: stream → snapshot → file → query.
//!
//! A jittered (6 h), out-of-order replay of every consumer-year goes
//! through `run_pipeline` (one shard, detectors fitted, snapshot
//! published); the sealed year is written packed with
//! `Snapshot::write_smc`; then a **closed loop** of two clients — no
//! think time, each blocks on `Ticket::wait` before its next request —
//! queries a `Server` with one worker. Consumers are drawn Zipf(1.0),
//! kinds uniform over the five `QueryKind`s; the result cache holds
//! every distinct query in workload `resident` and about two thirds of
//! them in `spilling`, where it fills and drops inserts. This is the one
//! group where `ingest` and `serve` (queue, epoch pin, `EpochCache`,
//! ticket wake) do the work; it writes the format the other groups
//! read, and its uncached top-k is the bandwidth-bound use of `stats`
//! again.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smda_core::AnomalyDetector;
use smda_ingest::{
    fit_detectors, replay_events, run_pipeline, IngestConfig, ReplayConfig, SnapshotHandle,
};
use smda_obs::{counters, MetricsSink, RunManifest};
use smda_serve::{execute, ServeConfig, ServeError, Server, Ticket};
use smda_storage::{BinaryEncoding, BinaryStore};
use smda_types::HOURS_PER_YEAR;
use smda_types::{ConsumerId, Dataset, Error, Query, QueryKind, QueryResult, Reading, Result};

use crate::catalog::{Sizes, THREADS};
use crate::data;
use crate::harness::{Ctx, Group, Lap, Tally};
use crate::rng::{query_mix, sub_seed};
use crate::stats::{median, percentile};
use crate::trace::BENCH_LAYER;

/// Event-time jitter of the replay, hours; inside the pipeline's 24 h
/// allowed lateness, so no reading is late.
const JITTER_HOURS: u32 = 6;

/// Closed-loop clients of the serve phase: two against the one worker,
/// so a request is always waiting when the worker finishes one and the
/// dispatcher never sleeps between batches; never more than the worker
/// and one client are runnable at once.
const CLIENTS: usize = 2;

type Reply = std::result::Result<Arc<QueryResult>, ServeError>;

/// Per-request latencies of every answered request, ms — pooled over
/// rounds for the one percentile a single round cannot support.
pub const LATENCY_MS: &str = "serve.latency_ms";

pub struct Online {
    data: Dataset,
    detectors: Arc<HashMap<ConsumerId, AnomalyDetector>>,
    events: Vec<Reading>,
    queries: Vec<Query>,
    /// Per query: a top-k query seen for the first time in the stream.
    first_topk: Vec<bool>,
    cache_capacity: usize,
    smc: PathBuf,
    /// Per round: the ingest report says every reading arrived once and
    /// the sealed snapshot equals the replayed dataset.
    sealed_ok: Vec<bool>,
    replies: Vec<(usize, Reply)>,
    handle: Option<Arc<SnapshotHandle>>,
}

impl Online {
    pub fn setup(sizes: &Sizes, seed: u64, dir: &Path) -> Result<Online> {
        let data = data::dataset(sizes.online_n, sub_seed(seed, "online"))?;
        let events = replay_events(
            &data,
            &ReplayConfig {
                jitter_hours: JITTER_HOURS,
                seed: sub_seed(seed, "replay"),
            },
        );
        let queries = query_mix(
            sizes.online_n,
            sizes.serve_queries,
            sub_seed(seed, "queries"),
        );
        let mut seen = HashSet::new();
        let first_topk = queries
            .iter()
            .map(|q| seen.insert(*q) && q.kind() == QueryKind::TopKSimilar)
            .collect();
        Ok(Online {
            detectors: Arc::new(fit_detectors(&data)),
            data,
            events,
            queries,
            first_topk,
            cache_capacity: sizes.serve_cache,
            smc: dir.join("sealed.smc"),
            sealed_ok: Vec::new(),
            replies: Vec::new(),
            handle: None,
        })
    }

    fn serve(&mut self, ctx: &Ctx, handle: Arc<SnapshotHandle>, parent: u32, lap: &mut Lap) {
        let sink = MetricsSink::recording();
        let server = Server::start(
            handle,
            ServeConfig {
                workers: THREADS,
                cache_capacity: self.cache_capacity,
                metrics: sink.clone(),
                ..ServeConfig::default()
            },
        );
        let (queries, tracer) = (&self.queries, &ctx.tracer);
        let start = Instant::now();
        let per_client: Vec<Vec<(usize, Duration, Reply)>> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let server = &server;
                    scope.spawn(move || {
                        let mut mine = Vec::with_capacity(queries.len() / CLIENTS + 1);
                        for i in (client..queries.len()).step_by(CLIENTS) {
                            let sent = Instant::now();
                            let reply = {
                                let _span = tracer.span("query", "serve", parent);
                                server.submit(queries[i]).and_then(Ticket::wait)
                            };
                            mine.push((i, sent.elapsed(), reply));
                        }
                        mine
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("serve client panicked"))
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        drop(server);
        // Top-k requests that were the first of their query this round
        // are certain cache misses: one latency mode, reported alone.
        let (mut all_ms, mut topk_miss_ms) = (Vec::new(), Vec::new());
        for (i, latency, reply) in per_client.into_iter().flatten() {
            if reply.is_ok() {
                let ms = latency.as_secs_f64() * 1e3;
                lap.push(LATENCY_MS, ms);
                all_ms.push(ms);
                if self.first_topk[i] {
                    topk_miss_ms.push(ms);
                }
            }
            self.replies.push((i, reply));
        }
        lap.push("serve_qps", all_ms.len() as f64 / wall);
        all_ms.sort_by(f64::total_cmp);
        lap.push("serve.p99_ms", percentile(&all_ms, 99.0));
        lap.push("serve_topk_p50_ms", median(&topk_miss_ms));
        let report = sink.finish(RunManifest::new("serve", "benchmark"));
        let count = |name: &str| report.counter(name).unwrap_or(0) as f64;
        let admitted = count(counters::SERVE_ADMITTED);
        lap.push(
            "serve.hit_ratio",
            count(counters::SERVE_CACHE_HITS) / admitted.max(1.0),
        );
        lap.push("serve.rejected", count(counters::SERVE_REJECTED_OVERLOAD));
        lap.push(
            "serve.deadline_misses",
            count(counters::SERVE_DEADLINE_MISSES),
        );
    }
}

impl Group for Online {
    fn round_key(&self) -> &'static str {
        "round_s.online"
    }

    fn round(&mut self, ctx: &Ctx, _traced: bool, parent: u32, lap: &mut Lap) -> Result<()> {
        let handle = Arc::new(SnapshotHandle::new());
        let config = IngestConfig::new()
            .with_shards(THREADS)
            .with_detectors(self.detectors.clone())
            .with_publish(handle.clone());
        let start = Instant::now();
        let outcome = {
            let _span = ctx.tracer.span("run_pipeline", "ingest", parent);
            run_pipeline(self.events.iter().copied(), &config)?
        };
        let ingest_s = start.elapsed().as_secs_f64();
        let report = &outcome.report;
        lap.push(
            "ingest_readings_per_s",
            report.readings_in as f64 / ingest_s,
        );
        lap.push(
            "ingest.backpressure_stalls",
            report.backpressure_stalls as f64,
        );
        lap.push(
            "ingest.watermark_lag_hours",
            report.watermark_lag_hours as f64,
        );
        let readings = (self.data.len() * HOURS_PER_YEAR) as u64;
        self.sealed_ok.push(
            report.readings_in == readings
                && report.readings_late + report.readings_duplicate + report.readings_missing == 0
                && report.consumers_sealed == self.data.len() as u64
                && data::dataset_bits_eq(outcome.snapshot.dataset(), &self.data),
        );

        let bytes = lap.time("seal_smc_s", || {
            // `write_smc` belongs to ingest, but its time is the
            // format's writer encoding and writing blocks.
            let _span = ctx.tracer.span("Snapshot::write_smc", "format", parent);
            outcome
                .snapshot
                .write_smc(&self.smc, BinaryEncoding::Packed)
        })?;
        lap.push("sealed_bytes_per_reading", bytes as f64 / readings as f64);

        let span = ctx.tracer.span("serve_loop", BENCH_LAYER, parent);
        self.serve(ctx, handle.clone(), span.id(), lap);
        self.handle = Some(handle);
        Ok(())
    }

    /// Every round sealed the replayed dataset; the written `.smc`
    /// re-opens, passes `verify()` and reads back the same bits; and
    /// every reply of every round equals the direct `execute` answer.
    /// Rejections, deadline misses and typed errors count as failures.
    fn verify(&self, tally: &mut Tally) -> Result<()> {
        for ok in &self.sealed_ok {
            tally.check(*ok, || {
                "sealed snapshot differs from the replayed dataset".into()
            });
        }
        let store = BinaryStore::open(&self.smc)?;
        let reread =
            store.verify().is_ok() && data::dataset_bits_eq(&store.read_all()?, &self.data);
        tally.check(reread, || {
            "the sealed .smc does not read back the dataset".into()
        });

        let live = self
            .handle
            .as_ref()
            .and_then(|h| h.pin())
            .ok_or_else(|| Error::Invalid("no snapshot was published".into()))?;
        let mut direct: HashMap<Query, Reply> = HashMap::new();
        for (i, reply) in &self.replies {
            let query = self.queries[*i];
            let want = direct
                .entry(query)
                .or_insert_with(|| execute(&live, &query).map(Arc::new));
            let ok = match (reply, &*want) {
                (Ok(got), Ok(want)) => got.bits_eq(want),
                _ => false,
            };
            tally.check(ok, || match reply {
                Ok(_) => format!("reply to `{query}` differs from the direct answer"),
                Err(e) => format!("`{query}` failed: {e}"),
            });
        }
        Ok(())
    }
}
