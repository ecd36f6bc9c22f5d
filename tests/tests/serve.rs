//! End-to-end serving: the online layer's core claims.
//!
//! Every answer served from a live snapshot must be bit-identical to
//! the offline batch answer for the same data; concurrent queries
//! racing epoch swaps must never observe a torn world; cached answers
//! must die with their epoch; and load shedding must be typed, never
//! silent.

use std::sync::Arc;
use std::time::Duration;

use smda_core::queries::{anomaly_result, lookup};
use smda_core::tasks::run_reference;
use smda_core::{Task, SIMILARITY_TOP_K};
use smda_ingest::{replay_events, run_pipeline, IngestConfig, ReplayConfig, SnapshotHandle};
use smda_integration::fixture_dataset;
use smda_obs::{counters, MetricsSink, RunManifest};
use smda_serve::{run_load_sweep, LoadConfig, ServeConfig, ServeError, Server};
use smda_types::{ConsumerId, ConsumerSeries, Dataset, Query, QueryResult, HOURS_PER_YEAR};

/// Seal `ds` through the streaming pipeline (in-order replay, nothing
/// dropped) and return its snapshot and alerts, ready to publish.
fn seal(ds: &Dataset) -> (Arc<smda_ingest::Snapshot>, Arc<Vec<smda_core::Alert>>) {
    let events = replay_events(
        ds,
        &ReplayConfig {
            jitter_hours: 0,
            seed: 11,
        },
    );
    let out = run_pipeline(events, &IngestConfig::new().with_shards(2)).expect("pipeline seals");
    (out.snapshot, Arc::new(out.alerts))
}

/// Strict equality, down to the bits of every floating-point value.
fn assert_bits_eq(served: &QueryResult, batch: &QueryResult, context: &str) {
    assert!(
        bits_eq(served, batch),
        "{context}: served answer diverges from batch\nserved: {served:?}\nbatch:  {batch:?}"
    );
}

/// `to_bits` equality across every float field; structural equality for
/// the rest.
fn bits_eq(a: &QueryResult, b: &QueryResult) -> bool {
    use QueryResult::*;
    match (a, b) {
        (
            TopKSimilar {
                consumer: ca,
                matches: ma,
            },
            TopKSimilar {
                consumer: cb,
                matches: mb,
            },
        ) => {
            ca == cb
                && ma.len() == mb.len()
                && ma
                    .iter()
                    .zip(mb)
                    .all(|((xi, xs), (yi, ys))| xi == yi && xs.to_bits() == ys.to_bits())
        }
        (
            Histogram {
                consumer: ca,
                min: mina,
                max: maxa,
                counts: na,
            },
            Histogram {
                consumer: cb,
                min: minb,
                max: maxb,
                counts: nb,
            },
        ) => {
            ca == cb
                && mina.to_bits() == minb.to_bits()
                && maxa.to_bits() == maxb.to_bits()
                && na == nb
        }
        (
            ThreeLineFeatures {
                consumer: ca,
                heating_gradient: ha,
                cooling_gradient: coola,
                base_load: ba,
            },
            ThreeLineFeatures {
                consumer: cb,
                heating_gradient: hb,
                cooling_gradient: coolb,
                base_load: bb,
            },
        ) => {
            ca == cb
                && ha.to_bits() == hb.to_bits()
                && coola.to_bits() == coolb.to_bits()
                && ba.to_bits() == bb.to_bits()
        }
        (
            ParCoefficients {
                consumer: ca,
                profile: pa,
                peak_hour: peaka,
                daily_total: ta,
            },
            ParCoefficients {
                consumer: cb,
                profile: pb,
                peak_hour: peakb,
                daily_total: tb,
            },
        ) => {
            ca == cb
                && peaka == peakb
                && ta.to_bits() == tb.to_bits()
                && pa.len() == pb.len()
                && pa.iter().zip(pb).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        (
            AnomalyStatus {
                consumer: ca,
                alerts: aa,
                last_hour: la,
                max_sigmas: sa,
            },
            AnomalyStatus {
                consumer: cb,
                alerts: ab,
                last_hour: lb,
                max_sigmas: sb,
            },
        ) => ca == cb && aa == ab && la == lb && sa.to_bits() == sb.to_bits(),
        _ => false,
    }
}

#[test]
fn served_answers_are_bit_identical_to_batch_for_all_five_query_types() {
    let ds = fixture_dataset(8);
    let (snapshot, alerts) = seal(&ds);
    let handle = Arc::new(SnapshotHandle::new());
    handle.publish(snapshot, HOURS_PER_YEAR as u32, alerts.clone());
    let server = Server::start(handle, ServeConfig::default());

    let sim = run_reference(Task::Similarity, &ds);
    let hist = run_reference(Task::Histogram, &ds);
    let three = run_reference(Task::ThreeLine, &ds);
    let par = run_reference(Task::Par, &ds);

    for c in ds.consumers() {
        let id = c.id;
        for (tag, query, batch) in [
            (
                "top-k",
                Query::TopKSimilar {
                    consumer: id,
                    k: SIMILARITY_TOP_K,
                },
                lookup(
                    &sim,
                    &Query::TopKSimilar {
                        consumer: id,
                        k: SIMILARITY_TOP_K,
                    },
                ),
            ),
            (
                "histogram",
                Query::Histogram { consumer: id },
                lookup(&hist, &Query::Histogram { consumer: id }),
            ),
            (
                "three-line",
                Query::ThreeLineFeatures { consumer: id },
                lookup(&three, &Query::ThreeLineFeatures { consumer: id }),
            ),
            (
                "par",
                Query::ParCoefficients { consumer: id },
                lookup(&par, &Query::ParCoefficients { consumer: id }),
            ),
            (
                "anomaly",
                Query::AnomalyStatus { consumer: id },
                Some(anomaly_result(id, &alerts)),
            ),
        ] {
            let batch = batch.unwrap_or_else(|| panic!("batch output has {tag} for {id}"));
            let served = server
                .query(query)
                .unwrap_or_else(|e| panic!("{tag} for {id} serves: {e}"));
            assert_bits_eq(&served, &batch, &format!("{tag} for {id}"));
        }
    }
}

#[test]
fn concurrent_queries_during_swaps_never_observe_a_torn_world() {
    // Two distinguishable worlds that share consumer 0: A has 6
    // households (5 possible neighbours), B has 9 (8 neighbours).
    let world_a = fixture_dataset(6);
    let world_b = fixture_dataset(9);
    let (snap_a, alerts_a) = seal(&world_a);
    let (snap_b, alerts_b) = seal(&world_b);
    let q = Query::TopKSimilar {
        consumer: ConsumerId(0),
        k: SIMILARITY_TOP_K,
    };
    let ans_a = lookup(&run_reference(Task::Similarity, &world_a), &q).expect("A has consumer 0");
    let ans_b = lookup(&run_reference(Task::Similarity, &world_b), &q).expect("B has consumer 0");

    let handle = Arc::new(SnapshotHandle::new());
    // Odd epochs are world A, even epochs world B — parity lets a
    // reader cross-check the epoch against the data it pinned.
    handle.publish(snap_a.clone(), HOURS_PER_YEAR as u32, alerts_a.clone());
    let server = Server::start(handle.clone(), ServeConfig::default());

    std::thread::scope(|scope| {
        let publisher = {
            let handle = handle.clone();
            let (snap_a, alerts_a) = (snap_a.clone(), alerts_a.clone());
            let (snap_b, alerts_b) = (snap_b.clone(), alerts_b.clone());
            scope.spawn(move || {
                for _ in 0..30 {
                    handle.publish(snap_b.clone(), HOURS_PER_YEAR as u32, alerts_b.clone());
                    handle.publish(snap_a.clone(), HOURS_PER_YEAR as u32, alerts_a.clone());
                }
            })
        };
        for _client in 0..3 {
            let server = &server;
            let handle = &handle;
            let (ans_a, ans_b) = (&ans_a, &ans_b);
            scope.spawn(move || {
                for i in 0..60 {
                    // Every served answer must be exactly one world's
                    // batch answer — never a mixture.
                    let served = server.query(q).expect("query serves during swaps");
                    let matched = bits_eq(&served, ans_a) || bits_eq(&served, ans_b);
                    assert!(matched, "iteration {i}: torn or foreign answer: {served:?}");
                    // A pinned live snapshot must be internally
                    // consistent: epoch parity determines the world.
                    let live = handle.pin().expect("published");
                    let consumers = live.snapshot().dataset().consumers().len();
                    let expect = if live.epoch() % 2 == 1 { 6 } else { 9 };
                    assert_eq!(
                        consumers,
                        expect,
                        "epoch {} paired with the wrong world",
                        live.epoch()
                    );
                }
            });
        }
        publisher.join().expect("publisher thread");
    });
    assert_eq!(server.epoch(), 61, "1 initial + 60 swap publishes");
}

#[test]
fn cache_entries_from_one_epoch_are_never_served_at_the_next() {
    let world_1 = fixture_dataset(4);
    // Same households, doubled consumption: every histogram edge moves.
    let world_2 = Dataset::new(
        world_1
            .consumers()
            .iter()
            .map(|c| {
                ConsumerSeries::new(c.id, c.readings().iter().map(|x| x * 2.0).collect())
                    .expect("scaled readings are valid")
            })
            .collect(),
        world_1.temperature().clone(),
    )
    .expect("ids unchanged");
    let (snap_1, alerts_1) = seal(&world_1);
    let (snap_2, alerts_2) = seal(&world_2);
    let q = Query::Histogram {
        consumer: ConsumerId(3),
    };
    let batch_1 = lookup(&run_reference(Task::Histogram, &world_1), &q).expect("world 1 answer");
    let batch_2 = lookup(&run_reference(Task::Histogram, &world_2), &q).expect("world 2 answer");
    assert!(
        !bits_eq(&batch_1, &batch_2),
        "worlds must be distinguishable"
    );

    let sink = MetricsSink::recording();
    let handle = Arc::new(SnapshotHandle::new());
    let server = Server::start(
        handle.clone(),
        ServeConfig {
            metrics: sink.clone(),
            ..ServeConfig::default()
        },
    );

    handle.publish(snap_1, HOURS_PER_YEAR as u32, alerts_1);
    let first = server.query(q).expect("epoch 1 serves");
    assert_bits_eq(&first, &batch_1, "epoch 1, computed");
    let again = server.query(q).expect("epoch 1 serves from cache");
    assert_bits_eq(&again, &batch_1, "epoch 1, cached");

    handle.publish(snap_2, HOURS_PER_YEAR as u32, alerts_2);
    let after_swap = server.query(q).expect("epoch 2 serves");
    assert_bits_eq(
        &after_swap,
        &batch_2,
        "epoch 2 must not reuse epoch 1's cache",
    );

    drop(server);
    let report = sink.finish(RunManifest::new("serve", "test"));
    assert!(
        report.counter(counters::SERVE_CACHE_HITS).unwrap_or(0) >= 1,
        "the repeated epoch-1 query must hit the cache"
    );
    assert!(
        report
            .counter(counters::SERVE_CACHE_INVALIDATIONS)
            .unwrap_or(0)
            >= 1,
        "the epoch swap must invalidate the cached generation"
    );
}

#[test]
fn rejections_are_typed_not_silent() {
    let q = Query::Histogram {
        consumer: ConsumerId(0),
    };

    // Before any publish: a typed NoSnapshot, not a hang or a panic.
    let empty = Server::start(Arc::new(SnapshotHandle::new()), ServeConfig::default());
    assert_eq!(empty.query(q), Err(ServeError::NoSnapshot));
    drop(empty);

    let ds = fixture_dataset(3);
    let (snapshot, alerts) = seal(&ds);
    let handle = Arc::new(SnapshotHandle::new());
    handle.publish(snapshot, HOURS_PER_YEAR as u32, alerts);

    // Admission control: a zero-depth queue sheds every submission.
    let shedding = Server::start(
        handle.clone(),
        ServeConfig {
            queue_depth: 0,
            ..ServeConfig::default()
        },
    );
    match shedding.submit(q) {
        Err(ServeError::Overloaded { depth: 0 }) => {}
        Err(other) => panic!("expected a typed overload, got {other:?}"),
        Ok(_) => panic!("a zero-depth queue must not admit"),
    }
    drop(shedding);

    let server = Server::start(handle, ServeConfig::default());
    // An already-expired deadline resolves to a typed rejection that
    // names the query.
    let late = server
        .submit_with_deadline(q, Duration::ZERO)
        .expect("admission succeeds")
        .wait();
    assert_eq!(late, Err(ServeError::DeadlineExceeded { query: q }));
    // A household the snapshot has never seen.
    let unknown = server.query(Query::ThreeLineFeatures {
        consumer: ConsumerId(999),
    });
    assert_eq!(unknown, Err(ServeError::UnknownConsumer(ConsumerId(999))));
}

#[test]
fn load_sweep_reports_latencies_and_counters_flow_to_the_export() {
    let ds = fixture_dataset(5);
    let (snapshot, alerts) = seal(&ds);
    let handle = Arc::new(SnapshotHandle::new());
    handle.publish(snapshot, HOURS_PER_YEAR as u32, alerts);
    let sink = MetricsSink::recording();
    let server = Server::start(
        handle,
        ServeConfig {
            metrics: sink.clone(),
            ..ServeConfig::default()
        },
    );

    let mix: Vec<Query> = ds
        .consumers()
        .iter()
        .flat_map(|c| {
            [
                Query::Histogram { consumer: c.id },
                Query::TopKSimilar {
                    consumer: c.id,
                    k: 3,
                },
                Query::AnomalyStatus { consumer: c.id },
            ]
        })
        .collect();
    let cfg = LoadConfig {
        concurrency: 3,
        per_client: 20,
        ..LoadConfig::default()
    };
    let point = run_load_sweep(&server, &mix, &cfg);
    assert_eq!(point.submitted, 60);
    assert_eq!(
        point.answered + point.rejected + point.deadline_missed + point.failed,
        point.submitted,
        "every submission must be accounted for"
    );
    assert!(point.answered > 0, "an unloaded server answers");
    assert!(point.p50 <= point.p99, "percentiles are ordered");
    assert!(point.qps > 0.0);

    drop(server);
    let report = sink.finish(RunManifest::new("serve", "test"));
    assert!(
        report.counter(counters::SERVE_ADMITTED).unwrap_or(0) >= point.answered as u64,
        "admissions flow into the export"
    );
    let by_kind: u64 = ["top_k_similar", "histogram", "anomaly"]
        .iter()
        .filter_map(|k| report.counter(&format!("{}.{k}", counters::SERVE_ANSWERED)))
        .sum();
    assert_eq!(
        by_kind, point.answered as u64,
        "per-kind answered counters sum to the sweep's answered total"
    );
}

#[test]
fn queue_depth_bounds_tickets_admitted_but_not_yet_answered() {
    let ds = fixture_dataset(3);
    let (snapshot, alerts) = seal(&ds);
    let handle = Arc::new(SnapshotHandle::new());
    handle.publish(snapshot, HOURS_PER_YEAR as u32, alerts);
    let depth = 3;
    let sink = MetricsSink::recording();
    let server = Server::start(
        handle,
        ServeConfig {
            queue_depth: depth,
            metrics: sink.clone(),
            ..ServeConfig::default()
        },
    );
    let q = Query::Histogram {
        consumer: ConsumerId(0),
    };

    // Held, un-waited tickets are in flight — resolved or not.
    let mut held: Vec<_> = (0..depth)
        .map(|i| {
            server
                .submit(q)
                .unwrap_or_else(|e| panic!("ticket {i} of {depth} is admitted: {e}"))
        })
        .collect();
    let bounces =
        || matches!(server.submit(q), Err(ServeError::Overloaded { depth: d }) if d == depth);
    assert!(
        bounces(),
        "submission {} must bounce off the depth",
        depth + 1
    );

    // Dropping one un-waited ticket gives its place back...
    drop(held.pop());
    held.push(server.submit(q).expect("a dropped ticket admits the next"));
    assert!(bounces(), "the depth is full again");
    // ...and so does waiting one.
    held.pop()
        .expect("depth tickets held")
        .wait()
        .expect("a held ticket still resolves");
    server.query(q).expect("a waited ticket admits the next");
    drop(held);

    drop(server);
    let report = sink.finish(RunManifest::new("serve", "test"));
    assert_eq!(report.counter(counters::SERVE_ADMITTED), Some(5));
    assert_eq!(report.counter(counters::SERVE_REJECTED_OVERLOAD), Some(2));
}

#[test]
fn one_worker_executes_a_query_asked_eight_times_at_once_exactly_once() {
    let ds = fixture_dataset(4);
    let (snapshot, alerts) = seal(&ds);
    let handle = Arc::new(SnapshotHandle::new());
    handle.publish(snapshot, HOURS_PER_YEAR as u32, alerts);
    let sink = MetricsSink::recording();
    let server = Server::start(
        handle,
        ServeConfig {
            workers: 1,
            metrics: sink.clone(),
            ..ServeConfig::default()
        },
    );
    let q = Query::ParCoefficients {
        consumer: ConsumerId(3),
    };
    let batch = lookup(&run_reference(Task::Par, &ds), &q).expect("batch has the PAR model");

    const CLIENTS: usize = 8;
    let together = std::sync::Barrier::new(CLIENTS);
    let answers: Vec<Arc<QueryResult>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    together.wait();
                    server.query(q).expect("an uncached query serves")
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    for (i, answer) in answers.iter().enumerate() {
        assert_bits_eq(answer, &batch, &format!("client {i}"));
    }

    drop(server);
    let report = sink.finish(RunManifest::new("serve", "test"));
    // Whoever held the permit first computed it; the other seven found
    // it in the cache, at submit or under the permit.
    assert_eq!(
        report.counter(&format!("{}.par", counters::SERVE_EXECUTED)),
        Some(1),
        "{:?}",
        report.counters
    );
    assert_eq!(report.counter(counters::SERVE_CACHE_HITS), Some(7));
    assert_eq!(
        report.counter(&format!("{}.par", counters::SERVE_ANSWERED)),
        Some(8)
    );
}
