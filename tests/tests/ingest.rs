//! End-to-end streaming ingest: the lambda architecture's core claims.
//!
//! A full year replayed out-of-order through `smda-ingest` must yield
//! output *bit-identical* to the offline `MemorySource` path for all
//! four benchmark tasks at every shard count; an injected shard crash
//! must recover from the WAL with no lost or duplicated readings; late
//! and dirty readings must follow the configured policy; and where the
//! router cuts its per-shard chunks must change nothing a run decides
//! from its data.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use smda_core::{AlertKind, Task, TaskOutput};
use smda_engines::parallel::{execute_task, ConsumerSource, MemorySource};
use smda_ingest::{
    fit_detectors, replay_events, run_pipeline, IngestConfig, IngestOutcome, ReplayConfig,
};
use smda_integration::{fixture_dataset, TempDir};
use smda_obs::{counters, BenchExport, MetricsSink, RunManifest};
use smda_stats::SeriesMatrix;
use smda_types::{
    BitEq, ConsumerSeries, Dataset, DirtyDataPolicy, Error, Reading, TemperatureSeries,
    HOURS_PER_YEAR,
};

fn offline(ds: &Arc<Dataset>, task: Task) -> TaskOutput {
    let data = ds.clone();
    execute_task(
        &move || Ok(Box::new(MemorySource::new(data.clone())) as Box<dyn ConsumerSource>),
        task,
        4,
        smda_core::SIMILARITY_TOP_K,
        &MetricsSink::disabled(),
    )
    .expect("offline task runs")
}

/// Strict equality, down to the bits of every floating-point value.
fn assert_bit_identical(streamed: &TaskOutput, batch: &TaskOutput, context: &str) {
    assert!(streamed.bits_eq(batch), "{context}");
}

#[test]
fn replayed_year_is_bit_identical_to_offline_path_at_every_shard_count() {
    let ds = Arc::new(fixture_dataset(12));
    // Out-of-order within the allowed lateness: nothing may be dropped.
    let events = replay_events(
        &ds,
        &ReplayConfig {
            jitter_hours: 12,
            seed: 77,
        },
    );
    let batch: Vec<(Task, TaskOutput)> = Task::ALL
        .iter()
        .map(|&task| (task, offline(&ds, task)))
        .collect();
    let rows: Vec<Vec<f64>> = ds
        .consumers()
        .iter()
        .map(|c| c.readings().to_vec())
        .collect();
    let batch_matrix = SeriesMatrix::from_rows_normalized(&rows);

    // 13 shards: on a host with up to 12 CPUs some owner thread holds
    // several shards.
    for shards in [1usize, 2, 4, 8, 13] {
        let cfg = IngestConfig::new()
            .with_shards(shards)
            .with_allowed_lateness(24);
        let out = run_pipeline(events.iter().copied(), &cfg).expect("pipeline completes");
        assert_eq!(out.report.shards, shards as u64);
        assert_eq!(
            out.report.readings_in,
            12 * HOURS_PER_YEAR as u64,
            "{shards} shards: every reading arrives"
        );
        assert_eq!(out.report.readings_late, 0, "{shards} shards: none late");
        assert_eq!(out.report.consumers_sealed, 12);

        // The sealed dataset is the original, exactly.
        assert_eq!(out.snapshot.dataset().consumers(), ds.consumers());

        // The incrementally built similarity rows equal the batch
        // normalization bit for bit.
        for i in 0..12 {
            for (a, b) in out.snapshot.matrix().row(i).iter().zip(batch_matrix.row(i)) {
                assert_eq!(a.to_bits(), b.to_bits(), "{shards} shards: matrix row {i}");
            }
        }

        // All four tasks, streamed vs offline, bit for bit.
        for (task, want) in &batch {
            let got = out
                .snapshot
                .run_task(
                    *task,
                    4,
                    smda_core::SIMILARITY_TOP_K,
                    &MetricsSink::disabled(),
                )
                .expect("bridged task runs");
            assert_bit_identical(&got, want, &format!("{shards} shards / {task}"));
        }
    }
}

#[test]
fn injected_shard_crash_recovers_from_the_wal_with_nothing_lost() {
    let ds = Arc::new(fixture_dataset(8));
    let events = replay_events(&ds, &ReplayConfig::default());
    let dir = TempDir::new("ingest-wal");
    // Virtual time runs at 1 ms per reading: shard 0 crashes after its
    // 1000th reading, deterministically.
    let faults = smda_cluster::FaultPlan::parse("crash=0@1").expect("spec parses");
    let sink = MetricsSink::recording();
    let cfg = IngestConfig::new()
        .with_shards(4)
        .with_wal_dir(dir.path("wal"))
        .with_faults(faults);
    let cfg = IngestConfig {
        metrics: sink.clone(),
        ..cfg
    };
    let out = run_pipeline(events, &cfg).expect("pipeline recovers and completes");

    // No lost or duplicated readings, verified through the ingest.*
    // counters in the smda-bench/v1 JSON export.
    let report = sink.finish(
        RunManifest::new("ingest", "streaming")
            .threads(4)
            .consumers(8),
    );
    let export = BenchExport::from_runs(vec![report]);
    let parsed =
        serde::json::from_str::<BenchExport>(&export.to_json_pretty()).expect("export round-trips");
    let entry = |name: &str| -> u64 {
        parsed
            .benches
            .iter()
            .find(|b| b.name == format!("streaming/ingest/warm/{name}"))
            .unwrap_or_else(|| panic!("export lacks {name}"))
            .value
    };
    assert_eq!(
        entry(counters::INGEST_READINGS_IN),
        8 * HOURS_PER_YEAR as u64
    );
    assert_eq!(entry(counters::INGEST_READINGS_DUPLICATE), 0);
    assert_eq!(entry(counters::INGEST_READINGS_LATE), 0);
    assert_eq!(entry(counters::INGEST_CONSUMERS_SEALED), 8);
    assert_eq!(entry(counters::FAULTS_INJECTED_NODE_CRASH), 1);
    assert_eq!(entry(counters::FAULTS_RECOVERED_NODE_CRASH), 1);
    assert!(
        entry(counters::INGEST_WAL_RECORDS_REPLAYED) >= 1000,
        "the crash fired after 1000 readings, all of which must replay"
    );
    assert_eq!(entry(counters::INGEST_WAL_RECORDS_REPLAYED), 1000);

    // And the recovered data is still exactly the input.
    assert_eq!(out.snapshot.dataset().consumers(), ds.consumers());
}

#[test]
fn a_crash_in_the_middle_of_a_chunk_replays_exactly_the_logged_readings() {
    let ds = Arc::new(fixture_dataset(8));
    // Hour-major, one shard: every chunk is one hour's eight readings
    // (handed over when the next hour starts), so the 1003rd reading is
    // the third of its chunk — the crash falls inside a hand-off, not
    // between two.
    let events = replay_events(
        &ds,
        &ReplayConfig {
            jitter_hours: 0,
            seed: 1,
        },
    );
    let dir = TempDir::new("ingest-wal-midchunk");
    let faults = smda_cluster::FaultPlan::parse("crash=0@1.003").expect("spec parses");
    let cfg = IngestConfig::new()
        .with_shards(1)
        .with_wal_dir(dir.path("wal"))
        .with_faults(faults);
    let out = run_pipeline(events, &cfg).expect("pipeline recovers and completes");
    let r = &out.report;
    assert_eq!(r.chunks_routed, HOURS_PER_YEAR as u64, "one chunk per hour");
    assert_eq!((r.crashes_injected, r.crashes_recovered), (1, 1));
    // The WAL is appended per reading, ahead of the crash check: the
    // replay sees the chunk's first three readings and no more.
    assert_eq!(r.wal_records_replayed, 1003);
    assert_eq!(r.readings_in, 8 * HOURS_PER_YEAR as u64);
    assert_eq!(r.readings_duplicate + r.readings_late, 0);
    assert_eq!(out.snapshot.dataset().consumers(), ds.consumers());
}

#[test]
fn late_readings_follow_the_dirty_data_policy() {
    let ds = Arc::new(fixture_dataset(4));
    // Jitter far beyond the allowed lateness forces genuine late
    // arrivals.
    let events = replay_events(
        &ds,
        &ReplayConfig {
            jitter_hours: 48,
            seed: 5,
        },
    );
    let strict = IngestConfig::new().with_shards(2).with_allowed_lateness(2);
    let err = match run_pipeline(events.iter().copied(), &strict) {
        Err(e) => e,
        Ok(_) => panic!("late reading must be fatal under FailFast"),
    };
    assert!(matches!(err, Error::Schema(_)), "got {err:?}");

    let lenient = strict.with_policy(DirtyDataPolicy::SkipAndCount);
    let out = run_pipeline(events.iter().copied(), &lenient).expect("late readings are skipped");
    assert!(
        out.report.readings_late > 0,
        "jitter 48 > lateness 2 must drop"
    );
    assert_eq!(out.dead_letters.len() as u64, out.report.readings_late);
    // Each dropped reading leaves exactly its own hour unfilled.
    assert_eq!(out.report.readings_missing, out.report.readings_late);
    assert_eq!(out.report.consumers_sealed, 4);
}

#[test]
fn a_failing_shard_aborts_a_stalled_router() {
    // One late reading halfway through a hour-ordered year: under
    // FailFast its shard fails while the router, on queues of 1 or 7
    // readings, is stalled on some shard most of the time. The abort must
    // wake it; nothing polls, so a lost wake fails this test at the
    // timeout instead of hanging the suite.
    let ds = fixture_dataset(6);
    let mut events = replay_events(
        &ds,
        &ReplayConfig {
            jitter_hours: 0,
            seed: 1,
        },
    );
    let victim = ds.consumers()[2].id;
    let late = Reading {
        consumer: victim,
        hour: 0,
        temperature: ds.temperature().values()[0],
        kwh: 1.0,
    };
    events.insert(events.len() / 2, late);
    for shards in [2usize, 3] {
        for queue_capacity in [1usize, 7] {
            let cfg = IngestConfig {
                queue_capacity,
                ..IngestConfig::new().with_shards(shards)
            };
            let (tx, rx) = mpsc::channel();
            let stream = events.clone();
            let helper = std::thread::spawn(move || {
                let outcome = run_pipeline(stream, &cfg).map(|out| out.report);
                tx.send(outcome).expect("the test waits for the outcome");
            });
            let context = format!("{shards} shards, queue capacity {queue_capacity}");
            let outcome = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{context}: the pipeline did not return in 60 s"));
            helper
                .join()
                .expect("the helper thread returns once it has sent");
            match outcome {
                Err(Error::Schema(message)) => assert!(
                    message.starts_with(&format!(
                        "consumer {victim}: hour 0 arrived behind the shard-"
                    )),
                    "{context}: {message}"
                ),
                other => panic!("{context}: want the late reading's error, got {other:?}"),
            }
        }
    }
}

fn with_spike(ds: &Dataset, victim: usize, hour: usize, extra_kwh: f64) -> Dataset {
    let consumers: Vec<ConsumerSeries> = ds
        .consumers()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut kwh = c.readings().to_vec();
            if i == victim {
                kwh[hour] += extra_kwh;
            }
            ConsumerSeries::new(c.id, kwh).expect("spiked readings stay valid")
        })
        .collect();
    Dataset::new(
        consumers,
        TemperatureSeries::new(ds.temperature().values().to_vec()).expect("temps unchanged"),
    )
    .expect("ids unchanged")
}

#[test]
fn detectors_raise_alerts_behind_the_watermark() {
    let clean = fixture_dataset(4);
    // Fit the model registry on clean history, then stream a year with
    // a large injected spike.
    let detectors = Arc::new(fit_detectors(&clean));
    let victim = 2;
    let spike_hour = 5000;
    let spiked = with_spike(&clean, victim, spike_hour, 15.0);
    let victim_id = spiked.consumers()[victim].id;
    let events = replay_events(&spiked, &ReplayConfig::default());
    let cfg = IngestConfig::new().with_shards(4).with_detectors(detectors);
    let IngestOutcome { alerts, .. } = run_pipeline(events, &cfg).expect("pipeline completes");
    assert!(
        alerts.iter().any(|a| a.consumer == victim_id
            && a.hour == spike_hour
            && a.kind == AlertKind::UnusuallyHigh),
        "the +15 kWh spike at hour {spike_hour} must alert; got {} alerts",
        alerts.len()
    );
}

/// Everything a run decides from its data, floats as bits: the sealed
/// year and its normalized rows, the alerts, the dead letters in sink
/// order, and the data counts of the report.
#[derive(Debug, PartialEq)]
struct Decided {
    dataset: Vec<(u32, Vec<u64>)>,
    temperature: Vec<u64>,
    matrix: Vec<Vec<u64>>,
    alerts: Vec<(u32, usize, u64, u64, u64, AlertKind)>,
    dead_letters: Vec<(u32, u32, u64, u64)>,
    counts: [u64; 6],
}

fn decided(out: &IngestOutcome) -> Decided {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let ds = out.snapshot.dataset();
    let r = &out.report;
    Decided {
        dataset: ds
            .consumers()
            .iter()
            .map(|c| (c.id.raw(), bits(c.readings())))
            .collect(),
        temperature: bits(ds.temperature().values()),
        matrix: (0..ds.len())
            .map(|i| bits(out.snapshot.matrix().row(i)))
            .collect(),
        alerts: out
            .alerts
            .iter()
            .map(|a| {
                (
                    a.consumer.raw(),
                    a.hour,
                    a.actual.to_bits(),
                    a.expected.to_bits(),
                    a.sigmas.to_bits(),
                    a.kind,
                )
            })
            .collect(),
        dead_letters: out
            .dead_letters
            .iter()
            .map(|d| {
                (
                    d.consumer.raw(),
                    d.hour,
                    d.temperature.to_bits(),
                    d.kwh.to_bits(),
                )
            })
            .collect(),
        counts: [
            r.readings_in,
            r.readings_late,
            r.readings_duplicate,
            r.readings_missing,
            r.readings_dirty,
            r.consumers_sealed,
        ],
    }
}

#[test]
fn chunk_boundaries_change_nothing_a_run_decides() {
    let clean = fixture_dataset(8);
    let detectors = Arc::new(fit_detectors(&clean));
    let spiked = with_spike(&clean, 2, 5000, 15.0);
    let mut events = replay_events(
        &spiked,
        &ReplayConfig {
            jitter_hours: 12,
            seed: 9,
        },
    );
    // 40 injections spread over the year, 14 / 13 / 13 of each kind.
    for k in 0..40 {
        let at = 2_000 + k * 1_500;
        let original = events[at];
        match k % 3 {
            // Late beyond doubt: delivered 2400 readings — 300 event
            // hours at 8 consumers — after its place in the stream.
            0 => {
                events.remove(at);
                events.insert(at + 2_400, original);
            }
            // A duplicate five deliveries on, with a different value:
            // the first write must win.
            1 => events.insert(
                at + 5,
                Reading {
                    kwh: original.kwh + 1.0,
                    ..original
                },
            ),
            // Dirty: stopped by the router.
            _ => events.insert(
                at,
                Reading {
                    kwh: f64::NAN,
                    ..original
                },
            ),
        }
    }

    let mut by_shard_count = Vec::new();
    for shards in [1usize, 3] {
        let run = |capacity: usize| {
            let cfg = IngestConfig {
                queue_capacity: capacity,
                ..IngestConfig::new()
                    .with_shards(shards)
                    .with_policy(DirtyDataPolicy::SkipAndCount)
                    .with_detectors(detectors.clone())
            };
            run_pipeline(events.iter().copied(), &cfg).expect("skip-and-count completes")
        };
        let reference = run(4096);
        let want = decided(&reference);
        assert_eq!(want.counts[1..5], [14, 13, 14, 13], "{shards} shards");
        assert_eq!(want.dead_letters.len(), 40);
        assert!(
            want.alerts.iter().any(|a| (a.0, a.1) == (6, 5000)),
            "the spike alerts"
        );
        for capacity in [1usize, 7, 256] {
            let out = run(capacity);
            assert!(
                decided(&out) == want,
                "{shards} shards, queue capacity {capacity}: outcome differs from capacity 4096"
            );
            match capacity {
                // The chunk is the whole queue: one reading a hand-off.
                1 => assert_eq!(out.report.chunks_routed, out.report.readings_in),
                7 => assert!(out.report.chunks_routed * 7 >= out.report.readings_in),
                // Same chunk length as 4096; only the waits differ.
                _ => assert_eq!(out.report.chunks_routed, reference.report.chunks_routed),
            }
        }
        by_shard_count.push(want);
    }
    // Across shard counts the dead-letter sink is grouped by shard, so
    // its order is the one thing that may differ.
    let [mut one, mut three] = <[Decided; 2]>::try_from(by_shard_count).expect("two shard counts");
    one.dead_letters.sort_unstable();
    three.dead_letters.sort_unstable();
    assert!(one == three, "1 shard and 3 shards decide differently");
}

#[test]
fn chunks_routed_depends_on_the_stream_not_the_schedule() {
    let ds = fixture_dataset(40);
    let events = replay_events(
        &ds,
        &ReplayConfig {
            jitter_hours: 12,
            seed: 77,
        },
    );
    for shards in [1usize, 2] {
        let sink = MetricsSink::recording();
        let run = |capacity: usize, metrics: MetricsSink| {
            let cfg = IngestConfig {
                queue_capacity: capacity,
                metrics,
                ..IngestConfig::new().with_shards(shards)
            };
            run_pipeline(events.iter().copied(), &cfg)
                .expect("pipeline completes")
                .report
        };
        let first = run(4096, sink.clone());
        assert_eq!(first.readings_in, 40 * HOURS_PER_YEAR as u64);
        // A chunk carries many readings: per-reading hand-off would make
        // the two counts equal. No clock involved.
        assert!(
            first.chunks_routed * 16 <= first.readings_in,
            "{shards} shards: {} chunks for {} readings",
            first.chunks_routed,
            first.readings_in
        );
        assert_eq!(
            sink.finish(RunManifest::new("ingest", "streaming"))
                .counter(counters::INGEST_CHUNKS_ROUTED),
            Some(first.chunks_routed)
        );
        // Again; with a queue one chunk deep, so the router waits on
        // the worker at every hand-off; and with two pipelines at once
        // competing for the process-wide pool's workers.
        let off = MetricsSink::disabled;
        assert_eq!(run(4096, off()).chunks_routed, first.chunks_routed);
        assert_eq!(run(256, off()).chunks_routed, first.chunks_routed);
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| run(4096, off()));
            let b = scope.spawn(|| run(4096, off()));
            (a.join().expect("joins"), b.join().expect("joins"))
        });
        assert_eq!(a.chunks_routed, first.chunks_routed);
        assert_eq!(b.chunks_routed, first.chunks_routed);
    }
}

#[test]
fn backpressure_stalls_are_bounded_by_the_readings_handed_over() {
    // A stalled hand-off resumes only once its queue holds at most
    // L = C/2 readings, and the next stall on that queue needs it past
    // C − chunk_len again: at least C − L − chunk_len + 1 readings
    // handed over in between, however the threads are scheduled. A
    // wake after every popped chunk lets the router stall again after
    // one chunk and fails this several times over. No clock involved.
    let ds = fixture_dataset(40);
    let events = replay_events(
        &ds,
        &ReplayConfig {
            jitter_hours: 12,
            seed: 77,
        },
    );
    for capacity in [1024usize, 4096] {
        let per_stall = (capacity - capacity / 2 - capacity.min(256) + 1) as u64;
        for shards in [1usize, 2] {
            let run = || {
                let cfg = IngestConfig {
                    queue_capacity: capacity,
                    ..IngestConfig::new().with_shards(shards)
                };
                run_pipeline(events.iter().copied(), &cfg)
                    .expect("pipeline completes")
                    .report
            };
            let alone = run();
            let (a, b) = std::thread::scope(|scope| {
                let a = scope.spawn(run);
                let b = scope.spawn(run);
                (a.join().expect("joins"), b.join().expect("joins"))
            });
            for (how, report) in [("alone", alone), ("paired", a), ("paired", b)] {
                assert_eq!(report.readings_in, 40 * HOURS_PER_YEAR as u64);
                let bound = 1 + report.readings_in / per_stall;
                assert!(
                    report.backpressure_stalls <= bound,
                    "capacity {capacity}, {shards} shards, {how}: {} stalls, bound {bound}",
                    report.backpressure_stalls
                );
            }
        }
    }
}

#[test]
fn queue_capacities_around_the_chunk_length_seal_the_replayed_year() {
    // Capacities at 1, 2, 3 and either side of one chunk and of two,
    // where the low-water mark falls below, on or above a chunk's
    // length; three pipelines at once on the process-wide pool, each
    // with its own replay seed.
    let ds = fixture_dataset(3);
    let replays: Vec<Vec<Reading>> = (0..3)
        .map(|seed| {
            replay_events(
                &ds,
                &ReplayConfig {
                    jitter_hours: 6 + seed as u32 * 6,
                    seed,
                },
            )
        })
        .collect();
    for capacity in [1usize, 2, 3, 255, 256, 257, 511, 512, 513] {
        for shards in [1usize, 3] {
            let cfg = IngestConfig {
                queue_capacity: capacity,
                ..IngestConfig::new().with_shards(shards)
            };
            let outcomes: Vec<IngestOutcome> = std::thread::scope(|scope| {
                let runs: Vec<_> = replays
                    .iter()
                    .map(|events| scope.spawn(|| run_pipeline(events.iter().copied(), &cfg)))
                    .collect();
                runs.into_iter()
                    .map(|run| run.join().expect("joins").expect("pipeline completes"))
                    .collect()
            });
            for (seed, out) in outcomes.iter().enumerate() {
                let context = format!("capacity {capacity}, {shards} shards, seed {seed}");
                let r = &out.report;
                assert_eq!(r.readings_in, 3 * HOURS_PER_YEAR as u64, "{context}");
                assert_eq!(
                    r.readings_late + r.readings_duplicate + r.readings_missing,
                    0,
                    "{context}"
                );
                let sealed = out.snapshot.dataset();
                assert_eq!(sealed.len(), ds.len(), "{context}");
                for (got, want) in sealed.consumers().iter().zip(ds.consumers()) {
                    assert_eq!(got.id, want.id, "{context}");
                    assert!(got.readings().bits_eq(want.readings()), "{context}");
                }
                assert!(
                    sealed
                        .temperature()
                        .values()
                        .bits_eq(ds.temperature().values()),
                    "{context}"
                );
            }
        }
    }
}
