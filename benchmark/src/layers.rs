//! Per-layer probes of the traced run: each times one public function of
//! one crate on a small fixed-shape input (128 seeded consumer-years),
//! single-threaded unless the layer is the thread pool itself. They are
//! the addresses a regression or a gain is sent to: every end-to-end
//! metric is a sum of these, weighted by the workload.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use smda_core::three_line::{fit_three_line_scratch, ThreeLineConfig};
use smda_core::{consumer_histograms, fit_par_scratch, Task};
use smda_engines::parallel::{execute_task, top_k_matrix, ConsumerSource, MemorySource};
use smda_engines::{SmcSource, WorkerPool};
use smda_format::{Encoding, SmcFile, SmcWriter};
use smda_ingest::{
    fit_detectors, replay_events, run_pipeline, IngestConfig, ReplayConfig, SnapshotHandle,
};
use smda_obs::MetricsSink;
use smda_serve::{execute, CacheLookup, EpochCache, ServeConfig, Server};
use smda_stats::{
    dot, merge_partials, top_k_oooc, top_k_query, top_k_tiled, top_k_tiled_partial, FitScratch,
    SeriesMatrix, SeriesSource, SliceSource, TileConfig,
};
use smda_storage::BinaryStore;
use smda_types::{ConsumerId, Dataset, Error, Query, QueryKind, Result, HOURS_PER_YEAR};

use crate::catalog::{POOL_THREADS, THREADS};
use crate::data;
use crate::harness::fastest_secs;
use crate::rng::{sub_seed, TOP_K};
use crate::stats::median;

/// Consumer-years of the ingest and serve probes.
const ONLINE_N: usize = 64;
/// Band and row-group height of the band-load and group-load probes.
const BAND: usize = 16;
/// Timed calls per probe (after one warm-up call).
const REPS: usize = 5;

const ROW_BYTES: usize = HOURS_PER_YEAR * 8;

type Metrics = BTreeMap<&'static str, f64>;

fn stats_probes(ds: &Dataset, out: &mut Metrics) -> Result<f64> {
    let rows: Vec<Vec<f64>> = ds
        .consumers()
        .iter()
        .map(|c| c.readings().to_vec())
        .collect();
    let n = rows.len();
    let matrix_bytes = (n * ROW_BYTES) as f64;

    const DOTS: usize = 2_000;
    let dot_s = fastest_secs(REPS, || {
        (0..DOTS)
            .map(|_| dot(black_box(&rows[0]), black_box(&rows[1])))
            .sum::<f64>()
    });
    out.insert(
        "stats.dot_gflops",
        (2 * HOURS_PER_YEAR * DOTS) as f64 / dot_s / 1e9,
    );

    let normalize_s = fastest_secs(REPS, || SeriesMatrix::from_rows_normalized(&rows));
    out.insert("stats.normalize_mb_per_s", matrix_bytes / normalize_s / 1e6);
    let matrix = SeriesMatrix::from_rows_normalized(&rows);

    let cfg = TileConfig::current();
    let (_, kernel) = top_k_tiled(&matrix, TOP_K, &cfg);
    let flops = kernel.flops(matrix.stride()) as f64;
    let tile_s = fastest_secs(REPS, || top_k_tiled(&matrix, TOP_K, &cfg));
    out.insert("stats.tile_gflops", flops / tile_s / 1e9);
    out.insert("stats.tile_pairs", kernel.pairs_scored as f64);

    // The same pairs through the band scheduler with free loads: what
    // the out-of-core path costs before any file is involved.
    let flat: Vec<f64> = rows.iter().flatten().copied().collect();
    let slice = SliceSource::new(&flat, n, HOURS_PER_YEAR);
    top_k_oooc(&slice, TOP_K, BAND, &cfg)?;
    let slice_s = fastest_secs(REPS, || top_k_oooc(&slice, TOP_K, BAND, &cfg));
    out.insert("stats.oooc_slice_gflops", flops / slice_s / 1e9);

    let query_s = fastest_secs(REPS, || {
        (0..32)
            .map(|q| top_k_query(&matrix, q * n / 32, TOP_K).len())
            .sum::<usize>()
    });
    out.insert("stats.query_gb_per_s", 32.0 * matrix_bytes / query_s / 1e9);

    // Two workers' partials: even and odd tile rows.
    let partial = |parity: usize| {
        let next = Cell::new(parity);
        let tiles = cfg.tile_rows(n);
        top_k_tiled_partial(&matrix, TOP_K, &cfg, &|| {
            let t = next.get();
            next.set(t + 2);
            (t < tiles).then_some(t)
        })
        .0
    };
    let partials = vec![partial(0), partial(1)];
    let mut copies: Vec<_> = (0..=REPS).map(|_| partials.clone()).collect();
    let merge_s = fastest_secs(REPS, || {
        merge_partials(n, copies.pop().expect("one copy per call"), TOP_K)
    });
    out.insert("stats.merge_partials_ms", merge_s * 1e3);

    // Pool and extraction overheads around the same kernel.
    let off = MetricsSink::disabled();
    let one_s = fastest_secs(REPS, || top_k_matrix(&matrix, TOP_K, 1, &off));
    let two_s = fastest_secs(REPS, || top_k_matrix(&matrix, TOP_K, POOL_THREADS, &off));
    out.insert("engines.scale_2t", one_s / two_s);
    Ok(one_s)
}

fn core_probes(ds: &Dataset, seed: u64, out: &mut Metrics) -> Result<()> {
    let n = ds.len() as f64;
    let temps = ds.temperature().values();
    let histogram_s = fastest_secs(REPS, || consumer_histograms(ds));
    out.insert("core.histogram_us_per_consumer", histogram_s / n * 1e6);
    let mut scratch = FitScratch::new();
    let config = ThreeLineConfig::default();
    let three_line_s = fastest_secs(REPS, || {
        ds.consumers()
            .iter()
            .filter_map(|c| {
                fit_three_line_scratch(c.id, c.readings(), temps, &config, &mut scratch)
            })
            .count()
    });
    out.insert("core.three_line_us_per_consumer", three_line_s / n * 1e6);
    let par_s = fastest_secs(REPS, || {
        ds.consumers()
            .iter()
            .map(|c| {
                fit_par_scratch(c.id, c.readings(), temps, &mut scratch)
                    .hourly
                    .len()
            })
            .sum::<usize>()
    });
    out.insert("core.par_us_per_consumer", par_s / n * 1e6);
    let generate_s = fastest_secs(REPS, || {
        data::stream_rows(ds.len(), seed, &mut |_, _| Ok(()))
    });
    out.insert("core.generate_consumers_per_s", n / generate_s);
    Ok(())
}

fn write_probe(ds: &Dataset, path: &Path, encoding: Encoding) -> Result<u64> {
    let mut writer = SmcWriter::create_with(path, ds.len(), HOURS_PER_YEAR, encoding)?;
    for c in ds.consumers() {
        writer.append_consumer(c.id, c.readings())?;
    }
    writer.temperature(ds.temperature().values())?;
    Ok(writer.finish()?.file_bytes)
}

fn format_probes(ds: &Dataset, dir: &Path, out: &mut Metrics) -> Result<()> {
    let n = ds.len();
    let logical = (n * ROW_BYTES) as f64;
    let (raw, packed) = (dir.join("probe-raw.smc"), dir.join("probe-packed.smc"));
    // The first write of each file is checked; the timed ones repeat it.
    write_probe(ds, &raw, Encoding::Raw)?;
    write_probe(ds, &packed, Encoding::Packed)?;
    let write_raw_s = fastest_secs(REPS, || write_probe(ds, &raw, Encoding::Raw).is_ok());
    let write_packed_s = fastest_secs(REPS, || write_probe(ds, &packed, Encoding::Packed).is_ok());
    out.insert("format.write_raw_mb_per_s", logical / write_raw_s / 1e6);
    out.insert(
        "format.write_packed_mb_per_s",
        logical / write_packed_s / 1e6,
    );

    let file = SmcFile::open(&packed)?;
    out.insert(
        "format.packed_bytes_per_reading",
        file.file_bytes() as f64 / (n * HOURS_PER_YEAR) as f64,
    );
    let open_s = fastest_secs(REPS, || SmcFile::open(&packed).map(|f| f.n()));
    out.insert("format.open_ms", open_s * 1e3);
    file.verify()?;
    let verify_s = fastest_secs(REPS, || file.verify().is_ok());
    out.insert(
        "format.verify_mb_per_s",
        file.file_bytes() as f64 / verify_s / 1e6,
    );

    let mut row = Vec::new();
    file.read_consumer_into(0, &mut row)?;
    let decode_s = fastest_secs(REPS, || {
        (0..n)
            .filter(|&i| file.read_consumer_into(i, &mut row).is_ok())
            .count()
    });
    out.insert("format.decode_packed_mb_per_s", logical / decode_s / 1e6);

    let raw_file = SmcFile::open(&raw)?;
    let read_s = fastest_secs(REPS, || {
        (0..n)
            .filter_map(|i| raw_file.row(i))
            .map(|r| r.iter().sum::<f64>())
            .sum::<f64>()
    });
    out.insert("format.read_raw_mb_per_s", logical / read_s / 1e6);

    // Every group of a fresh cache is a miss: decode + checksum + insert.
    let groups = n.div_ceil(BAND);
    let group_s = fastest_secs(REPS, || {
        let cache = file.group_cache(BAND, usize::MAX);
        (0..groups).filter(|&g| cache.group(g).is_ok()).count()
    });
    out.insert("format.group_load_ms", group_s / groups as f64 * 1e3);

    let store = BinaryStore::open(&packed)?;
    let ids = store.consumer_ids()?;
    let by_id_s = fastest_secs(REPS, || {
        ids.iter()
            .filter(|id| store.read_consumer_into(**id, &mut row).is_ok())
            .count()
    });
    out.insert("storage.read_consumer_us", by_id_s / n as f64 * 1e6);

    for (metric, path) in [
        ("engines.band_load_raw_mb_per_s", &raw),
        ("engines.band_load_packed_mb_per_s", &packed),
    ] {
        let store = BinaryStore::open(path)?;
        let mut band = Vec::new();
        let load_s = fastest_secs(REPS, || {
            // A fresh source per call, so the packed tier decodes.
            let source = SmcSource::over(&store, BAND, usize::MAX);
            (0..n)
                .step_by(BAND)
                .filter(|&r| source.load_band(r..(r + BAND).min(n), &mut band).is_ok())
                .count()
        });
        out.insert(metric, logical / load_s / 1e6);
    }
    Ok(())
}

fn engines_probes(ds: &Arc<Dataset>, kernel_s: f64, out: &mut Metrics) -> Result<()> {
    const BROADCASTS: usize = 2_000;
    let pool = WorkerPool::global();
    let broadcast_s = fastest_secs(REPS, || {
        (0..BROADCASTS)
            .map(|_| pool.broadcast(POOL_THREADS, &|_| {}))
            .sum::<usize>()
    });
    out.insert(
        "engines.pool_broadcast_us",
        broadcast_s / BROADCASTS as f64 * 1e6,
    );

    // Cold similarity = extract rows into the matrix + the kernel;
    // what is left after the kernel's own time is the extraction.
    let off = MetricsSink::disabled();
    let make =
        || -> Result<Box<dyn ConsumerSource>> { Ok(Box::new(MemorySource::new(ds.clone()))) };
    execute_task(&make, Task::Similarity, THREADS, TOP_K, &off)?;
    let task_s = fastest_secs(REPS, || {
        execute_task(&make, Task::Similarity, THREADS, TOP_K, &off).is_ok()
    });
    out.insert("engines.extract_s", task_s - kernel_s);
    Ok(())
}

fn online_probes(ds: &Dataset, seed: u64, out: &mut Metrics) -> Result<()> {
    let ds = ds.head(ONLINE_N);
    let replay = ReplayConfig {
        jitter_hours: 6,
        seed,
    };
    let replay_s = fastest_secs(REPS, || replay_events(&ds, &replay).len());
    out.insert("ingest.replay_events_s", replay_s);
    let events = replay_events(&ds, &replay);

    let bare = IngestConfig::new().with_shards(1);
    run_pipeline(events.iter().copied(), &bare)?;
    let pipeline_s = fastest_secs(REPS, || run_pipeline(events.iter().copied(), &bare).is_ok());
    out.insert(
        "ingest.pipeline_1shard_readings_per_s",
        events.len() as f64 / pipeline_s,
    );

    let handle = Arc::new(SnapshotHandle::new());
    let full = IngestConfig::new()
        .with_shards(1)
        .with_detectors(Arc::new(fit_detectors(&ds)))
        .with_publish(handle.clone());
    let outcome = run_pipeline(events.iter().copied(), &full)?;
    let alerts = Arc::new(outcome.alerts);
    const PUBLISHES: usize = 1_000;
    let publish_s = fastest_secs(REPS, || {
        (0..PUBLISHES)
            .map(|_| handle.publish(outcome.snapshot.clone(), 0, alerts.clone()))
            .sum::<u64>()
    });
    out.insert("ingest.publish_us", publish_s / PUBLISHES as f64 * 1e6);
    const PINS: usize = 100_000;
    let pin_s = fastest_secs(REPS, || {
        (0..PINS).filter(|_| handle.pin().is_some()).count()
    });
    out.insert("ingest.pin_ns", pin_s / PINS as f64 * 1e9);

    // Direct execution of each query kind on the pinned snapshot.
    let live = handle
        .pin()
        .ok_or_else(|| Error::Invalid("probe snapshot was not published".into()))?;
    let consumers: Vec<ConsumerId> = ds.consumers().iter().map(|c| c.id).collect();
    for (metric, scale, make) in [
        (
            "serve.execute_topk_ms",
            1e3,
            (|consumer| Query::TopKSimilar { consumer, k: TOP_K }) as fn(ConsumerId) -> Query,
        ),
        ("serve.execute_three_line_ms", 1e3, |consumer| {
            Query::ThreeLineFeatures { consumer }
        }),
        ("serve.execute_par_ms", 1e3, |consumer| {
            Query::ParCoefficients { consumer }
        }),
        ("serve.execute_histogram_us", 1e6, |consumer| {
            Query::Histogram { consumer }
        }),
        ("serve.execute_anomaly_us", 1e6, |consumer| {
            Query::AnomalyStatus { consumer }
        }),
    ] {
        let queries: Vec<Query> = consumers.iter().map(|c| make(*c)).collect();
        let kind_s = fastest_secs(REPS, || {
            queries.iter().filter(|q| execute(&live, q).is_ok()).count()
        });
        out.insert(metric, kind_s / queries.len() as f64 * scale);
    }

    // A cache hit, alone and through the whole submit → reply path.
    let cached = Query::Histogram {
        consumer: consumers[0],
    };
    debug_assert_eq!(cached.kind(), QueryKind::Histogram);
    let answer = Arc::new(execute(&live, &cached).map_err(|e| Error::Invalid(e.to_string()))?);
    let cache = EpochCache::new(64);
    cache.lookup(live.epoch(), &cached);
    cache.insert(live.epoch(), cached, answer);
    const PROBES: usize = 100_000;
    let probe_s = fastest_secs(REPS, || {
        (0..PROBES)
            .filter(|_| matches!(cache.lookup(live.epoch(), &cached), CacheLookup::Hit(_)))
            .count()
    });
    let probe_ns = probe_s / PROBES as f64 * 1e9;
    out.insert("serve.cache_probe_ns", probe_ns);

    let server = Server::start(
        handle.clone(),
        ServeConfig {
            workers: THREADS,
            ..ServeConfig::default()
        },
    );
    server
        .query(cached)
        .map_err(|e| Error::Invalid(e.to_string()))?;
    let mut round_trips_us: Vec<f64> = (0..2_000)
        .filter_map(|_| {
            let sent = Instant::now();
            server.query(cached).ok()?;
            Some(sent.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    round_trips_us.sort_by(f64::total_cmp);
    out.insert(
        "serve.queue_overhead_us",
        median(&round_trips_us) - probe_ns / 1e3,
    );
    Ok(())
}

/// Run every probe on `n` seeded consumer-years; `dir` takes the two
/// probe files.
pub fn probe(n: usize, seed: u64, dir: &Path) -> Result<BTreeMap<&'static str, f64>> {
    let seed = sub_seed(seed, "layers");
    let ds = Arc::new(data::dataset(n, seed)?);
    let mut out = Metrics::new();
    let kernel_s = stats_probes(&ds, &mut out)?;
    core_probes(&ds, seed, &mut out)?;
    format_probes(&ds, dir, &mut out)?;
    engines_probes(&ds, kernel_s, &mut out)?;
    online_probes(&ds, seed, &mut out)?;
    Ok(out)
}
