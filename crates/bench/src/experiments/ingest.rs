//! PR 4 extension: the streaming-ingest shard sweep.
//!
//! Replays a generated year as a jittered out-of-order stream through
//! `smda-ingest` at shard counts 1/2/4/8 and reports sustained
//! throughput (readings/sec), worst watermark lag, chunks routed and
//! backpressure stalls (hand-offs that blocked). At every shard count
//! the sealed snapshot is checked equal to the dataset the stream was
//! replayed from — the lambda architecture's core claim, measured
//! rather than assumed.

use std::time::Instant;

use smda_ingest::{replay_events, run_pipeline, IngestConfig, ReplayConfig};

use crate::data::seed_dataset;
use crate::report::Table;
use crate::scale::Scale;

/// Nominal household count replayed (scaled down by `Scale::divisor`):
/// 96 consumer-years at the default scale, 0.84 M readings, the online
/// size of the benchmark's `spilling` workload, so that each shard count
/// runs long enough for fixed costs not to decide its rate.
pub const HOUSEHOLDS: usize = 26_208;

/// Shard counts swept.
pub const SHARDS: [usize; 4] = [1, 2, 4, 8];

/// Sweep shard counts over one replayed year.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "ingest_sweep",
        "Streaming ingest: sharded pipeline throughput vs shard count",
        &[
            "households",
            "shards",
            "time_ms",
            "readings_per_sec",
            "watermark_lag_hours",
            "chunks_routed",
            "backpressure_stalls",
        ],
    );
    let ds = seed_dataset(scale.consumers_for_households(HOUSEHOLDS));
    let events = replay_events(&ds, &ReplayConfig::default());
    for shards in SHARDS {
        let cfg = IngestConfig::new().with_shards(shards);
        let start = Instant::now();
        let out =
            run_pipeline(events.iter().copied(), &cfg).expect("replayed seed data ingests cleanly");
        let elapsed = start.elapsed();
        assert_eq!(
            out.snapshot.dataset().consumers(),
            ds.consumers(),
            "sealed snapshot diverged from the replayed dataset at {shards} shards"
        );
        let rate = out.report.readings_in as f64 / elapsed.as_secs_f64().max(1e-9);
        t.row(vec![
            ds.len().to_string(),
            shards.to_string(),
            format!("{:.3}", elapsed.as_secs_f64() * 1e3),
            format!("{rate:.0}"),
            out.report.watermark_lag_hours.to_string(),
            out.report.chunks_routed.to_string(),
            out.report.backpressure_stalls.to_string(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_shard_count() {
        let tables = run(Scale::smoke());
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.rows.len(), SHARDS.len());
        let replayed = seed_dataset(Scale::smoke().consumers_for_households(HOUSEHOLDS)).len();
        for row in &t.rows {
            assert_eq!(row[0], replayed.to_string());
            let rate: f64 = row[3].parse().unwrap();
            assert!(rate > 0.0);
        }
    }
}
