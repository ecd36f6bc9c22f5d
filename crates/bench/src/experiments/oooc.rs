//! Extension experiment: out-of-core similarity over a mapped `.smc`.
//!
//! The sweep axis carries nominal {10k, 100k, 1M} consumers (scaled
//! like the rest of the suite; `--full` runs the true sizes). Each
//! point streams a synthetic year of rows *straight* into an `SMC1`
//! file — no CSV, no `Dataset`, nothing row-count-sized in memory —
//! then runs the banded out-of-core similarity kernel over the file in
//! both encodings and records peak heap growth (counting allocator),
//! peak RSS (`VmHWM`, the paper's `free -m` analog), and streaming
//! throughput. Points small enough to score all pairs are verified
//! bit-identical against the in-memory tiled kernel; larger points run
//! a spread query sample through the streamed query form
//! ([`Streamed::top_k_queries`]) so one streaming pass over the file, in
//! file order, answers every query, and those whose matrix still fits in
//! a gibibyte are verified per query against the in-memory
//! [`top_k_query`].
//!
//! The 1M-consumer point uses a tenth of a year per row: a full raw
//! year at that width is a 70 GB file, which outgrows the working
//! disk, and the memory story (resident set bounded by bands + cache,
//! not `n × hours`) is identical at any stride.

use std::path::Path;
use std::time::Instant;

use smda_core::SIMILARITY_TOP_K;
use smda_engines::{top_k_source_with, SmcSource, DEFAULT_CACHE_BYTES};
use smda_obs::MetricsSink;
use smda_stats::{
    top_k_query, top_k_tiled, OoocStats, SeriesMatrix, SimilarityMatch, Streamed, TileConfig,
    DEFAULT_BAND_ROWS,
};
use smda_storage::{BinaryEncoding, BinaryStore, BinaryWriter};
use smda_types::{ConsumerId, HOURS_PER_YEAR};

use crate::data::Scratch;
use crate::report::{mib, secs, Table};
use crate::scale::Scale;

/// Nominal sweep points `(consumers, hours_per_row)`.
const POINTS: [(usize, usize); 3] = [
    (10_000, HOURS_PER_YEAR),
    (100_000, HOURS_PER_YEAR),
    (1_000_000, HOURS_PER_YEAR / 10),
];

/// Up to this many actual rows the point runs all pairs and is
/// verified bitwise against the in-memory kernel; above it a query
/// sample keeps the flop count tractable.
const ALL_PAIRS_MAX: usize = 2_048;

/// Query-sample width for the large points.
const QUERY_SAMPLE: usize = 256;

/// A query-sample point whose logical matrix is at most this large is
/// materialized once to verify the sampled answers bitwise.
const VERIFY_MAX_BYTES: u64 = 1 << 30;

/// Worker-pool width for the all-pairs runs.
const THREADS: usize = 8;

/// One deterministic synthetic load profile: a per-consumer base and
/// swing around a shared diurnal shape, plus keyed xorshift noise.
fn synth_row(id: u64, hours: usize, buf: &mut Vec<f64>) {
    let mut state = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let base = 0.3 + 1.7 * next();
    let swing = 0.5 + next();
    buf.clear();
    for h in 0..hours {
        let diurnal = (2.0 * std::f64::consts::PI * (h % 24) as f64 / 24.0).sin();
        buf.push(base + swing * 0.5 * (1.0 + diurnal) + 0.05 * next());
    }
}

/// Stream `n` synthetic rows into an `SMC1` file, `O(hours)` resident.
/// Returns the file size in bytes.
fn write_store(path: &Path, n: usize, hours: usize, encoding: BinaryEncoding) -> u64 {
    let mut writer =
        BinaryWriter::create(path, n, hours, encoding).expect("scratch store is writable");
    let mut row = Vec::with_capacity(hours);
    for i in 0..n {
        synth_row(i as u64 + 1, hours, &mut row);
        writer
            .append_consumer(ConsumerId(i as u32 + 1), &row)
            .expect("row order matches creation order");
    }
    let temps: Vec<f64> = (0..hours)
        .map(|h| 10.0 + 8.0 * (2.0 * std::f64::consts::PI * h as f64 / hours.max(1) as f64).sin())
        .collect();
    writer
        .finish(&temps)
        .expect("seal succeeds on a full store")
}

/// `VmHWM` (peak resident set) from `/proc/self/status`, in bytes.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Reset the kernel's peak-RSS watermark (`clear_refs` code 5) so each
/// point reads its own high-water mark, not the process lifetime's.
/// Best effort: where the write is denied the watermark stays
/// monotonic and later points report an upper bound.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn match_bits(hits: &[Vec<SimilarityMatch>]) -> Vec<(usize, u64)> {
    hits.iter()
        .flat_map(|h| h.iter().map(|m| (m.index, m.score.to_bits())))
        .collect()
}

/// Regenerate `results/oooc_sweep.csv`.
pub fn run(scale: Scale) -> Vec<Table> {
    let scratch = Scratch::new("oooc");
    let sink = MetricsSink::disabled();
    let mut t = Table::new(
        "oooc_sweep",
        "Out-of-core similarity over SMC1: bounded resident memory at scale",
        &[
            "n",
            "hours",
            "encoding",
            "mode",
            "band_rows",
            "logical_mib",
            "file_mib",
            "peak_heap_mib",
            "peak_rss_mib",
            "elapsed_s",
            "rows_per_s",
            "mflops",
            "verified",
        ],
    );

    for (nominal, hours) in POINTS {
        let n = scale.consumers_for_households(nominal);
        let band_rows = DEFAULT_BAND_ROWS.min(n.max(1));
        let logical_bytes = (n * hours * std::mem::size_of::<f64>()) as u64;
        let all_pairs = n <= ALL_PAIRS_MAX;
        let q = QUERY_SAMPLE.min(n);
        let queries: Vec<usize> = (0..q).map(|i| i * n / q).collect();

        // The bitwise expectation for small points, dropped before the
        // measured region so it never inflates the peak readings.
        let want_bits = (all_pairs || logical_bytes <= VERIFY_MAX_BYTES).then(|| {
            let mut rows = vec![Vec::new(); n];
            for (i, row) in rows.iter_mut().enumerate() {
                synth_row(i as u64 + 1, hours, row);
            }
            let matrix = SeriesMatrix::from_rows_normalized(&rows);
            drop(rows);
            let want = if all_pairs {
                top_k_tiled(&matrix, SIMILARITY_TOP_K, &TileConfig::current()).0
            } else {
                let one = |&q: &usize| top_k_query(&matrix, q, SIMILARITY_TOP_K);
                queries.iter().map(one).collect()
            };
            match_bits(&want)
        });

        for encoding in [BinaryEncoding::Raw, BinaryEncoding::Packed] {
            let tag = format!("{encoding:?}").to_lowercase();
            let path = scratch.path(&format!("{tag}-{n}.smc"));
            let file_bytes = write_store(&path, n, hours, encoding);
            let store = BinaryStore::open(&path).expect("freshly written store opens");

            reset_peak_rss();
            let start = Instant::now();
            let (out, _allocated, peak_heap) = crate::alloc::measure_alloc(|| {
                let source = SmcSource::over(&store, band_rows, DEFAULT_CACHE_BYTES);
                if all_pairs {
                    top_k_source_with(&source, None, SIMILARITY_TOP_K, band_rows, THREADS, &sink)
                } else {
                    Streamed::new(&source, band_rows).top_k_queries(&queries, SIMILARITY_TOP_K)
                }
            });
            let elapsed = start.elapsed();
            let peak_rss = peak_rss_bytes().unwrap_or(0);
            let (matches, stats): (Vec<Vec<SimilarityMatch>>, OoocStats) =
                out.expect("out-of-core run succeeds on a fresh store");

            let verified = match &want_bits {
                Some(want) => {
                    assert_eq!(
                        &match_bits(&matches),
                        want,
                        "{tag}: out-of-core diverged from the in-memory kernel at n={n}"
                    );
                    "bitwise"
                }
                None => "-",
            };
            let secs_f = elapsed.as_secs_f64().max(1e-9);
            let mflops = stats.kernel.flops(hours) as f64 / secs_f / 1e6;
            t.row(vec![
                n.to_string(),
                hours.to_string(),
                tag,
                if all_pairs {
                    "all_pairs".into()
                } else {
                    format!("queries_{q}")
                },
                band_rows.to_string(),
                mib(logical_bytes),
                mib(file_bytes),
                mib(peak_heap as u64),
                mib(peak_rss),
                secs(elapsed),
                format!("{:.0}", n as f64 / secs_f),
                format!("{mflops:.0}"),
                verified.to_string(),
            ]);
            drop(store);
            let _ = std::fs::remove_file(&path);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_rows_are_deterministic_per_id() {
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        synth_row(7, 48, &mut a);
        synth_row(7, 48, &mut b);
        synth_row(8, 48, &mut c);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[cfg_attr(debug_assertions, ignore = "full-sweep shape test; run with --release")]
    #[test]
    fn produces_both_encodings_per_point_and_verifies_small_points() {
        let tables = run(Scale::smoke());
        let t = &tables[0];
        assert_eq!(t.rows.len(), POINTS.len() * 2);
        for row in &t.rows {
            let n: usize = row[0].parse().unwrap();
            let logical: f64 = row[5].parse().unwrap();
            let file: f64 = row[6].parse().unwrap();
            assert!(logical > 0.0 && file > 0.0);
            if n <= ALL_PAIRS_MAX {
                assert_eq!(row[12], "bitwise", "small points must be verified: {row:?}");
            }
        }
    }
}
