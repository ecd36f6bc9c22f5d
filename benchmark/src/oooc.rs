//! Group `oooc`: out-of-core all-pairs top-10 through
//! `run_similarity_oooc` over the same rows written **raw** and
//! **packed**, streamed to disk so the matrix is never resident.
//!
//! Same kernel as the in-memory group, but fed by band loads: the raw
//! tier is a copy out of the mapping plus `madvise`, the packed tier a
//! `RowGroupCache` that holds the whole file in workload `resident` and
//! 5 of its 8 row groups in `spilling`, where the working set exceeds
//! the program's own cache and evictions are forced. Band-load overlap
//! and decode speed-ups must show here and the in-memory group must not
//! move.

use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use smda_core::TaskOutput;
use smda_engines::parallel::top_k_matrix;
use smda_engines::{run_similarity_oooc, top_k_source_with, SmcSource};
use smda_format::metrics::{snapshot, FormatCounters};
use smda_obs::MetricsSink;
use smda_stats::{OoocStats, SeriesMatrixBuilder, SeriesSource, SimilarityMatch};
use smda_storage::{BinaryEncoding, BinaryStore};
use smda_types::{Error, Result};

use crate::catalog::{Sizes, THREADS};
use crate::data;
use crate::harness::{Ctx, Group, Lap, Tally};
use crate::rng::{sub_seed, TOP_K};
use crate::trace::{Tracer, BENCH_LAYER};

/// A similarity answer in comparable form: per consumer (ascending id),
/// its neighbours as `(id, score bits)`, best first.
type Answer = Vec<Vec<(u32, u64)>>;

fn answer_of_indices(matches: &[Vec<SimilarityMatch>]) -> Answer {
    // The generator numbers consumers `0..n`, so row index == id.
    matches
        .iter()
        .map(|hits| {
            hits.iter()
                .map(|h| (h.index as u32, h.score.to_bits()))
                .collect()
        })
        .collect()
}

fn answer_of_output(output: &TaskOutput) -> Result<Answer> {
    let TaskOutput::Similarity(rows) = output else {
        return Err(Error::Invalid(
            "similarity run returned another task's output".into(),
        ));
    };
    Ok(rows
        .iter()
        .map(|r| {
            r.matches
                .iter()
                .map(|(id, score)| (id.raw(), score.to_bits()))
                .collect()
        })
        .collect())
}

/// An `SmcSource` whose band loads are recorded as spans, and the gaps
/// between one worker's loads — the tile kernel scoring the band pair
/// it just loaded — as `stats` spans, all under the
/// `top_k_source_with` span that caused them.
struct TracedBands<'a> {
    inner: &'a SmcSource<'a>,
    tracer: &'a Tracer,
    layer: &'static str,
    parent: u32,
    /// Per worker thread: when its previous load returned.
    last_load_end: Mutex<HashMap<ThreadId, u64>>,
}

impl TracedBands<'_> {
    fn last_load_end(&self) -> std::sync::MutexGuard<'_, HashMap<ThreadId, u64>> {
        self.last_load_end.lock().expect("band trace poisoned")
    }

    /// Close every worker's last gap at `end_ns`, when the call returned.
    fn finish(&self, end_ns: u64) {
        for (_, start) in self.last_load_end().drain() {
            self.tracer
                .record("score_band_pair", "stats", self.parent, start, end_ns);
        }
    }
}

impl SeriesSource for TracedBands<'_> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn stride(&self) -> usize {
        self.inner.stride()
    }

    fn load_band(&self, rows: Range<usize>, out: &mut Vec<f64>) -> Result<()> {
        let thread = std::thread::current().id();
        if let Some(start) = self.last_load_end().remove(&thread) {
            let now = self.tracer.now_ns();
            self.tracer
                .record("score_band_pair", "stats", self.parent, start, now);
        }
        let span = self.tracer.span("load_band", self.layer, self.parent);
        let loaded = self.inner.load_band(rows, out);
        drop(span);
        self.last_load_end().insert(thread, self.tracer.now_ns());
        loaded
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), if readable.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// 1 when the peak-RSS reading covers the out-of-core calls alone.
pub const PEAK_IS_OWN: &str = "oooc.peak_rss_is_own";

pub struct SimOooc {
    n: usize,
    band: usize,
    cache_bytes: usize,
    raw: PathBuf,
    packed: PathBuf,
    answers: Vec<(&'static str, Answer)>,
    /// `VmHWM` after the first round, MiB.
    peak_rss_mib: Option<f64>,
    peak_is_own: bool,
}

impl SimOooc {
    pub fn setup(sizes: &Sizes, seed: u64, dir: &Path) -> Result<SimOooc> {
        let (raw, packed) = (dir.join("oooc-raw.smc"), dir.join("oooc-packed.smc"));
        data::write_smc(
            sizes.oooc_n,
            sub_seed(seed, "oooc"),
            &[
                (&raw, BinaryEncoding::Raw),
                (&packed, BinaryEncoding::Packed),
            ],
        )?;
        Ok(SimOooc {
            n: sizes.oooc_n,
            band: sizes.oooc_band,
            cache_bytes: sizes.oooc_cache_bytes,
            raw,
            packed,
            answers: Vec::new(),
            peak_rss_mib: None,
            peak_is_own: false,
        })
    }

    fn run(
        &self,
        ctx: &Ctx,
        path: &Path,
        traced: bool,
        parent: u32,
    ) -> Result<(Answer, Option<OoocStats>)> {
        let off = MetricsSink::disabled();
        let store = {
            let _span = ctx.tracer.span("BinaryStore::open", "format", parent);
            BinaryStore::open(path)?
        };
        if !traced {
            let output =
                run_similarity_oooc(&store, TOP_K, self.band, self.cache_bytes, THREADS, &off)?;
            return Ok((answer_of_output(&output)?, None));
        }
        // The same run taken apart at the one seam the program offers —
        // the `SeriesSource` it streams bands from. Loads and the
        // scoring between them are child spans recorded per worker, so
        // what is left of this span is the engine's scheduling and the
        // final merge.
        let source = SmcSource::over(&store, self.band, self.cache_bytes);
        let span = ctx.tracer.span("top_k_source_with", "engines", parent);
        let bands = TracedBands {
            inner: &source,
            tracer: &ctx.tracer,
            // Raw bands are the engine's copy out of the mapping;
            // packed bands are decoded by the format's group cache.
            layer: if source.is_mapped() {
                "engines"
            } else {
                "format"
            },
            parent: span.id(),
            last_load_end: Mutex::new(HashMap::new()),
        };
        let (matches, stats) = top_k_source_with(&bands, None, TOP_K, self.band, THREADS, &off)?;
        bands.finish(ctx.tracer.now_ns());
        Ok((answer_of_indices(&matches), Some(stats)))
    }
}

impl Group for SimOooc {
    fn round_key(&self) -> &'static str {
        "round_s.oooc"
    }

    fn round(&mut self, ctx: &Ctx, traced: bool, parent: u32, lap: &mut Lap) -> Result<()> {
        // The peak is taken over the first round only — the process's
        // first out-of-core calls, every mapping and buffer new. Later
        // rounds run on whatever the allocator's per-thread arenas have
        // kept from all four groups, which grows by tens of MiB a round
        // and says nothing about this code. The kernel's high-water
        // mark is restarted first, so set-up does not count; where the
        // kernel refuses, the peak is the process's so far.
        let first = self.peak_rss_mib.is_none();
        if first {
            self.peak_is_own = std::fs::write("/proc/self/clear_refs", "5").is_ok();
        }
        for (metric, path) in [
            ("oooc_raw_s", self.raw.clone()),
            ("oooc_packed_s", self.packed.clone()),
        ] {
            let span = ctx.tracer.span(metric, BENCH_LAYER, parent);
            let before = snapshot();
            let (answer, stats) = lap.time(metric, || self.run(ctx, &path, traced, span.id()))?;
            if metric == "oooc_packed_s" {
                // What the program counted over this packed run: the
                // format's cache counters, and (where the run was taken
                // apart) the scheduler's own statistics.
                let counted: FormatCounters = snapshot().since(&before);
                let lookups = (counted.cache_hits + counted.cache_misses).max(1);
                lap.push(
                    "format.cache_hit_ratio",
                    counted.cache_hits as f64 / lookups as f64,
                );
                lap.push("format.cache_evictions", counted.cache_evictions as f64);
                lap.push("format.blocks_decoded", counted.blocks_decoded as f64);
                if let Some(stats) = stats {
                    lap.push("engines.oooc_bands_loaded", stats.bands_loaded as f64);
                    lap.push("engines.oooc_bytes_streamed", stats.bytes_streamed as f64);
                }
            }
            self.answers.push((metric, answer));
        }
        if first {
            self.peak_rss_mib = peak_rss_mib();
        }
        let peak = self
            .peak_rss_mib
            .ok_or_else(|| Error::Invalid("cannot read VmHWM".into()))?;
        lap.push("oooc_peak_rss_mib", peak);
        lap.push(PEAK_IS_OWN, f64::from(u8::from(self.peak_is_own)));
        Ok(())
    }

    /// Both tiers of every round against `top_k_matrix` on the matrix
    /// materialized from the raw file's rows, bit for bit.
    fn verify(&self, tally: &mut Tally) -> Result<()> {
        let store = Arc::new(BinaryStore::open(&self.raw)?);
        let ids = store.consumer_ids()?;
        let dense = ids.iter().enumerate().all(|(i, id)| id.raw() as usize == i);
        tally.check(dense && ids.len() == self.n, || {
            "out-of-core file does not hold consumers 0..n".into()
        });
        let builder = SeriesMatrixBuilder::new(ids.len(), store.file().hours());
        let mut row = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            store.read_consumer_into(*id, &mut row)?;
            builder.set_row_normalized(i, &row);
        }
        let matrix = builder.finish();
        let (matches, _) = top_k_matrix(&matrix, TOP_K, THREADS, &MetricsSink::disabled());
        let want = answer_of_indices(&matches);
        for (metric, got) in &self.answers {
            tally.check(*got == want, || {
                format!("{metric}: out-of-core answer differs from the in-memory kernel")
            });
        }
        Ok(())
    }
}
