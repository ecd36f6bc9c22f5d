//! One run of one workload: calibrate, set up and measure the four
//! groups, verify every answer, calibrate again, and reduce the samples
//! to the metrics of the result line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use smda_types::{Error, Result};

use crate::batch::Batch;
use serde::json::Value;

use crate::catalog::{Sizes, END_TO_END, PER_LAYER, THREADS};
use crate::harness::{run_rounds, Ctx, Group, Rounds, Samples, Tally};
use crate::layers;
use crate::machine::{calibrate, Machine, Pinned, NOISE_BOUND, STOLEN_BOUND};
use crate::online::{Online, LATENCY_MS};
use crate::oooc::SimOooc;
use crate::sim::SimInmem;
use crate::stats::{
    fastest_mean, highest_supported_percentile, percentile, quantile, quartiles, reduce,
};
use crate::trace::{layer_shares, under_root, write_spans, Tracer};

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Seconds to measure for (warm-ups included, set-up, verification
    /// and calibration excluded).
    pub seconds: f64,
    pub trace: bool,
    /// Directory for the span file, the report and scratch data.
    pub out: PathBuf,
    /// Sizes overriding the workload's own (tests only).
    pub sizes: Option<Sizes>,
}

/// Times the set-up of the groups is repeated; reduced like every
/// timing.
const SETUP_REPS: usize = 9;

/// Per-sample values the report lists for one name, at most.
const REPORT_VALUES: usize = 200;

/// Scratch directory of one run, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create(out: &Path) -> Result<Scratch> {
        let dir = out.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| Error::io(format!("create {dir:?}"), e))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `setup` [`SETUP_REPS`] times, dropping each result before the
/// next so only one copy of the inputs is ever resident; returns the
/// set-up times and the last result.
fn setup_repeatedly<T>(mut setup: impl FnMut() -> Result<T>) -> Result<(Vec<f64>, T)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((times, kept.expect("SETUP_REPS > 0")))
}

/// Everything a finished run knows.
pub struct Outcome {
    pub tally: Tally,
    /// `(name, unit, value)` of every metric of the requested kind.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// The detailed report, a JSON object.
    pub report: String,
    pub noisy: bool,
}

/// A JSON object from its members, in order.
fn object<K: AsRef<str>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.as_ref().to_owned(), v))
            .collect(),
    )
}

fn text(s: &str) -> Value {
    Value::String(s.to_owned())
}

impl Outcome {
    /// The result line the driver reads.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|(name, unit, value)| {
            let metric = object([("value", Value::Number(*value)), ("unit", text(unit))]);
            (*name, metric)
        });
        object([
            ("correct", Value::Bool(self.tally.failed == 0)),
            ("attempted", Value::Number(self.tally.attempted as f64)),
            ("failed", Value::Number(self.tally.failed as f64)),
            ("metrics", object(metrics)),
        ])
        .to_compact_string()
    }
}

/// The samples of a finished measuring loop, and how they reduce.
struct Measured {
    setup_s: Vec<f64>,
    rounds: Rounds,
}

impl Measured {
    /// Samples of `name` from plain rounds — the only ones end-to-end
    /// metrics are reduced from — or, for a value only the taken-apart
    /// traced calls can see, from traced rounds.
    fn samples(&self, name: &str) -> Result<&[f64]> {
        let (plain, traced) = (&self.rounds.plain, &self.rounds.traced);
        match plain.get(name).or_else(|| traced.get(name)) {
            Some(v) if !v.is_empty() => Ok(v),
            _ => Err(Error::Invalid(format!("no samples of `{name}` were taken"))),
        }
    }

    fn end_to_end(&self, name: &str, unit: &str) -> Result<f64> {
        if name == "setup_s" {
            return Ok(reduce(unit, &self.setup_s));
        }
        Ok(reduce(unit, self.samples(name)?))
    }

    /// A per-layer metric that comes out of the groups' own rounds;
    /// `None` for the ones [`layers::probe`] and the spans supply.
    fn per_layer(&self, name: &str, unit: &str) -> Result<Option<f64>> {
        Ok(match name {
            "serve.p999_ms" => {
                let mut sorted = self.samples(LATENCY_MS)?.to_vec();
                sorted.sort_by(f64::total_cmp);
                Some(percentile(&sorted, 99.9))
            }
            "obs.trace_overhead_pct" => {
                let total = |samples: &Samples| -> f64 {
                    samples
                        .iter()
                        .filter(|(name, _)| name.starts_with("round_s."))
                        .map(|(_, v)| reduce("s", v))
                        .sum()
                };
                Some((total(&self.rounds.traced) / total(&self.rounds.plain) - 1.0) * 100.0)
            }
            _ => self.samples(name).ok().map(|v| reduce(unit, v)),
        })
    }
}

/// Set up the four groups, in the order a round takes them: the
/// out-of-core group first, so that its peak-RSS reading is taken before
/// the other groups have run.
fn setup_groups(sizes: &Sizes, seed: u64, dir: &Path) -> Result<Vec<Box<dyn Group>>> {
    Ok(vec![
        Box::new(SimOooc::setup(sizes, seed, dir)?),
        Box::new(Batch::setup(sizes, seed, dir)?),
        Box::new(SimInmem::setup(sizes, seed)?),
        Box::new(Online::setup(sizes, seed, dir)?),
    ])
}

/// The ceiling a per-layer rate is compared with, by its unit and kind.
fn ceiling_of(name: &str, unit: &str, machine: &Machine) -> Option<f64> {
    let copies = ["write", "band_load", "normalize"]
        .iter()
        .any(|w| name.contains(w));
    match unit {
        _ if name.starts_with("machine.") => None,
        "GFLOP/s" => Some(machine.dot_scalar_gflops),
        "GB/s" if copies => Some(machine.memcpy_gb_per_s),
        "GB/s" => Some(machine.read_gb_per_s),
        "MB/s" if copies => Some(machine.memcpy_gb_per_s * 1e3),
        "MB/s" => Some(machine.read_gb_per_s * 1e3),
        _ => None,
    }
}

/// Round keys of the four groups, in the order a round takes them.
const GROUPS: [&str; 4] = [
    "round_s.oooc",
    "round_s.batch",
    "round_s.sim",
    "round_s.online",
];

/// The per-layer values of a traced run — probes, calibrations, span
/// shares, and what the rounds counted — and the dominance table (per
/// group, each layer's share of the thread time). Writes the span file.
fn per_layer_values(
    args: &Args,
    sizes: &Sizes,
    scratch: &Path,
    run: &Measured,
    machine: &Machine,
    tracer: &Tracer,
) -> Result<(BTreeMap<&'static str, f64>, Value)> {
    let mut values = layers::probe(sizes.layer_probe_n, args.seed, scratch)?;
    values.extend(machine.named());
    let spans = tracer.take();
    let path = args.out.join(format!("trace-{}.json", args.workload));
    write_spans(&path, &args.workload, args.seed, &spans)
        .map_err(|e| Error::io(format!("write {path:?}"), e))?;
    let shares = layer_shares(&spans);
    for (name, unit) in PER_LAYER {
        let layer = name
            .strip_prefix("share.")
            .and_then(|n| n.strip_suffix("_pct"));
        if let Some(layer) = layer {
            values.insert(name, 100.0 * shares.get(layer).copied().unwrap_or(0.0));
        } else if let Some(v) = run.per_layer(name, unit)? {
            values.insert(name, v);
        }
    }
    let dominance = object(GROUPS.map(|group| {
        let shares = layer_shares(&under_root(&spans, group));
        let percent = shares
            .into_iter()
            .map(|(layer, share)| (layer, Value::Number(100.0 * share)));
        (group.trim_start_matches("round_s."), object(percent))
    }));
    Ok((values, dominance))
}

/// Run one workload and reduce it to its metrics.
pub fn run(args: &Args) -> Result<Outcome> {
    let sizes = match args.sizes {
        Some(sizes) => sizes,
        None => Sizes::of(&args.workload)
            .ok_or_else(|| Error::Invalid(format!("unknown workload `{}`", args.workload)))?,
    };
    let scratch = Scratch::create(&args.out)?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Before the first thread is spawned, so that every thread inherits it.
    let pinned = Pinned::here();
    let tracer = Arc::new(Tracer::new());
    let ctx = Ctx {
        tracer: tracer.clone(),
        trace_mode: args.trace,
        cpu: pinned.as_ref().map(|p| p.cpu),
    };

    let before = calibrate();
    let (setup_s, mut groups) = setup_repeatedly(|| setup_groups(&sizes, args.seed, &scratch.0))?;
    let rounds = run_rounds(&ctx, args.seconds, &mut groups)?;
    let after = calibrate();
    let mut tally = Tally::default();
    for group in &groups {
        group.verify(&mut tally)?;
    }
    drop(groups);
    let run = Measured { setup_s, rounds };
    let drift = before.drift(&after);
    let noisy = drift > NOISE_BOUND || run.rounds.stolen_share > STOLEN_BOUND;
    let machine = before.ceiling(&after);

    // The probes of the pool and of two-thread scaling need both CPUs.
    drop(pinned);
    let mut dominance = Value::Null;
    let (listed, values) = if args.trace {
        let (values, table) = per_layer_values(args, &sizes, &scratch.0, &run, &machine, &tracer)?;
        dominance = table;
        (PER_LAYER, values)
    } else {
        let values = END_TO_END
            .iter()
            .map(|(name, unit)| Ok((*name, run.end_to_end(name, unit)?)))
            .collect::<Result<_>>()?;
        (END_TO_END, values)
    };
    let metrics = listed
        .iter()
        .map(|(name, unit)| match values.get(name) {
            Some(v) if v.is_finite() => Ok((*name, *unit, *v)),
            other => Err(Error::Invalid(format!(
                "metric `{name}` has no finite value: {other:?}"
            ))),
        })
        .collect::<Result<Vec<_>>>()?;

    // The report: everything above, plus what the result line has no
    // room for — quartiles, sample counts, both calibrations, sizes.
    let number = Value::Number;
    let setup_samples = [("setup_s", &run.setup_s)];
    let sampled = setup_samples.into_iter().chain(
        run.rounds
            .plain
            .iter()
            .map(|(name, samples)| (*name, samples)),
    );
    let samples = sampled.map(|(name, samples)| {
        let (q1, median, q3) = quartiles(samples);
        // Per-request samples are summarized only; per-round ones are
        // few enough to keep, in the order taken.
        let values = samples.iter().take(REPORT_VALUES).copied().map(number);
        let summary = object([
            ("n", number(samples.len() as f64)),
            ("fastest_mean", number(fastest_mean(samples, false))),
            ("p10", number(quantile(samples, 0.1))),
            ("q1", number(q1)),
            ("median", number(median)),
            ("q3", number(q3)),
            ("p90", number(quantile(samples, 0.9))),
            ("highest_mean", number(fastest_mean(samples, true))),
            ("values", Value::Array(values.collect())),
        ]);
        (name, summary)
    });
    let with_ceiling = metrics.iter().map(|(name, unit, value)| {
        let mut fields = vec![("value", number(*value)), ("unit", text(unit))];
        if let Some(ceiling) = ceiling_of(name, unit, &machine) {
            fields.push(("of_ceiling", number(value / ceiling)));
        }
        (*name, object(fields))
    });
    let latency_n = run.rounds.plain.get(LATENCY_MS).map_or(0, Vec::len);
    let machine_json = |m: &Machine| object(m.named().map(|(name, v)| (name, number(v))));
    let report = object([
        ("workload", text(&args.workload)),
        ("seed", number(args.seed as f64)),
        ("seconds", number(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("threads", number(THREADS as f64)),
        ("available_parallelism", number(nproc as f64)),
        ("pinned_cpu", ctx.cpu.map_or(Value::Null, |c| number(c as f64))),
        (
            "cold_means",
            text(
                "process-cold: fresh open, nothing decoded; the file stays in the OS page \
                 cache, which the sandbox cannot drop",
            ),
        ),
        ("sizes", text(&format!("{sizes:?}"))),
        ("measured_s", number(run.rounds.seconds)),
        ("warmup_rounds", number(run.rounds.warmup_rounds as f64)),
        ("timed_rounds", number(run.rounds.timed_rounds as f64)),
        ("machine_before", machine_json(&before)),
        ("machine_after", machine_json(&after)),
        ("machine_drift", number(drift)),
        ("stolen_share", number(run.rounds.stolen_share)),
        ("noisy", Value::Bool(noisy)),
        (
            "latency_percentile_supported",
            number(highest_supported_percentile(latency_n).unwrap_or(0.0)),
        ),
        ("attempted", number(tally.attempted as f64)),
        ("failed", number(tally.failed as f64)),
        ("failed_share", number(tally.failed_share())),
        (
            "failures",
            Value::Array(tally.failures.iter().map(|f| text(f)).collect()),
        ),
        ("metrics", object(with_ceiling)),
        ("dominance_pct", dominance),
        ("samples", object(samples)),
    ]);
    Ok(Outcome {
        tally,
        metrics,
        report: report.to_compact_string(),
        noisy,
    })
}
