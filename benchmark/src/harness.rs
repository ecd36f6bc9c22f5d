//! The measuring loop shared by every phase group, and the tally of
//! checked operations.
//!
//! A run is measured in **rounds**: one round runs each timed operation
//! of each group once, so the samples of every metric are spread over
//! the whole measuring window instead of bunched together. Rounds
//! repeat until the time budget is spent — at least [`MIN_ROUNDS`] —
//! after a discarded warm-up (first rounds run 15–20 % slow here:
//! fresh-file faults, first-touch pages).
//!
//! The machine is a few vCPUs of a shared host. What the other tenants
//! do reaches a sample in two ways: the hypervisor runs someone else on
//! the vCPU (steal time, which the kernel reports), or someone else's
//! thread shares the physical core (no trace anywhere; scalar code then
//! runs 1.4× slower for seconds at a time). Both only ever slow a
//! sample down, so the samples of one operation are its undisturbed
//! time plus a ragged slow tail whose weight changes from minute to
//! minute. A metric is therefore the **mean of its three fastest
//! samples** ([`crate::stats::reduce`]) — the time the operation takes
//! when the machine leaves it alone — which repeats from run to run
//! where the median follows the tenants.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use smda_types::Result;

use crate::trace::{Tracer, BENCH_LAYER};

/// Timed rounds a group runs at least.
pub const MIN_ROUNDS: usize = 7;

/// Timed rounds of each kind (plain, traced) a group runs at least in
/// trace mode; four of each keeps a traced run about as long as an
/// untraced one.
pub const MIN_ROUNDS_PER_KIND: usize = 4;

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
pub const TICKS_PER_SECOND: f64 = 100.0;

/// Rounds a group runs at most, however large its budget.
pub const MAX_ROUNDS: usize = 200;

/// What every round needs to know about the run it is part of.
pub struct Ctx {
    pub tracer: Arc<Tracer>,
    /// `--trace 1`: every other timed round records spans.
    pub trace_mode: bool,
    /// The CPU the run is pinned to ([`crate::machine::Pinned`]), if any.
    pub cpu: Option<usize>,
}

/// Operations checked and operations that failed their check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one checked operation; `what` names it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    /// Failed operations as a share of those attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Process exit code: non-zero as soon as one check failed.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.failed > 0)
    }
}

/// Steal time so far, in clock ticks, of CPU `cpu` or of all CPUs, and
/// how many CPUs that covers: the time the hypervisor ran something else
/// while a vCPU of this machine had work (eighth number of a `cpu` line
/// of `/proc/stat`). 0 ticks where the file or the column is missing.
/// The noise sentinel of a run.
pub fn stolen_ticks(cpu: Option<usize>) -> (f64, usize) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = |line: &str| line.split_whitespace().nth(8)?.parse().ok();
    let per_cpu = |l: &&str| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit);
    let label = cpu.map_or("cpu".to_owned(), |c| format!("cpu{c}"));
    let line = stat.lines().find(|l| l.split_whitespace().next() == Some(label.as_str()));
    let cpus = match cpu {
        Some(_) => 1,
        None => stat.lines().filter(per_cpu).count().max(1),
    };
    (line.and_then(ticks).unwrap_or(0.0), cpus)
}

/// The values one round produced, by metric name. A name pushed several
/// times in a round (per-query latencies) keeps every value.
#[derive(Debug, Default)]
pub struct Lap {
    values: Vec<(&'static str, f64)>,
}

impl Lap {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Run `f`, record its wall time in seconds under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let start = Instant::now();
        let out = f()?;
        self.push(name, start.elapsed().as_secs_f64());
        Ok(out)
    }
}

/// One phase group: a set of timed operations over inputs of its own.
pub trait Group {
    /// Name of the group's per-round wall-time samples and of its root
    /// spans, `round_s.<group>`.
    fn round_key(&self) -> &'static str;

    /// Run each of the group's timed operations once, recording values
    /// into `lap` and — when `traced` — spans under `parent`.
    fn round(&mut self, ctx: &Ctx, traced: bool, parent: u32, lap: &mut Lap) -> Result<()>;

    /// Check every answer the rounds produced (warm-up included).
    fn verify(&self, tally: &mut Tally) -> Result<()>;
}

/// Samples per metric name over the timed rounds.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

/// What [`run_rounds`] measured.
#[derive(Debug, Default)]
pub struct Rounds {
    /// Rounds run with tracing off — the only kind in an untraced run.
    pub plain: Samples,
    /// Rounds run with spans recorded (`--trace 1` only).
    pub traced: Samples,
    pub warmup_rounds: usize,
    pub timed_rounds: usize,
    pub seconds: f64,
    /// Share of the CPU time of the run's CPU (of all CPUs when it is not
    /// pinned) that was stolen over the measuring loop.
    pub stolen_share: f64,
}

/// Measure `groups` for `budget_s` seconds: a discarded warm-up, then
/// timed rounds in which every group takes its turn, so that each
/// metric's samples are spread over the whole run and a loud stretch
/// costs every metric a few samples, not one metric all of them. In
/// trace mode timed rounds alternate
/// plain and traced, so both kinds see the same machine states; each
/// group's wall time per round is recorded under its round key, and the
/// ratio of the two kinds is the tracing overhead.
pub fn run_rounds(ctx: &Ctx, budget_s: f64, groups: &mut [Box<dyn Group + '_>]) -> Result<Rounds> {
    let started = Instant::now();
    let (stolen_before, _) = stolen_ticks(ctx.cpu);
    let mut out = Rounds::default();
    ctx.tracer.set_on(false);
    let warmup_s = (0.1 * budget_s).min(1.0);
    while out.warmup_rounds == 0
        || (started.elapsed().as_secs_f64() < warmup_s && out.warmup_rounds < MAX_ROUNDS)
    {
        for group in groups.iter_mut() {
            group.round(ctx, false, 0, &mut Lap::default())?;
        }
        out.warmup_rounds += 1;
    }
    let min_rounds = if ctx.trace_mode {
        2 * MIN_ROUNDS_PER_KIND
    } else {
        MIN_ROUNDS
    };
    while out.timed_rounds < min_rounds
        || (started.elapsed().as_secs_f64() < budget_s && out.timed_rounds < MAX_ROUNDS)
    {
        let traced = ctx.trace_mode && out.timed_rounds % 2 == 1;
        ctx.tracer.set_on(traced);
        ctx.tracer.set_rep(out.timed_rounds as u32);
        let mut lap = Lap::default();
        for group in groups.iter_mut() {
            let round_started = Instant::now();
            {
                let root = ctx.tracer.span(group.round_key(), BENCH_LAYER, 0);
                group.round(ctx, traced, root.id(), &mut lap)?;
            }
            lap.push(group.round_key(), round_started.elapsed().as_secs_f64());
        }
        ctx.tracer.set_on(false);
        let into = if traced {
            &mut out.traced
        } else {
            &mut out.plain
        };
        for (name, value) in lap.values {
            into.entry(name).or_default().push(value);
        }
        out.timed_rounds += 1;
    }
    out.seconds = started.elapsed().as_secs_f64();
    let (stolen_after, cpus) = stolen_ticks(ctx.cpu);
    out.stolen_share =
        (stolen_after - stolen_before) / (TICKS_PER_SECOND * out.seconds * cpus as f64);
    Ok(out)
}

/// Wall time of `f` in seconds — `reps` timed calls after one discarded
/// warm-up call, reduced like every timing — for the per-layer probes
/// and the calibrations.
pub fn fastest_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::reduce("s", &samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_sets_the_share_and_the_exit_code() {
        let mut tally = Tally::default();
        tally.check(true, || unreachable!());
        assert_eq!((tally.exit_code(), tally.failed_share()), (0, 0.0));
        tally.check(false, || "row 3 differs".into());
        assert_eq!(tally.exit_code(), 1);
        assert_eq!(tally.failed_share(), 0.5);
        assert_eq!(tally.failures, ["row 3 differs"]);
    }

    struct Counting {
        calls: usize,
    }

    impl Group for Counting {
        fn round_key(&self) -> &'static str {
            "round_s"
        }

        fn round(&mut self, _: &Ctx, traced: bool, parent: u32, lap: &mut Lap) -> Result<()> {
            self.calls += 1;
            assert_eq!(traced, parent != 0, "a traced round has a root span");
            lap.push("x", 1.0);
            lap.push("x", 2.0);
            Ok(())
        }

        fn verify(&self, _: &mut Tally) -> Result<()> {
            Ok(())
        }
    }

    #[test]
    fn rounds_alternate_plain_and_traced_only_in_trace_mode() {
        for trace_mode in [false, true] {
            let ctx = Ctx {
                tracer: Arc::new(Tracer::new()),
                trace_mode,
                cpu: None,
            };
            let mut groups: Vec<Box<dyn Group>> = vec![
                Box::new(Counting { calls: 0 }),
                Box::new(Counting { calls: 0 }),
            ];
            let rounds = run_rounds(&ctx, 0.0, &mut groups).unwrap();
            assert_eq!(rounds.warmup_rounds, 1);
            if trace_mode {
                assert_eq!(rounds.timed_rounds, 2 * MIN_ROUNDS_PER_KIND);
                assert_eq!(rounds.plain["round_s"].len(), 2 * MIN_ROUNDS_PER_KIND);
                assert_eq!(rounds.traced["x"].len(), 4 * MIN_ROUNDS_PER_KIND);
                let spans = ctx.tracer.take();
                assert_eq!(spans.len(), 2 * MIN_ROUNDS_PER_KIND);
                assert!(spans.iter().all(|s| s.name == "round_s" && s.rep % 2 == 1));
            } else {
                assert_eq!(rounds.timed_rounds, MIN_ROUNDS);
                assert_eq!(rounds.plain["x"].len(), 4 * MIN_ROUNDS);
                assert_eq!(rounds.plain["round_s"].len(), 2 * MIN_ROUNDS);
                assert!(rounds.traced.is_empty());
                assert!(ctx.tracer.take().is_empty());
            }
        }
    }
}
