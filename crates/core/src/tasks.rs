//! A unified handle on the four benchmark tasks.
//!
//! The platform engines and the experiment harness all need to run "one of
//! the four tasks" generically; this module gives them a shared vocabulary.
//! Three of the four are one function of *(one consumer's year, the shared
//! temperature year)*: [`ConsumerTask`] is that function, and every
//! platform — the batch fan-out, the cluster map side, Hive's and Spark's
//! operators, the serving layer's miss path, and [`run_reference`] — is a
//! way of driving it.

use crate::histogram_task::ConsumerHistogram;
use crate::par::{fit_par_scratch, ParModel};
use crate::similarity::{similarity_search, ConsumerMatches, SIMILARITY_TOP_K};
use crate::three_line::{fit_three_line_scratch, ThreeLineConfig, ThreeLineModel};
use smda_stats::{with_fit_scratch, FitScratch};
use smda_types::{ConsumerId, ConsumerSeries, Dataset, Error, Result, TemperatureSeries};

/// The four benchmark tasks of Section 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Section 3.1: per-consumer 10-bucket consumption histograms.
    Histogram,
    /// Section 3.2: piecewise thermal-sensitivity regression.
    ThreeLine,
    /// Section 3.3: periodic auto-regression daily profiles.
    Par,
    /// Section 3.4: top-10 cosine similarity search.
    Similarity,
}

impl Task {
    /// All four tasks in the paper's presentation order.
    pub const ALL: [Task; 4] = [
        Task::Histogram,
        Task::ThreeLine,
        Task::Par,
        Task::Similarity,
    ];

    /// The name used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Task::Histogram => "Histogram",
            Task::ThreeLine => "3-line",
            Task::Par => "PAR",
            Task::Similarity => "Similarity",
        }
    }

    /// Whether the task is embarrassingly parallel over consumers
    /// (everything but similarity search, which is all-pairs).
    pub fn per_consumer(&self) -> bool {
        !matches!(self, Task::Similarity)
    }

    /// Whether the task reads the temperature year beside the readings
    /// (the two model fits; a histogram and a cosine do not).
    pub fn reads_temperature(&self) -> bool {
        matches!(self, Task::ThreeLine | Task::Par)
    }
}

impl std::fmt::Display for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Output of one benchmark task: a pure value, a function of the dataset
/// alone. What a run *cost* is the metrics sink's to say.
#[derive(Debug, Clone)]
pub enum TaskOutput {
    /// Histograms, one per consumer.
    Histograms(Vec<ConsumerHistogram>),
    /// 3-line models, one per consumer whose year supports one.
    ThreeLine(Vec<ThreeLineModel>),
    /// PAR models, one per consumer.
    Par(Vec<ParModel>),
    /// Similarity matches, one list per consumer.
    Similarity(Vec<ConsumerMatches>),
}

/// Pairwise `eq` over two equally long slices.
fn all_eq<T>(a: &[T], b: &[T], eq: impl Fn(&T, &T) -> bool) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| eq(x, y))
}

impl TaskOutput {
    /// How many per-consumer results the task produced.
    pub fn len(&self) -> usize {
        match self {
            TaskOutput::Histograms(v) => v.len(),
            TaskOutput::ThreeLine(v) => v.len(),
            TaskOutput::Par(v) => v.len(),
            TaskOutput::Similarity(v) => v.len(),
        }
    }

    /// True when the task produced no results.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which task produced this output.
    pub fn task(&self) -> Task {
        match self {
            TaskOutput::Histograms(_) => Task::Histogram,
            TaskOutput::ThreeLine(_) => Task::ThreeLine,
            TaskOutput::Par(_) => Task::Par,
            TaskOutput::Similarity(_) => Task::Similarity,
        }
    }

    /// Assemble the output of per-consumer `task` from its results, in the
    /// order given. Results of another task are dropped.
    ///
    /// # Panics
    /// Panics for [`Task::Similarity`], whose output is not made of
    /// per-consumer results.
    pub fn from_results(task: Task, results: impl IntoIterator<Item = ConsumerResult>) -> Self {
        let mut out = match task {
            Task::Histogram => TaskOutput::Histograms(Vec::new()),
            Task::ThreeLine => TaskOutput::ThreeLine(Vec::new()),
            Task::Par => TaskOutput::Par(Vec::new()),
            Task::Similarity => unreachable!("similarity outputs are not per-consumer results"),
        };
        for result in results {
            match (&mut out, result) {
                (TaskOutput::Histograms(v), ConsumerResult::Histogram(h)) => v.push(h),
                (TaskOutput::ThreeLine(v), ConsumerResult::ThreeLine(m)) => v.push(m),
                (TaskOutput::Par(v), ConsumerResult::Par(p)) => v.push(*p),
                _ => {}
            }
        }
        out
    }

    /// The same task, the same consumers in the same order, and every
    /// result the same to the bit — the comparison this repo's
    /// cross-platform identity is stated in. Unlike `==` it tells `0.0`
    /// from `-0.0` and finds a NaN equal to itself. Each result type
    /// defines its own bits (`bits_eq`); nothing else enumerates them.
    pub fn bits_eq(&self, other: &TaskOutput) -> bool {
        match (self, other) {
            (TaskOutput::Histograms(a), TaskOutput::Histograms(b)) => {
                all_eq(a, b, ConsumerHistogram::bits_eq)
            }
            (TaskOutput::ThreeLine(a), TaskOutput::ThreeLine(b)) => {
                all_eq(a, b, ThreeLineModel::bits_eq)
            }
            (TaskOutput::Par(a), TaskOutput::Par(b)) => all_eq(a, b, ParModel::bits_eq),
            (TaskOutput::Similarity(a), TaskOutput::Similarity(b)) => {
                all_eq(a, b, ConsumerMatches::bits_eq)
            }
            _ => false,
        }
    }
}

/// The per-consumer result of one of the three parallelizable tasks —
/// the unit cluster engines shuffle and emit. A series too degenerate for
/// a 3-line fit has *no* result; there is no empty one.
#[derive(Debug, Clone)]
pub enum ConsumerResult {
    /// A Section 3.1 histogram.
    Histogram(ConsumerHistogram),
    /// A Section 3.2 model.
    ThreeLine(ThreeLineModel),
    /// A Section 3.3 PAR model.
    Par(Box<ParModel>),
}

impl ConsumerResult {
    /// The household the result describes.
    pub fn consumer(&self) -> ConsumerId {
        match self {
            ConsumerResult::Histogram(h) => h.consumer,
            ConsumerResult::ThreeLine(m) => m.consumer,
            ConsumerResult::Par(p) => p.consumer,
        }
    }
}

/// One per-consumer task bound to the temperature year it reads: the one
/// kernel under every platform. Built once per run — the task is checked
/// to be per-consumer and the temperature year to be valid *there*, never
/// per consumer — then run consumer by consumer through a caller's
/// [`FitScratch`].
///
/// A run's value is a function of `(task, temperature year, id,
/// readings)` alone: no clock, no arena state, no thread count reaches it.
#[derive(Debug, Clone, Copy)]
pub struct ConsumerTask<'t> {
    task: Task,
    /// Valid by construction when the task reads it; not looked at (and
    /// possibly empty) when it does not.
    temps: &'t [f64],
}

impl<'t> ConsumerTask<'t> {
    /// Bind `task` to a lent temperature year, held to
    /// [`TemperatureSeries::validate`] if the task reads it.
    ///
    /// # Errors
    /// [`Error::NotPerConsumer`] for [`Task::Similarity`], which is
    /// all-pairs; whatever the validation finds wrong with `temps`.
    pub fn new(task: Task, temps: &'t [f64]) -> Result<Self> {
        if !task.per_consumer() {
            return Err(Error::NotPerConsumer(task.name().to_owned()));
        }
        if task.reads_temperature() {
            TemperatureSeries::validate(temps)?;
        }
        Ok(ConsumerTask { task, temps })
    }

    /// Bind `task` to a temperature year whose type already carries the
    /// verdict — for a caller that chose the task in code, so that nothing
    /// is left to refuse. A task that arrives as data goes through
    /// [`ConsumerTask::new`].
    ///
    /// # Panics
    /// Panics for [`Task::Similarity`], which is all-pairs.
    pub fn over(task: Task, temperature: &'t TemperatureSeries) -> Self {
        assert!(task.per_consumer(), "{task} is not a per-consumer task");
        ConsumerTask {
            task,
            temps: temperature.values(),
        }
    }

    /// Run on a lent year of readings, held to
    /// [`ConsumerSeries::validate`] at the door. `None` is a year too
    /// degenerate for the task's model (3-line only).
    ///
    /// # Errors
    /// Whatever the validation finds wrong with `kwh`.
    pub fn run(
        &self,
        id: ConsumerId,
        kwh: &[f64],
        scratch: &mut FitScratch,
    ) -> Result<Option<ConsumerResult>> {
        ConsumerSeries::validate(id, kwh)?;
        Ok(self.fit(id, kwh, scratch))
    }

    /// Run on a series that is valid by construction: no door, and so no
    /// error to report.
    pub fn run_series(
        &self,
        series: &ConsumerSeries,
        scratch: &mut FitScratch,
    ) -> Option<ConsumerResult> {
        self.fit(series.id, series.readings(), scratch)
    }

    /// Run, on the calling thread's arena, one household whose rows each
    /// carried the temperature beside the reading (text formats 1 and 3):
    /// the *pair* of years was assembled per household, so both doors are
    /// per household too — readings first, so a short year names its
    /// household.
    ///
    /// # Errors
    /// As [`ConsumerTask::new`] and [`ConsumerTask::run`].
    pub fn run_assembled(
        task: Task,
        id: ConsumerId,
        kwh: &[f64],
        temps: &[f64],
    ) -> Result<Option<ConsumerResult>> {
        ConsumerSeries::validate(id, kwh)?;
        let kernel = ConsumerTask::new(task, temps)?;
        Ok(with_fit_scratch(|scratch| kernel.fit(id, kwh, scratch)))
    }

    /// The task on a valid year against a valid temperature year.
    fn fit(&self, id: ConsumerId, kwh: &[f64], scratch: &mut FitScratch) -> Option<ConsumerResult> {
        match self.task {
            Task::Histogram => Some(ConsumerResult::Histogram(ConsumerHistogram::of_valid_year(
                id, kwh,
            ))),
            Task::ThreeLine => {
                fit_three_line_scratch(id, kwh, self.temps, &ThreeLineConfig::default(), scratch)
                    .map(ConsumerResult::ThreeLine)
            }
            Task::Par => Some(ConsumerResult::Par(Box::new(fit_par_scratch(
                id, kwh, self.temps, scratch,
            )))),
            Task::Similarity => unreachable!("refused at construction"),
        }
    }
}

/// Assemble a [`TaskOutput`] from per-consumer results, sorted by id —
/// for drivers whose results arrive in shuffle order.
pub fn collect_consumer_results(task: Task, mut results: Vec<ConsumerResult>) -> TaskOutput {
    results.sort_by_key(ConsumerResult::consumer);
    TaskOutput::from_results(task, results)
}

/// Run `task` single-threaded over an in-memory dataset, on the calling
/// thread's arena: the kernel driven in the plainest way there is, which
/// is what makes it the reference the platforms are compared against.
/// (The *oracles* the kernel itself is pinned to are
/// [`fit_three_line_baseline`](crate::fit_three_line_baseline) and
/// [`fit_par_baseline`](crate::fit_par_baseline).)
pub fn run_reference(task: Task, ds: &Dataset) -> TaskOutput {
    if task == Task::Similarity {
        return TaskOutput::Similarity(similarity_search(ds, SIMILARITY_TOP_K));
    }
    let kernel = ConsumerTask::over(task, ds.temperature());
    with_fit_scratch(|scratch| {
        let results = ds.consumers().iter();
        TaskOutput::from_results(task, results.filter_map(|c| kernel.run_series(c, scratch)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_types::HOURS_PER_YEAR;

    fn tiny() -> Dataset {
        let temp = TemperatureSeries::new(
            (0..HOURS_PER_YEAR)
                .map(|h| ((h % 40) as f64) - 10.0)
                .collect(),
        )
        .unwrap();
        let consumers = (0..3)
            .map(|i| {
                ConsumerSeries::new(
                    ConsumerId(i),
                    (0..HOURS_PER_YEAR)
                        .map(|h| 0.5 + 0.1 * ((h + i as usize * 3) % 24) as f64)
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        Dataset::new(consumers, temp).unwrap()
    }

    #[test]
    fn all_tasks_run_on_reference() {
        let ds = tiny();
        for task in Task::ALL {
            let out = run_reference(task, &ds);
            assert_eq!(out.task(), task);
            assert_eq!(out.len(), 3, "{task} produced wrong cardinality");
            assert!(!out.is_empty());
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Task::ThreeLine.to_string(), "3-line");
        assert_eq!(Task::Par.name(), "PAR");
    }

    #[test]
    fn parallelizability_flags() {
        assert!(Task::Histogram.per_consumer());
        assert!(Task::ThreeLine.per_consumer());
        assert!(Task::Par.per_consumer());
        assert!(!Task::Similarity.per_consumer());
    }

    #[test]
    fn similarity_on_consumer_path_is_a_typed_error() {
        let kwh: Vec<f64> = vec![0.5; HOURS_PER_YEAR];
        let temps = tiny().temperature().clone();
        let refusals = [
            ConsumerTask::new(Task::Similarity, temps.values()).map(|_| ()),
            ConsumerTask::run_assembled(Task::Similarity, ConsumerId(0), &kwh, temps.values())
                .map(|_| ()),
        ];
        for refusal in refusals {
            match refusal.unwrap_err() {
                Error::NotPerConsumer(task) => assert_eq!(task, "Similarity"),
                other => panic!("expected NotPerConsumer, got {other:?}"),
            }
        }
    }

    const PER_CONSUMER: [Task; 3] = [Task::Histogram, Task::ThreeLine, Task::Par];

    #[test]
    fn a_bad_temperature_year_is_refused_once_at_construction_not_per_consumer() {
        let mut temps = tiny().temperature().values().to_vec();
        temps[4321] = f64::NAN;
        for (task, year) in [
            (Task::ThreeLine, &temps[..]),
            (Task::Par, &temps[..]),
            (Task::Par, &temps[..HOURS_PER_YEAR - 1]),
        ] {
            let refused = ConsumerTask::new(task, year).unwrap_err();
            let want = TemperatureSeries::validate(year).unwrap_err();
            assert!(matches!(refused, Error::Schema(_)), "{task}: {refused:?}");
            assert_eq!(refused.to_string(), want.to_string(), "{task}");
        }
        // Histogram reads no temperature: any slice binds, an empty one too.
        assert!(ConsumerTask::new(Task::Histogram, &temps).is_ok());
        assert!(ConsumerTask::new(Task::Histogram, &[]).is_ok());
    }

    #[test]
    fn a_lent_year_is_held_to_the_door_by_every_task_and_a_series_has_none() {
        let ds = tiny();
        let good = ds.consumers()[0].readings();
        let mut nan = good.to_vec();
        nan[17] = f64::NAN;
        let mut negative = good.to_vec();
        negative[8000] = -0.125;
        let short = &good[..HOURS_PER_YEAR - 1];
        let mut scratch = FitScratch::new();
        for task in PER_CONSUMER {
            let kernel = ConsumerTask::new(task, ds.temperature().values()).unwrap();
            for bad in [&nan[..], &negative[..], short] {
                let want = ConsumerSeries::validate(ConsumerId(7), bad).unwrap_err();
                for refused in [
                    kernel.run(ConsumerId(7), bad, &mut scratch).unwrap_err(),
                    ConsumerTask::run_assembled(
                        task,
                        ConsumerId(7),
                        bad,
                        ds.temperature().values(),
                    )
                    .unwrap_err(),
                ] {
                    assert!(matches!(refused, Error::Schema(_)), "{task}: {refused:?}");
                    assert_eq!(refused.to_string(), want.to_string(), "{task}");
                }
            }
            // The arena is not left poisoned, and a series — valid by
            // construction — goes the same way with no error to return.
            let lent = kernel.run(ConsumerId(0), good, &mut scratch).unwrap();
            let owned = kernel.run_series(&ds.consumers()[0], &mut scratch);
            let (lent, owned) = (lent.into_iter(), owned.into_iter());
            assert!(TaskOutput::from_results(task, lent)
                .bits_eq(&TaskOutput::from_results(task, owned)));
        }
    }

    #[test]
    fn an_assembled_pair_of_years_names_its_household_before_its_weather() {
        let ds = tiny();
        let kwh = &ds.consumers()[1].readings()[..HOURS_PER_YEAR - 1];
        let temps = &ds.temperature().values()[..HOURS_PER_YEAR - 1];
        for task in PER_CONSUMER {
            let err = ConsumerTask::run_assembled(task, ConsumerId(1), kwh, temps).unwrap_err();
            assert!(
                err.to_string().contains(&ConsumerId(1).to_string()),
                "{err}"
            );
        }
        // A full household under a short temperature year: the year's error.
        let kwh = ds.consumers()[1].readings();
        let err = ConsumerTask::run_assembled(Task::Par, ConsumerId(1), kwh, temps).unwrap_err();
        assert!(err.to_string().contains("temperature series"), "{err}");
    }

    #[test]
    fn a_degenerate_year_has_no_result_rather_than_an_empty_one() {
        let flat = TemperatureSeries::new(vec![5.0; HOURS_PER_YEAR]).unwrap();
        let ds = Dataset::new(tiny().consumers().to_vec(), flat).unwrap();
        let mut scratch = FitScratch::new();
        let kernel = ConsumerTask::over(Task::ThreeLine, ds.temperature());
        assert!(kernel
            .run_series(&ds.consumers()[0], &mut scratch)
            .is_none());
        assert!(run_reference(Task::ThreeLine, &ds).is_empty());
        // The other two tasks fit any valid year.
        assert_eq!(run_reference(Task::Par, &ds).len(), 3);
        assert_eq!(run_reference(Task::Histogram, &ds).len(), 3);
    }

    #[test]
    fn collecting_sorts_by_consumer_and_assembling_keeps_the_order_given() {
        let ds = tiny();
        let kernel = ConsumerTask::over(Task::Histogram, ds.temperature());
        let mut scratch = FitScratch::new();
        let backwards: Vec<ConsumerResult> = ds
            .consumers()
            .iter()
            .rev()
            .filter_map(|c| kernel.run_series(c, &mut scratch))
            .collect();
        let ids = |out: &TaskOutput| match out {
            TaskOutput::Histograms(hs) => hs.iter().map(|h| h.consumer.raw()).collect::<Vec<_>>(),
            _ => panic!("expected histograms"),
        };
        assert_eq!(
            ids(&TaskOutput::from_results(
                Task::Histogram,
                backwards.clone()
            )),
            [2, 1, 0]
        );
        assert_eq!(
            ids(&collect_consumer_results(Task::Histogram, backwards)),
            [0, 1, 2]
        );
    }

    #[test]
    fn bits_eq_is_stricter_than_partial_eq_on_every_result_type() {
        let ds = tiny();
        // One output per task, each with one `f64` field set to `0.0`,
        // then the same output with that field `-0.0`, then NaN.
        let with = |task: Task, v: f64| {
            let mut out = run_reference(task, &ds);
            match &mut out {
                TaskOutput::Histograms(hs) => hs[1].histogram.spec.min = v,
                TaskOutput::ThreeLine(ms) => ms[1].low.segments[2].intercept = v,
                TaskOutput::Par(ms) => ms[1].hourly[23].temp_coef = v,
                TaskOutput::Similarity(ms) => ms[1].matches[0].1 = v,
            }
            out
        };
        let partial_eq = |a: &TaskOutput, b: &TaskOutput| match (a, b) {
            (TaskOutput::Histograms(a), TaskOutput::Histograms(b)) => a == b,
            (TaskOutput::ThreeLine(a), TaskOutput::ThreeLine(b)) => a == b,
            (TaskOutput::Par(a), TaskOutput::Par(b)) => a == b,
            (TaskOutput::Similarity(a), TaskOutput::Similarity(b)) => a == b,
            _ => false,
        };
        for task in Task::ALL {
            let (zero, negzero, nan) = (with(task, 0.0), with(task, -0.0), with(task, f64::NAN));
            assert!(zero.bits_eq(&zero.clone()), "{task}");
            // `==` cannot tell 0.0 from -0.0; the bit comparison can.
            assert!(partial_eq(&zero, &negzero), "{task}");
            assert!(!zero.bits_eq(&negzero), "{task}");
            // `==` cannot find a NaN equal to itself; the bit comparison can.
            assert!(!partial_eq(&nan, &nan.clone()), "{task}");
            assert!(nan.bits_eq(&nan.clone()), "{task}");
            assert!(!nan.bits_eq(&zero), "{task}");
            // Fewer consumers, or another task's output, are different bits.
            let fewer = Dataset::new(ds.consumers()[..2].to_vec(), ds.temperature().clone());
            assert!(
                !zero.bits_eq(&run_reference(task, &fewer.unwrap())),
                "{task}"
            );
            let another = if task == Task::Par {
                Task::Histogram
            } else {
                Task::Par
            };
            assert!(!zero.bits_eq(&with(another, 0.0)), "{task}");
        }
    }

    /// Every `f64` of a PAR model and of a 3-line model is part of its
    /// bits: flip the low mantissa bit of one field at a time.
    #[test]
    fn every_float_field_of_a_model_is_part_of_its_bits() {
        let ds = tiny();
        let flip = |v: &mut f64| *v = f64::from_bits(v.to_bits() ^ 1);
        let TaskOutput::Par(models) = run_reference(Task::Par, &ds) else {
            panic!("expected PAR output");
        };
        let base = &models[0];
        for hour in 0..24 {
            let fields: [fn(&mut ParModel, usize) -> &mut f64; 7] = [
                |m, h| &mut m.hourly[h].intercept,
                |m, h| &mut m.hourly[h].ar[0],
                |m, h| &mut m.hourly[h].ar[1],
                |m, h| &mut m.hourly[h].ar[2],
                |m, h| &mut m.hourly[h].temp_coef,
                |m, h| &mut m.hourly[h].r2,
                |m, h| &mut m.profile[h],
            ];
            for (f, field) in fields.iter().enumerate() {
                let mut changed = base.clone();
                flip(field(&mut changed, hour));
                assert!(!base.bits_eq(&changed), "hour {hour} field {f}");
            }
        }
        let TaskOutput::ThreeLine(models) = run_reference(Task::ThreeLine, &ds) else {
            panic!("expected 3-line output");
        };
        let base = &models[0];
        for curve in 0..2 {
            fn curve_of(m: &mut ThreeLineModel, curve: usize) -> &mut crate::PiecewiseFit {
                match curve {
                    0 => &mut m.high,
                    _ => &mut m.low,
                }
            }
            for seg in 0..3 {
                let fields: [fn(&mut crate::LineSegment) -> &mut f64; 4] = [
                    |s| &mut s.lo,
                    |s| &mut s.hi,
                    |s| &mut s.intercept,
                    |s| &mut s.slope,
                ];
                for field in fields {
                    let mut changed = base.clone();
                    flip(field(&mut curve_of(&mut changed, curve).segments[seg]));
                    assert!(!base.bits_eq(&changed), "curve {curve} segment {seg}");
                }
            }
            for knot in 0..2 {
                let mut changed = base.clone();
                flip(&mut curve_of(&mut changed, curve).knots[knot]);
                assert!(!base.bits_eq(&changed), "curve {curve} knot {knot}");
            }
            let mut changed = base.clone();
            flip(&mut curve_of(&mut changed, curve).sse);
            assert!(!base.bits_eq(&changed), "curve {curve} sse");
            let mut changed = base.clone();
            curve_of(&mut changed, curve).adjusted ^= true;
            assert!(!base.bits_eq(&changed), "curve {curve} adjusted");
        }
        let mut other = base.clone();
        other.consumer = ConsumerId(99);
        assert!(!base.bits_eq(&other));
    }
}
