//! A unified handle on the four benchmark tasks.
//!
//! The platform engines and the experiment harness all need to run "one of
//! the four tasks" generically; this module gives them a shared vocabulary
//! and the single-threaded reference implementation used for validation.

use crate::histogram_task::{consumer_histograms, ConsumerHistogram};
use crate::par::{par_profiles, ParModel};
use crate::similarity::{similarity_search, ConsumerMatches, SIMILARITY_TOP_K};
use crate::three_line::{three_line_models, ThreeLineModel, ThreeLinePhases};
use smda_types::Dataset;

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
}

impl std::fmt::Display for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Output of one benchmark task.
#[derive(Debug, Clone)]
pub enum TaskOutput {
    /// Histograms, one per consumer.
    Histograms(Vec<ConsumerHistogram>),
    /// 3-line models plus accumulated phase times.
    ThreeLine(Vec<ThreeLineModel>, ThreeLinePhases),
    /// PAR models, one per consumer.
    Par(Vec<ParModel>),
    /// Similarity matches, one list per consumer.
    Similarity(Vec<ConsumerMatches>),
}

impl TaskOutput {
    /// How many per-consumer results the task produced.
    pub fn len(&self) -> usize {
        match self {
            TaskOutput::Histograms(v) => v.len(),
            TaskOutput::ThreeLine(v, _) => v.len(),
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
            TaskOutput::ThreeLine(..) => Task::ThreeLine,
            TaskOutput::Par(_) => Task::Par,
            TaskOutput::Similarity(_) => Task::Similarity,
        }
    }
}

/// The per-consumer result of one of the three parallelizable tasks —
/// the unit cluster engines shuffle and emit.
#[derive(Debug, Clone)]
pub enum ConsumerResult {
    /// A Section 3.1 histogram.
    Histogram(ConsumerHistogram),
    /// A Section 3.2 model (absent for degenerate series) with phases.
    ThreeLine(Option<ThreeLineModel>, ThreeLinePhases),
    /// A Section 3.3 PAR model.
    Par(Box<ParModel>),
}

impl ConsumerResult {
    /// The household the result describes, if one was produced.
    pub fn consumer(&self) -> Option<smda_types::ConsumerId> {
        match self {
            ConsumerResult::Histogram(h) => Some(h.consumer),
            ConsumerResult::ThreeLine(m, _) => m.as_ref().map(|m| m.consumer),
            ConsumerResult::Par(p) => Some(p.consumer),
        }
    }
}

/// Run one per-consumer task on raw year arrays — the kernel cluster
/// engines invoke from their UDFs/closures.
///
/// # Errors
/// Returns [`smda_types::Error::NotPerConsumer`] when called with
/// [`Task::Similarity`], which is all-pairs rather than per-consumer.
pub fn run_consumer_task(
    task: Task,
    id: smda_types::ConsumerId,
    kwh: Vec<f64>,
    temps: &[f64],
) -> smda_types::Result<ConsumerResult> {
    run_consumer_task_on(task, id, &kwh, temps)
}

/// [`run_consumer_task`] on lent slices: validates without collecting and
/// fits through the calling thread's [`FitScratch`](smda_stats::FitScratch)
/// arena, so a source can hand out the same buffer for every consumer.
///
/// # Errors
/// Returns [`smda_types::Error::NotPerConsumer`] when called with
/// [`Task::Similarity`], which is all-pairs rather than per-consumer.
pub fn run_consumer_task_on(
    task: Task,
    id: smda_types::ConsumerId,
    kwh: &[f64],
    temps: &[f64],
) -> smda_types::Result<ConsumerResult> {
    use crate::three_line::{fit_three_line_scratch, ThreeLineConfig};
    use smda_stats::with_fit_scratch;
    use smda_types::{ConsumerSeries, TemperatureSeries};
    if !task.per_consumer() {
        return Err(smda_types::Error::NotPerConsumer(task.name().to_owned()));
    }
    Ok(match task {
        Task::Histogram => ConsumerResult::Histogram(ConsumerHistogram::from_readings(id, kwh)?),
        Task::ThreeLine => {
            ConsumerSeries::validate(id, kwh)?;
            TemperatureSeries::validate(temps)?;
            let fitted = with_fit_scratch(|scratch| {
                fit_three_line_scratch(id, kwh, temps, &ThreeLineConfig::default(), scratch)
            });
            match fitted {
                Some((m, p)) => ConsumerResult::ThreeLine(Some(m), p),
                None => ConsumerResult::ThreeLine(None, ThreeLinePhases::default()),
            }
        }
        Task::Par => {
            ConsumerSeries::validate(id, kwh)?;
            TemperatureSeries::validate(temps)?;
            ConsumerResult::Par(Box::new(with_fit_scratch(|scratch| {
                crate::par::fit_par_scratch(id, kwh, temps, scratch)
            })))
        }
        Task::Similarity => unreachable!("rejected by the per_consumer guard above"),
    })
}

/// Assemble a [`TaskOutput`] from per-consumer results (sorted by id).
pub fn collect_consumer_results(task: Task, mut results: Vec<ConsumerResult>) -> TaskOutput {
    results.sort_by_key(|r| r.consumer());
    match task {
        Task::Histogram => TaskOutput::Histograms(
            results
                .into_iter()
                .filter_map(|r| match r {
                    ConsumerResult::Histogram(h) => Some(h),
                    _ => None,
                })
                .collect(),
        ),
        Task::ThreeLine => {
            let mut models = Vec::new();
            let mut phases = ThreeLinePhases::default();
            for r in results {
                if let ConsumerResult::ThreeLine(m, p) = r {
                    phases.add(p);
                    if let Some(m) = m {
                        models.push(m);
                    }
                }
            }
            TaskOutput::ThreeLine(models, phases)
        }
        Task::Par => TaskOutput::Par(
            results
                .into_iter()
                .filter_map(|r| match r {
                    ConsumerResult::Par(p) => Some(*p),
                    _ => None,
                })
                .collect(),
        ),
        Task::Similarity => unreachable!("similarity outputs are not per-consumer results"),
    }
}

/// Run `task` with the single-threaded reference implementation.
pub fn run_reference(task: Task, ds: &Dataset) -> TaskOutput {
    match task {
        Task::Histogram => TaskOutput::Histograms(consumer_histograms(ds)),
        Task::ThreeLine => {
            let (models, phases) = three_line_models(ds);
            TaskOutput::ThreeLine(models, phases)
        }
        Task::Par => TaskOutput::Par(par_profiles(ds)),
        Task::Similarity => TaskOutput::Similarity(similarity_search(ds, SIMILARITY_TOP_K)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_types::{ConsumerId, ConsumerSeries, TemperatureSeries, HOURS_PER_YEAR};

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
        let temps: Vec<f64> = vec![10.0; HOURS_PER_YEAR];
        let err = run_consumer_task(Task::Similarity, ConsumerId(0), kwh, &temps).unwrap_err();
        match err {
            smda_types::Error::NotPerConsumer(task) => assert_eq!(task, "Similarity"),
            other => panic!("expected NotPerConsumer, got {other:?}"),
        }
    }
}
