//! Bridges from the batch model types to the unified
//! [`smda_types::query`] vocabulary.
//!
//! The conversions are value-preserving: every `f64` lands in the
//! [`QueryResult`] verbatim (`to_bits`-identical), so the serving
//! layer's bit-identity guarantee can be stated against these
//! functions applied to the offline batch output.

use smda_types::{ConsumerId, Query, QueryResult};

use crate::histogram_task::ConsumerHistogram;
use crate::par::ParModel;
use crate::similarity::ConsumerMatches;
use crate::streaming::Alert;
use crate::tasks::TaskOutput;
use crate::three_line::ThreeLineModel;

/// A histogram as a typed result.
pub fn histogram_result(h: &ConsumerHistogram) -> QueryResult {
    QueryResult::Histogram {
        consumer: h.consumer,
        min: h.histogram.spec.min,
        max: h.histogram.spec.max,
        counts: h.histogram.counts.clone(),
    }
}

/// Headline 3-line features as a typed result.
pub fn three_line_result(m: &ThreeLineModel) -> QueryResult {
    QueryResult::ThreeLineFeatures {
        consumer: m.consumer,
        heating_gradient: m.heating_gradient(),
        cooling_gradient: m.cooling_gradient(),
        base_load: m.base_load(),
    }
}

/// The PAR daily profile as a typed result.
pub fn par_result(m: &ParModel) -> QueryResult {
    QueryResult::ParCoefficients {
        consumer: m.consumer,
        profile: m.profile.to_vec(),
        peak_hour: m.peak_hour(),
        daily_total: m.daily_total(),
    }
}

/// A similarity match list as a typed result.
pub fn similarity_result(m: &ConsumerMatches) -> QueryResult {
    QueryResult::TopKSimilar {
        consumer: m.consumer,
        matches: m.matches.clone(),
    }
}

/// Anomaly status for one household, summarized from an alert stream
/// (e.g. [`crate::streaming::AnomalyDetector`] output or the ingest
/// pipeline's collected alerts). Alerts for other households are
/// ignored.
pub fn anomaly_result(consumer: ConsumerId, alerts: &[Alert]) -> QueryResult {
    let mut count = 0usize;
    let mut last_hour = None;
    let mut max_sigmas = 0.0f64;
    for a in alerts.iter().filter(|a| a.consumer == consumer) {
        count += 1;
        last_hour = Some(last_hour.map_or(a.hour, |h: usize| h.max(a.hour)));
        max_sigmas = max_sigmas.max(a.sigmas.abs());
    }
    QueryResult::AnomalyStatus {
        consumer,
        alerts: count,
        last_hour,
        max_sigmas,
    }
}

/// Every per-consumer result of a batch task run, in the task's output
/// order (ascending consumer id).
pub fn task_output_results(out: &TaskOutput) -> Vec<QueryResult> {
    match out {
        TaskOutput::Histograms(hs) => hs.iter().map(histogram_result).collect(),
        TaskOutput::ThreeLine(models) => models.iter().map(three_line_result).collect(),
        TaskOutput::Par(models) => models.iter().map(par_result).collect(),
        TaskOutput::Similarity(matches) => matches.iter().map(similarity_result).collect(),
    }
}

/// The batch answer to one [`Query`], looked up in a task output.
///
/// Returns `None` when the output is for a different task or the
/// consumer is absent. A `TopKSimilar` lookup with `k` larger than the
/// batch run computed returns the matches that exist.
pub fn lookup(out: &TaskOutput, query: &Query) -> Option<QueryResult> {
    match (out, *query) {
        (TaskOutput::Histograms(hs), Query::Histogram { consumer }) => hs
            .iter()
            .find(|h| h.consumer == consumer)
            .map(histogram_result),
        (TaskOutput::ThreeLine(models), Query::ThreeLineFeatures { consumer }) => models
            .iter()
            .find(|m| m.consumer == consumer)
            .map(three_line_result),
        (TaskOutput::Par(models), Query::ParCoefficients { consumer }) => models
            .iter()
            .find(|m| m.consumer == consumer)
            .map(par_result),
        (TaskOutput::Similarity(matches), Query::TopKSimilar { consumer, k }) => matches
            .iter()
            .find(|m| m.consumer == consumer)
            .map(|m| QueryResult::TopKSimilar {
                consumer: m.consumer,
                matches: m.matches.iter().take(k).copied().collect(),
            }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_seed;
    use crate::tasks::run_reference;
    use crate::{SeedConfig, Task};
    use smda_types::QueryKind;

    fn dataset() -> smda_types::Dataset {
        generate_seed(&SeedConfig {
            consumers: 6,
            seed: 11,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn task_outputs_convert_one_result_per_consumer() {
        let ds = dataset();
        for task in Task::ALL {
            let out = run_reference(task, &ds);
            let results = task_output_results(&out);
            assert_eq!(results.len(), out.len(), "{task}");
            for r in &results {
                assert_ne!(r.kind(), QueryKind::AnomalyStatus);
            }
        }
    }

    #[test]
    fn conversions_preserve_bits() {
        let ds = dataset();
        let out = run_reference(Task::ThreeLine, &ds);
        let TaskOutput::ThreeLine(models) = &out else {
            unreachable!()
        };
        let results = task_output_results(&out);
        for (m, r) in models.iter().zip(&results) {
            let QueryResult::ThreeLineFeatures {
                heating_gradient, ..
            } = r
            else {
                panic!("wrong variant")
            };
            assert_eq!(
                heating_gradient.to_bits(),
                m.heating_gradient().to_bits(),
                "{}",
                m.consumer
            );
        }
    }

    #[test]
    fn lookup_finds_the_right_consumer() {
        let ds = dataset();
        let out = run_reference(Task::Similarity, &ds);
        let id = ds.consumers()[2].id;
        let got =
            lookup(&out, &Query::TopKSimilar { consumer: id, k: 3 }).expect("consumer present");
        let QueryResult::TopKSimilar { consumer, matches } = &got else {
            panic!("wrong variant")
        };
        assert_eq!(*consumer, id);
        assert_eq!(matches.len(), 3);
        // Wrong-task lookups miss instead of panicking.
        assert!(lookup(&out, &Query::Histogram { consumer: id }).is_none());
    }

    #[test]
    fn anomaly_summary_filters_and_aggregates() {
        use crate::streaming::AlertKind;
        let alerts = vec![
            Alert {
                consumer: ConsumerId(1),
                hour: 100,
                actual: 9.0,
                expected: 1.0,
                sigmas: 5.0,
                kind: AlertKind::UnusuallyHigh,
            },
            Alert {
                consumer: ConsumerId(2),
                hour: 50,
                actual: 0.0,
                expected: 2.0,
                sigmas: -6.5,
                kind: AlertKind::UnusuallyLow,
            },
            Alert {
                consumer: ConsumerId(1),
                hour: 90,
                actual: 8.0,
                expected: 1.0,
                sigmas: 4.5,
                kind: AlertKind::UnusuallyHigh,
            },
        ];
        let r = anomaly_result(ConsumerId(1), &alerts);
        assert_eq!(
            r,
            QueryResult::AnomalyStatus {
                consumer: ConsumerId(1),
                alerts: 2,
                last_hour: Some(100),
                max_sigmas: 5.0,
            }
        );
        let r = anomaly_result(ConsumerId(3), &alerts);
        assert_eq!(
            r,
            QueryResult::AnomalyStatus {
                consumer: ConsumerId(3),
                alerts: 0,
                last_hour: None,
                max_sigmas: 0.0,
            }
        );
    }
}
