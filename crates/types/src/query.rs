//! The unified typed query vocabulary.
//!
//! Every consumer-facing surface of the system — the `smda` CLI, the
//! bench runner, and the online serving layer (`smda-serve`) — speaks
//! the same request/response pair defined here: [`Query`] names what a
//! caller wants about one household, [`QueryResult`] carries the answer
//! as plain data, and both render to a **stable** plain-text and JSON
//! form so results can be compared byte-for-byte across the offline
//! batch path and the online serving path.
//!
//! Values are deliberately self-contained (no references into model
//! structs from other crates): a result can be cached, shipped, or
//! diffed without dragging the fitting machinery along. Conversions
//! from the batch task outputs live in `smda_core::queries`.

use crate::bits::BitEq;
use crate::series::ConsumerId;

/// The five query types answered by the serving layer.
///
/// `Query` is `Hash + Eq` so it can key the per-epoch result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// The `k` most similar consumers by cosine similarity of
    /// normalized annual load profiles (Section 3.4 of the paper).
    TopKSimilar {
        /// The household to match against.
        consumer: ConsumerId,
        /// How many neighbours to return.
        k: usize,
    },
    /// The household's 10-bucket equi-width consumption histogram
    /// (Section 3.1).
    Histogram {
        /// The household.
        consumer: ConsumerId,
    },
    /// Headline features of the 3-line thermal regression
    /// (Section 3.2): heating/cooling gradients and base load.
    ThreeLineFeatures {
        /// The household.
        consumer: ConsumerId,
    },
    /// The PAR daily activity profile (Section 3.3).
    ParCoefficients {
        /// The household.
        consumer: ConsumerId,
    },
    /// Live anomaly-alert status from the streaming detectors.
    AnomalyStatus {
        /// The household.
        consumer: ConsumerId,
    },
}

impl Query {
    /// The household the query is about.
    pub fn consumer(&self) -> ConsumerId {
        match *self {
            Query::TopKSimilar { consumer, .. }
            | Query::Histogram { consumer }
            | Query::ThreeLineFeatures { consumer }
            | Query::ParCoefficients { consumer }
            | Query::AnomalyStatus { consumer } => consumer,
        }
    }

    /// The query's type tag.
    pub fn kind(&self) -> QueryKind {
        match self {
            Query::TopKSimilar { .. } => QueryKind::TopKSimilar,
            Query::Histogram { .. } => QueryKind::Histogram,
            Query::ThreeLineFeatures { .. } => QueryKind::ThreeLineFeatures,
            Query::ParCoefficients { .. } => QueryKind::ParCoefficients,
            Query::AnomalyStatus { .. } => QueryKind::AnomalyStatus,
        }
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Query::TopKSimilar { consumer, k } => write!(f, "top-{k}-similar {consumer}"),
            _ => write!(f, "{} {}", self.kind().name(), self.consumer()),
        }
    }
}

/// Type tag for a [`Query`] / [`QueryResult`] — used for per-type
/// latency counters and CLI dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// [`Query::TopKSimilar`].
    TopKSimilar,
    /// [`Query::Histogram`].
    Histogram,
    /// [`Query::ThreeLineFeatures`].
    ThreeLineFeatures,
    /// [`Query::ParCoefficients`].
    ParCoefficients,
    /// [`Query::AnomalyStatus`].
    AnomalyStatus,
}

impl QueryKind {
    /// Every query type, in canonical order.
    pub const ALL: [QueryKind; 5] = [
        QueryKind::TopKSimilar,
        QueryKind::Histogram,
        QueryKind::ThreeLineFeatures,
        QueryKind::ParCoefficients,
        QueryKind::AnomalyStatus,
    ];

    /// Stable snake_case name — used in counter names, JSON `type`
    /// fields, and the CLI grammar.
    pub fn name(&self) -> &'static str {
        match self {
            QueryKind::TopKSimilar => "top_k_similar",
            QueryKind::Histogram => "histogram",
            QueryKind::ThreeLineFeatures => "three_line",
            QueryKind::ParCoefficients => "par",
            QueryKind::AnomalyStatus => "anomaly",
        }
    }

    /// Inverse of [`QueryKind::name`], tolerant of the CLI spellings
    /// (`three-line`, `3line`, `topk`).
    pub fn parse(s: &str) -> Option<QueryKind> {
        match s {
            "top_k_similar" | "topk" | "similar" | "similarity" => Some(QueryKind::TopKSimilar),
            "histogram" => Some(QueryKind::Histogram),
            "three_line" | "three-line" | "3line" => Some(QueryKind::ThreeLineFeatures),
            "par" => Some(QueryKind::ParCoefficients),
            "anomaly" | "alerts" => Some(QueryKind::AnomalyStatus),
            _ => None,
        }
    }
}

impl std::fmt::Display for QueryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed answer to one [`Query`], as plain data.
///
/// Floating-point fields are carried verbatim from the computation that
/// produced them — the serving layer's bit-identity guarantee is stated
/// over these values (`f64::to_bits`), not over their decimal
/// rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Nearest neighbours, most similar first; ties broken by ascending
    /// consumer id (the kernel's total order).
    TopKSimilar {
        /// The household queried.
        consumer: ConsumerId,
        /// `(neighbour, cosine similarity)`, best first.
        matches: Vec<(ConsumerId, f64)>,
    },
    /// Equi-width histogram over the household's own consumption range.
    Histogram {
        /// The household.
        consumer: ConsumerId,
        /// Lower edge of the first bucket (kWh).
        min: f64,
        /// Upper edge of the last bucket (kWh).
        max: f64,
        /// Per-bucket reading counts.
        counts: Vec<u64>,
    },
    /// Headline 3-line regression features.
    ThreeLineFeatures {
        /// The household.
        consumer: ConsumerId,
        /// Slope of the 90th-percentile curve below the heating knot
        /// (kWh per °C; negative when heating dominates).
        heating_gradient: f64,
        /// Slope of the 90th-percentile curve above the cooling knot
        /// (kWh per °C; positive when cooling dominates).
        cooling_gradient: f64,
        /// Minimum of the 10th-percentile curve (kWh).
        base_load: f64,
    },
    /// PAR daily activity profile.
    ParCoefficients {
        /// The household.
        consumer: ConsumerId,
        /// Temperature-independent expected kWh per hour of day.
        profile: Vec<f64>,
        /// Hour of day (0–23) with the highest profile value.
        peak_hour: usize,
        /// Sum of the daily profile (kWh).
        daily_total: f64,
    },
    /// Streaming anomaly status.
    AnomalyStatus {
        /// The household.
        consumer: ConsumerId,
        /// Alerts raised for this household so far.
        alerts: usize,
        /// Hour of year of the most recent alert, if any.
        last_hour: Option<usize>,
        /// Largest residual magnitude seen in an alert, in standard
        /// deviations (0 when no alerts).
        max_sigmas: f64,
    },
}

impl QueryResult {
    /// The household the result is about.
    pub fn consumer(&self) -> ConsumerId {
        match *self {
            QueryResult::TopKSimilar { consumer, .. }
            | QueryResult::Histogram { consumer, .. }
            | QueryResult::ThreeLineFeatures { consumer, .. }
            | QueryResult::ParCoefficients { consumer, .. }
            | QueryResult::AnomalyStatus { consumer, .. } => consumer,
        }
    }

    /// [`BitEq::bits_eq`], by name for callers that do not import the
    /// trait.
    pub fn bits_eq(&self, other: &QueryResult) -> bool {
        BitEq::bits_eq(self, other)
    }

    /// The result's type tag.
    pub fn kind(&self) -> QueryKind {
        match self {
            QueryResult::TopKSimilar { .. } => QueryKind::TopKSimilar,
            QueryResult::Histogram { .. } => QueryKind::Histogram,
            QueryResult::ThreeLineFeatures { .. } => QueryKind::ThreeLineFeatures,
            QueryResult::ParCoefficients { .. } => QueryKind::ParCoefficients,
            QueryResult::AnomalyStatus { .. } => QueryKind::AnomalyStatus,
        }
    }

    /// Render as one stable JSON object (no external serializer; the
    /// field order is part of the contract).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"type\":\"");
        s.push_str(self.kind().name());
        s.push_str("\",\"consumer\":\"");
        s.push_str(&self.consumer().to_string());
        s.push('"');
        match self {
            QueryResult::TopKSimilar { matches, .. } => {
                s.push_str(",\"matches\":[");
                for (i, (id, score)) in matches.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!(
                        "{{\"consumer\":\"{id}\",\"score\":{}}}",
                        json_f64(*score)
                    ));
                }
                s.push(']');
            }
            QueryResult::Histogram {
                min, max, counts, ..
            } => {
                s.push_str(&format!(
                    ",\"min\":{},\"max\":{},\"counts\":[",
                    json_f64(*min),
                    json_f64(*max)
                ));
                for (i, c) in counts.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&c.to_string());
                }
                s.push(']');
            }
            QueryResult::ThreeLineFeatures {
                heating_gradient,
                cooling_gradient,
                base_load,
                ..
            } => {
                s.push_str(&format!(
                    ",\"heating_gradient\":{},\"cooling_gradient\":{},\"base_load\":{}",
                    json_f64(*heating_gradient),
                    json_f64(*cooling_gradient),
                    json_f64(*base_load)
                ));
            }
            QueryResult::ParCoefficients {
                profile,
                peak_hour,
                daily_total,
                ..
            } => {
                s.push_str(&format!(
                    ",\"peak_hour\":{peak_hour},\"daily_total\":{},\"profile\":[",
                    json_f64(*daily_total)
                ));
                for (i, v) in profile.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&json_f64(*v));
                }
                s.push(']');
            }
            QueryResult::AnomalyStatus {
                alerts,
                last_hour,
                max_sigmas,
                ..
            } => {
                s.push_str(&format!(
                    ",\"alerts\":{alerts},\"last_hour\":{},\"max_sigmas\":{}",
                    match last_hour {
                        Some(h) => h.to_string(),
                        None => "null".into(),
                    },
                    json_f64(*max_sigmas)
                ));
            }
        }
        s.push('}');
        s
    }
}

/// Each arm binds every field of `self`'s variant and compares each one,
/// so a field bound but left out of the comparison is an unused variable.
impl BitEq for QueryResult {
    fn bits_eq(&self, other: &Self) -> bool {
        use QueryResult::*;
        match self {
            TopKSimilar { consumer, matches } => matches!(other,
                TopKSimilar { consumer: c, matches: m }
                    if (consumer, matches).bits_eq(&(c, m))),
            Histogram {
                consumer,
                min,
                max,
                counts,
            } => matches!(other,
                Histogram { consumer: c, min: lo, max: hi, counts: n }
                    if (consumer, min, max, counts).bits_eq(&(c, lo, hi, n))),
            ThreeLineFeatures {
                consumer,
                heating_gradient,
                cooling_gradient,
                base_load,
            } => matches!(other,
                ThreeLineFeatures {
                    consumer: c, heating_gradient: h, cooling_gradient: k, base_load: b
                } if (consumer, heating_gradient, cooling_gradient, base_load)
                    .bits_eq(&(c, h, k, b))),
            ParCoefficients {
                consumer,
                profile,
                peak_hour,
                daily_total,
            } => matches!(other,
                ParCoefficients { consumer: c, profile: p, peak_hour: h, daily_total: t }
                    if (consumer, profile, peak_hour, daily_total).bits_eq(&(c, p, h, t))),
            AnomalyStatus {
                consumer,
                alerts,
                last_hour,
                max_sigmas,
            } => matches!(other,
                AnomalyStatus { consumer: c, alerts: a, last_hour: h, max_sigmas: s }
                    if (consumer, alerts, last_hour, max_sigmas).bits_eq(&(c, a, h, s))),
        }
    }
}

/// A finite `f64` as its shortest round-trip decimal; non-finite values
/// become `null` (JSON has no NaN/∞).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        // `1` and `1.0` round-trip identically, but a bare integer is
        // ambiguous to typed JSON readers — keep the decimal point.
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".into()
    }
}

impl std::fmt::Display for QueryResult {
    /// Stable single-line plain text, shared by the CLI and serve.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryResult::TopKSimilar { consumer, matches } => {
                write!(f, "{consumer} similar:")?;
                if matches.is_empty() {
                    write!(f, " -")?;
                }
                for (id, score) in matches {
                    write!(f, " {id}={score:.4}")?;
                }
                Ok(())
            }
            QueryResult::Histogram {
                consumer,
                min,
                max,
                counts,
            } => {
                write!(f, "{consumer} histogram [{min:.3},{max:.3}] kWh:")?;
                for c in counts {
                    write!(f, " {c}")?;
                }
                let mode = counts
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                write!(f, " (mode bucket {mode})")
            }
            QueryResult::ThreeLineFeatures {
                consumer,
                heating_gradient,
                cooling_gradient,
                base_load,
            } => write!(
                f,
                "{consumer} three-line: heating {heating_gradient:.3}, \
                 cooling {cooling_gradient:.3}, base {base_load:.3} kWh"
            ),
            QueryResult::ParCoefficients {
                consumer,
                peak_hour,
                daily_total,
                ..
            } => write!(
                f,
                "{consumer} par: peak hour {peak_hour}, daily activity {daily_total:.2} kWh"
            ),
            QueryResult::AnomalyStatus {
                consumer,
                alerts,
                last_hour,
                max_sigmas,
            } => {
                write!(f, "{consumer} anomaly: {alerts} alerts")?;
                if let Some(h) = last_hour {
                    write!(f, ", last at hour {h}, max {max_sigmas:.1} sigma")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_kind_round_trips_through_name() {
        for kind in QueryKind::ALL {
            assert_eq!(QueryKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(QueryKind::parse("nonsense"), None);
    }

    #[test]
    fn query_reports_consumer_and_kind() {
        let q = Query::TopKSimilar {
            consumer: ConsumerId(7),
            k: 3,
        };
        assert_eq!(q.consumer(), ConsumerId(7));
        assert_eq!(q.kind(), QueryKind::TopKSimilar);
        assert_eq!(q.to_string(), "top-3-similar H000007");
        let q = Query::AnomalyStatus {
            consumer: ConsumerId(9),
        };
        assert_eq!(q.to_string(), "anomaly H000009");
    }

    #[test]
    fn queries_key_a_hash_map() {
        let mut cache = std::collections::HashMap::new();
        let q = Query::Histogram {
            consumer: ConsumerId(1),
        };
        cache.insert(q, 42);
        assert_eq!(cache.get(&q), Some(&42));
        assert!(!cache.contains_key(&Query::Histogram {
            consumer: ConsumerId(2)
        }));
    }

    #[test]
    fn bits_eq_is_stricter_than_partial_eq() {
        fn flip(v: f64) -> f64 {
            f64::from_bits(v.to_bits() ^ 1)
        }
        let top = |consumer, matches| QueryResult::TopKSimilar { consumer, matches };
        let hist = |consumer, min, max, counts| QueryResult::Histogram {
            consumer,
            min,
            max,
            counts,
        };
        let three = |consumer, heating_gradient, cooling_gradient, base_load| {
            QueryResult::ThreeLineFeatures {
                consumer,
                heating_gradient,
                cooling_gradient,
                base_load,
            }
        };
        let par = |consumer, profile, peak_hour, daily_total| QueryResult::ParCoefficients {
            consumer,
            profile,
            peak_hour,
            daily_total,
        };
        let anomaly = |consumer, alerts, last_hour, max_sigmas| QueryResult::AnomalyStatus {
            consumer,
            alerts,
            last_hour,
            max_sigmas,
        };
        let (a, b, c) = (ConsumerId(1), ConsumerId(2), ConsumerId(3));
        // One result per variant, and that result with one field changed
        // at a time: every field of every variant is part of its bits.
        let cases = [
            (
                top(a, vec![(b, 0.5), (c, 0.25)]),
                vec![
                    top(b, vec![(b, 0.5), (c, 0.25)]),
                    top(a, vec![(c, 0.5), (c, 0.25)]),
                    top(a, vec![(b, 0.5), (c, flip(0.25))]),
                    top(a, vec![(b, 0.5)]),
                ],
            ),
            (
                hist(a, 0.0, 1.0, vec![3, 1]),
                vec![
                    hist(b, 0.0, 1.0, vec![3, 1]),
                    hist(a, flip(0.0), 1.0, vec![3, 1]),
                    hist(a, 0.0, flip(1.0), vec![3, 1]),
                    hist(a, 0.0, 1.0, vec![3, 2]),
                    hist(a, 0.0, 1.0, vec![3]),
                ],
            ),
            (
                three(a, -0.25, 0.0, 0.5),
                vec![
                    three(b, -0.25, 0.0, 0.5),
                    three(a, flip(-0.25), 0.0, 0.5),
                    three(a, -0.25, flip(0.0), 0.5),
                    three(a, -0.25, 0.0, flip(0.5)),
                ],
            ),
            (
                par(a, vec![0.5, 0.75], 1, 1.25),
                vec![
                    par(b, vec![0.5, 0.75], 1, 1.25),
                    par(a, vec![0.5, flip(0.75)], 1, 1.25),
                    par(a, vec![0.5], 1, 1.25),
                    par(a, vec![0.5, 0.75], 0, 1.25),
                    par(a, vec![0.5, 0.75], 1, flip(1.25)),
                ],
            ),
            (
                anomaly(a, 2, Some(17), 4.5),
                vec![
                    anomaly(b, 2, Some(17), 4.5),
                    anomaly(a, 3, Some(17), 4.5),
                    anomaly(a, 2, Some(18), 4.5),
                    anomaly(a, 2, None, 4.5),
                    anomaly(a, 2, Some(17), flip(4.5)),
                ],
            ),
        ];
        for (base, changed) in &cases {
            assert!(base.bits_eq(&base.clone()), "{base:?}");
            for other in changed {
                assert!(!base.bits_eq(other), "{base:?} vs {other:?}");
            }
        }
        // A variant never equals another variant.
        for (i, (x, _)) in cases.iter().enumerate() {
            for (j, (y, _)) in cases.iter().enumerate() {
                assert_eq!(x.bits_eq(y), i == j, "{x:?} vs {y:?}");
            }
        }
        // `==` cannot tell 0.0 from -0.0, nor find a NaN equal to itself;
        // the bit comparison can.
        let (zero, negzero) = (three(a, -0.25, 0.0, 0.5), three(a, -0.25, -0.0, 0.5));
        assert_eq!(zero, negzero);
        assert!(!zero.bits_eq(&negzero));
        let nan = three(a, f64::NAN, 0.0, 0.5);
        assert_ne!(nan, nan.clone());
        assert!(nan.bits_eq(&nan.clone()));
    }

    #[test]
    fn json_rendering_is_stable() {
        let r = QueryResult::TopKSimilar {
            consumer: ConsumerId(1),
            matches: vec![(ConsumerId(2), 0.5), (ConsumerId(3), 0.25)],
        };
        assert_eq!(
            r.to_json(),
            "{\"type\":\"top_k_similar\",\"consumer\":\"H000001\",\"matches\":\
             [{\"consumer\":\"H000002\",\"score\":0.5},\
             {\"consumer\":\"H000003\",\"score\":0.25}]}"
        );
        let r = QueryResult::AnomalyStatus {
            consumer: ConsumerId(4),
            alerts: 0,
            last_hour: None,
            max_sigmas: 0.0,
        };
        assert_eq!(
            r.to_json(),
            "{\"type\":\"anomaly\",\"consumer\":\"H000004\",\
             \"alerts\":0,\"last_hour\":null,\"max_sigmas\":0.0}"
        );
    }

    #[test]
    fn json_floats_keep_round_trip_precision() {
        let v = 0.1 + 0.2; // 0.30000000000000004
        let r = QueryResult::ThreeLineFeatures {
            consumer: ConsumerId(1),
            heating_gradient: v,
            cooling_gradient: f64::NAN,
            base_load: 3.0,
        };
        let json = r.to_json();
        assert!(json.contains(&format!("\"heating_gradient\":{v}")));
        assert!(json.contains("\"cooling_gradient\":null"));
        assert!(json.contains("\"base_load\":3.0"));
    }

    #[test]
    fn text_rendering_is_stable() {
        let r = QueryResult::Histogram {
            consumer: ConsumerId(5),
            min: 0.0,
            max: 2.0,
            counts: vec![4, 9, 1],
        };
        assert_eq!(
            r.to_string(),
            "H000005 histogram [0.000,2.000] kWh: 4 9 1 (mode bucket 1)"
        );
        let r = QueryResult::TopKSimilar {
            consumer: ConsumerId(5),
            matches: vec![],
        };
        assert_eq!(r.to_string(), "H000005 similar: -");
    }
}
