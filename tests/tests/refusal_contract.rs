//! The one refusal contract of the cluster twins, as one table:
//! {Hive, Spark} × {F1, F2, F3} × {Histogram, 3-line, PAR, Similarity} ×
//! {trailing field, out-of-range hour, duplicated hour, destroyed
//! reading, NaN reading, negative reading, appended garbage}, each under
//! both dirty-data policies.
//!
//! The contract (DESIGN §8, "Dirty input rows"): a *line* the codec
//! refuses is dirty — fail-fast fails the job with the parse error,
//! skip-and-count drops it and counts it. What the surviving lines say
//! about a *household* must be a whole year, every hour once: otherwise
//! the job fails with a schema error naming the household, under either
//! policy, for every task on both platforms.
//!
//! The rows below cover what the twins' own unit tests assert one engine
//! at a time (they are kept, so their ids stay in the suite):
//!
//! | unit test (`crates/{hive,spark}/src/engine.rs`) | row here |
//! |---|---|
//! | `dirty_line_fails_fast_by_default_but_skips_under_policy`: fail-fast errs | `AppendedGarbage`, fail-fast → `Parse` |
//! | — skip-and-count matches the reference, counter ≥ 1 | `AppendedGarbage`, skip → clean output bit for bit, counter = 1 |
//! | `a_damaged_reading_is_a_schema_error_naming_its_household_not_a_panic`: fail-fast → `Parse` | `DestroyedReading`, fail-fast → `Parse` |
//! | — skip → `Schema` naming the household, counter = 1 | `DestroyedReading`, skip → `Schema(victim)`, counter = 1 (and now for Similarity too) |
//! | `losing_every_replica_fails_the_load_with_a_typed_error` | `faults.rs::all_replica_loss_is_a_typed_error_on_both_engines` |

use std::sync::Arc;

use smda_cluster::{ClusterTopology, CostModel, TwinShell};
use smda_core::tasks::run_reference;
use smda_core::{Task, TaskOutput};
use smda_engines::{ClusterTwin, RunSpec};
use smda_hive::HiveEngine;
use smda_integration::fixture_dataset;
use smda_obs::{counters, MetricsSink, RunManifest};
use smda_spark::SparkEngine;
use smda_types::{BitEq, ConsumerId, DataFormat, DirtyDataPolicy, Error};

const BLOCK: u64 = 256 * 1024;
const HOUSEHOLDS: usize = 3;
/// The household every damage lands on: the fixture's second.
const VICTIM: ConsumerId = ConsumerId(3);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Damage {
    TrailingField,
    HourOutOfRange,
    DuplicatedHour,
    DestroyedReading,
    NanReading,
    NegativeReading,
    AppendedGarbage,
}

const DAMAGES: [Damage; 7] = [
    Damage::TrailingField,
    Damage::HourOutOfRange,
    Damage::DuplicatedHour,
    Damage::DestroyedReading,
    Damage::NanReading,
    Damage::NegativeReading,
    Damage::AppendedGarbage,
];

/// What a run came to, as far as the contract speaks of it.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    /// `Error::Parse`: a dirty line under fail-fast.
    Parse,
    /// `Error::Schema` whose message names the victim.
    SchemaNamingVictim,
    /// A result over this many households; `true` when it is the clean
    /// table's output bit for bit.
    Done {
        households: usize,
        clean: bool,
    },
    Other(String),
}

/// The expected `(fail-fast outcome, skip-and-count outcome, rows the
/// skip run counts)`, or `None` where the format cannot spell the damage
/// (a Format-2 line carries no hour field).
fn expected(format: DataFormat, damage: Damage) -> Option<(Outcome, Outcome, u64)> {
    use Outcome::{Done, Parse, SchemaNamingVictim};
    let all = |clean| Done {
        households: HOUSEHOLDS,
        clean,
    };
    Some(match (format, damage) {
        // The line still parses, as a year of 8761 readings: not dirty,
        // refused.
        (DataFormat::ConsumerPerLine, Damage::TrailingField) => {
            (SchemaNamingVictim, SchemaNamingVictim, 0)
        }
        (DataFormat::ConsumerPerLine, Damage::HourOutOfRange | Damage::DuplicatedHour) => {
            return None
        }
        // `NaN` parses as an `f64`: the line is clean, the year is not.
        (DataFormat::ConsumerPerLine, Damage::NanReading) => {
            (SchemaNamingVictim, SchemaNamingVictim, 0)
        }
        // The line is the household: skipped, it is simply absent.
        (DataFormat::ConsumerPerLine, Damage::DestroyedReading) => (
            Parse,
            Done {
                households: HOUSEHOLDS - 1,
                clean: false,
            },
            1,
        ),
        // A negative reading parses and is finite: the line is clean, the
        // year is not — for Similarity too.
        (_, Damage::NegativeReading) => (SchemaNamingVictim, SchemaNamingVictim, 0),
        // Every line parses; the victim's rows are 8760 and not a year.
        (_, Damage::DuplicatedHour) => (SchemaNamingVictim, SchemaNamingVictim, 0),
        (_, Damage::AppendedGarbage) => (Parse, all(true), 1),
        // One of the victim's readings does not survive the policy (a
        // non-finite reading is a dirty line in formats 1 and 3).
        (_, _) => (Parse, SchemaNamingVictim, 1),
    })
}

enum Twin {
    Hive(HiveEngine),
    Spark(SparkEngine),
}

impl Twin {
    fn both() -> [Twin; 2] {
        let topology = |cost| ClusterTopology {
            workers: 2,
            slots_per_worker: 2,
            cost,
        };
        [
            Twin::Hive(HiveEngine::new(topology(CostModel::mapreduce()), BLOCK)),
            Twin::Spark(SparkEngine::new(topology(CostModel::spark()), BLOCK)),
        ]
    }

    fn engine(&mut self) -> &mut dyn ClusterTwin {
        match self {
            Twin::Hive(e) => e,
            Twin::Spark(e) => e,
        }
    }

    fn shell(&mut self) -> &mut TwinShell {
        match self {
            Twin::Hive(e) => &mut e.shell,
            Twin::Spark(e) => &mut e.shell,
        }
    }

    /// Run `task` under `policy`: the outcome and the dirty rows counted.
    fn run(&mut self, task: Task, policy: DirtyDataPolicy, clean: &TaskOutput) -> (Outcome, u64) {
        let sink = MetricsSink::recording();
        let spec = RunSpec {
            dirty_policy: policy,
            ..RunSpec::builder(task).metrics(sink.clone()).build()
        };
        let outcome = match self.engine().run(&spec) {
            Ok(r) => Outcome::Done {
                households: r.output.len(),
                clean: r.output.bits_eq(clean),
            },
            Err(Error::Parse { .. }) => Outcome::Parse,
            Err(Error::Schema(msg)) if msg.contains(&VICTIM.to_string()) => {
                Outcome::SchemaNamingVictim
            }
            Err(other) => Outcome::Other(other.to_string()),
        };
        let report = sink.finish(RunManifest::new(task.name(), "twin"));
        let skipped = report.counter(counters::ROWS_SKIPPED_DIRTY).unwrap_or(0);
        (outcome, skipped)
    }
}

/// The damaged rendition of split `lines`, whose line `at` is the
/// victim's hour 1234 (formats 1 and 3) or the victim's year (format 2).
fn damaged(lines: &[String], at: usize, format: DataFormat, damage: Damage) -> Vec<String> {
    let mut lines = lines.to_vec();
    let fields: Vec<&str> = lines[at].split(',').collect();
    let with_hour = |hour: &str| [fields[0], hour, fields[2], fields[3]].join(",");
    // The victim's hour 1234 reading (its line's field 1235 in format 2).
    let with_reading = |kwh: &str| match format {
        DataFormat::ConsumerPerLine => {
            let mut fields = fields.clone();
            fields[1235] = kwh;
            fields.join(",")
        }
        _ => [fields[0], fields[1], fields[2], kwh].join(","),
    };
    lines[at] = match (damage, format) {
        (Damage::AppendedGarbage, _) => {
            lines.push("not,a,valid,row".into());
            return lines;
        }
        (Damage::TrailingField, _) => format!("{},0.5", lines[at]),
        (Damage::HourOutOfRange, _) => with_hour("9000"),
        // Hour 1233 twice and hour 1234 never: still 8760 rows.
        (Damage::DuplicatedHour, _) => with_hour("1233"),
        (Damage::DestroyedReading, DataFormat::ConsumerPerLine) => with_reading("x"),
        (Damage::DestroyedReading, _) => "not,a,valid,row".into(),
        (Damage::NanReading, _) => with_reading("NaN"),
        (Damage::NegativeReading, _) => with_reading("-0.25"),
    };
    lines
}

#[test]
fn both_twins_refuse_the_same_damage_the_same_way_for_every_task_and_format() {
    let ds = fixture_dataset(HOUSEHOLDS as u32);
    assert_eq!(ds.consumers()[1].id, VICTIM);
    for format in [
        DataFormat::ReadingPerLine,
        DataFormat::ConsumerPerLine,
        DataFormat::ManyFiles { files: HOUSEHOLDS },
    ] {
        // One row of outcomes per twin, compared at the end.
        let mut rows: Vec<Vec<(Outcome, u64)>> = Vec::new();
        for mut twin in Twin::both() {
            let spec = RunSpec::builder(Task::Histogram).build();
            twin.engine().load_observed(&ds, format, &spec).unwrap();
            // On valid input every cell is the reference's output to the
            // bit — which is also what "clean" means below.
            let clean: Vec<TaskOutput> = Task::ALL.map(|task| run_reference(task, &ds)).into();
            for (task, want) in Task::ALL.iter().zip(&clean) {
                let got = twin.engine().run(&RunSpec::builder(*task).build()).unwrap();
                assert!(
                    got.output.bits_eq(want),
                    "{format:?}/{task}: not the reference"
                );
            }

            // The split and line holding the victim's hour 1234 (its
            // year, under format 2).
            let prefix = match format {
                DataFormat::ConsumerPerLine => format!("{},", VICTIM.raw()),
                _ => format!("{},1234,", VICTIM.raw()),
            };
            let table = twin.shell().table_mut().unwrap();
            let (split, at) = table
                .splits
                .iter()
                .enumerate()
                .find_map(|(s, split)| {
                    let at = split.lines.iter().position(|l| l.starts_with(&prefix))?;
                    Some((s, at))
                })
                .expect("the victim's line is in the table");
            let pristine = table.splits[split].lines.clone();

            let mut row = Vec::new();
            for damage in DAMAGES {
                let Some((fail_fast, skip, counted)) = expected(format, damage) else {
                    continue;
                };
                twin.shell().table_mut().unwrap().splits[split].lines =
                    Arc::new(damaged(&pristine, at, format, damage));
                for (task, clean) in Task::ALL.iter().zip(&clean) {
                    let cell = format!("{format:?}/{damage:?}/{task}");
                    let got = twin.run(*task, DirtyDataPolicy::FailFast, clean);
                    assert_eq!(got, (fail_fast.clone(), 0), "{cell}, fail-fast");
                    row.push(got);
                    let got = twin.run(*task, DirtyDataPolicy::SkipAndCount, clean);
                    assert_eq!(got, (skip.clone(), counted), "{cell}, skip-and-count");
                    row.push(got);
                }
            }
            rows.push(row);
        }
        assert_eq!(rows[0], rows[1], "{format:?}: Hive and Spark disagree");
    }
}
