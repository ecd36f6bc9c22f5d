//! Hive's three extension points, plus the benchmark implementations.
//!
//! The paper implements each benchmark algorithm behind the mechanism the
//! data format allows: a UDAF when a reduce is unavoidable (format 1), a
//! generic UDF for map-only scalar work (format 2), and a UDTF that
//! aggregates map-side over whole files (format 3).

use smda_core::tasks::ConsumerResult;
use smda_core::{ConsumerTask, Task};
use smda_stats::with_fit_scratch;
use smda_types::{ConsumerId, Error, Result, HOURS_PER_YEAR};

use crate::parse::ReadingRow;

/// Which Hive mechanism executed a job (reported in experiment output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HiveOperator {
    /// Map-side scalar function (format 2).
    GenericUdf,
    /// Reduce-side aggregation function (format 1).
    Udaf,
    /// Map-side table function over whole files (format 3).
    Udtf,
}

impl HiveOperator {
    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            HiveOperator::GenericUdf => "UDF",
            HiveOperator::Udaf => "UDAF",
            HiveOperator::Udtf => "UDTF",
        }
    }
}

/// A map-side scalar function: one input row to zero or more outputs.
pub trait GenericUdf<I, O>: Sync {
    /// Evaluate the function on one row.
    fn evaluate(&self, input: I) -> Result<Vec<O>>;
}

/// A reduce-side aggregation function in Hive's four-phase shape.
pub trait Udaf: Sync {
    /// One input row within a key group.
    type Row;
    /// The mergeable intermediate state.
    type Partial: Send;
    /// The aggregate output.
    type Output;

    /// Fresh state.
    fn init(&self) -> Self::Partial;
    /// Fold one row in.
    fn iterate(&self, partial: &mut Self::Partial, row: Self::Row);
    /// Merge two partials (map-side combine / parallel reduce).
    fn merge(&self, into: &mut Self::Partial, from: Self::Partial);
    /// Produce the aggregate for a key group.
    fn terminate(&self, key: ConsumerId, partial: Self::Partial) -> Result<Self::Output>;
}

/// A map-side table function: a whole input fragment to many rows.
pub trait Udtf<I, O>: Sync {
    /// Process one fragment, emitting output rows.
    fn process(&self, rows: Vec<I>, emit: &mut dyn FnMut(O)) -> Result<()>;
}

// ------------------------------------------------------- implementations

/// Assemble a household's year and run one benchmark algorithm — the
/// UDAF behind format 1 (and format 3's UDAF variant).
#[derive(Debug, Clone, Copy)]
pub struct TaskUdaf {
    /// Which benchmark task to run at terminate time.
    pub task: Task,
}

impl Udaf for TaskUdaf {
    type Row = (u32, f64, f64); // (hour, temperature, kwh)
    type Partial = Vec<(u32, f64, f64)>;
    type Output = Option<ConsumerResult>;

    fn init(&self) -> Self::Partial {
        Vec::new()
    }

    fn iterate(&self, partial: &mut Self::Partial, row: Self::Row) {
        partial.push(row);
    }

    fn merge(&self, into: &mut Self::Partial, mut from: Self::Partial) {
        into.append(&mut from);
    }

    fn terminate(&self, key: ConsumerId, mut partial: Self::Partial) -> Result<Self::Output> {
        partial.sort_by_key(|(h, _, _)| *h);
        if partial.len() != HOURS_PER_YEAR {
            return Err(Error::Schema(format!(
                "consumer {key}: {} readings reached the reducer, expected {HOURS_PER_YEAR}",
                partial.len()
            )));
        }
        let mut kwh = Vec::with_capacity(HOURS_PER_YEAR);
        let mut temps = Vec::with_capacity(HOURS_PER_YEAR);
        for (i, (h, t, v)) in partial.into_iter().enumerate() {
            if h as usize != i {
                return Err(Error::Schema(format!(
                    "consumer {key}: duplicate or missing hour {h}"
                )));
            }
            temps.push(t);
            kwh.push(v);
        }
        ConsumerTask::run_assembled(self.task, key, &kwh, &temps)
    }
}

/// Run one benchmark algorithm on a whole Format-2 row — the generic UDF
/// behind format 2's map-only plan. Temperature comes from the shared
/// sidecar, as the readings line carries none: the kernel is bound to it
/// once per plan.
#[derive(Debug, Clone, Copy)]
pub struct TaskUdf<'t> {
    /// The benchmark task, bound to the shared hourly temperature series.
    pub kernel: ConsumerTask<'t>,
}

impl GenericUdf<(ConsumerId, Vec<f64>), ConsumerResult> for TaskUdf<'_> {
    fn evaluate(&self, (id, kwh): (ConsumerId, Vec<f64>)) -> Result<Vec<ConsumerResult>> {
        let result = with_fit_scratch(|scratch| self.kernel.run(id, &kwh, scratch))?;
        Ok(result.into_iter().collect())
    }
}

/// Group parsed rows by household map-side and run one benchmark
/// algorithm per household — the UDTF behind format 3 (whole households
/// per file, so no reduce is needed).
#[derive(Debug, Clone, Copy)]
pub struct TaskUdtf {
    /// Which benchmark task to run.
    pub task: Task,
}

impl Udtf<ReadingRow, ConsumerResult> for TaskUdtf {
    fn process(
        &self,
        mut rows: Vec<ReadingRow>,
        emit: &mut dyn FnMut(ConsumerResult),
    ) -> Result<()> {
        rows.sort_by_key(|r| (r.consumer, r.hour));
        let mut i = 0;
        while i < rows.len() {
            let id = rows[i].consumer;
            let mut kwh = Vec::with_capacity(HOURS_PER_YEAR);
            let mut temps = Vec::with_capacity(HOURS_PER_YEAR);
            while i < rows.len() && rows[i].consumer == id {
                if rows[i].hour as usize != kwh.len() {
                    return Err(Error::Schema(format!(
                        "consumer {id}: hour {} out of sequence in file fragment",
                        rows[i].hour
                    )));
                }
                kwh.push(rows[i].kwh);
                temps.push(rows[i].temperature);
                i += 1;
            }
            if kwh.len() != HOURS_PER_YEAR {
                return Err(Error::Schema(format!(
                    "consumer {id}: file fragment holds {} readings, expected {HOURS_PER_YEAR} \
                     (is the input truly non-split?)",
                    kwh.len()
                )));
            }
            if let Some(result) = ConsumerTask::run_assembled(self.task, id, &kwh, &temps)? {
                emit(result);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn year_rows(id: u32) -> Vec<ReadingRow> {
        (0..HOURS_PER_YEAR)
            .map(|h| ReadingRow {
                consumer: ConsumerId(id),
                hour: h as u32,
                temperature: (h % 40) as f64 - 10.0,
                kwh: 0.4 + 0.05 * ((h % 24) as f64),
            })
            .collect()
    }

    #[test]
    fn udaf_assembles_and_runs() {
        let udaf = TaskUdaf {
            task: Task::Histogram,
        };
        let mut partial = udaf.init();
        // Feed rows out of order and via a merge to exercise all phases.
        let rows = year_rows(3);
        let (left, right) = rows.split_at(4000);
        for r in right.iter().rev() {
            udaf.iterate(&mut partial, (r.hour, r.temperature, r.kwh));
        }
        let mut partial2 = udaf.init();
        for r in left {
            udaf.iterate(&mut partial2, (r.hour, r.temperature, r.kwh));
        }
        udaf.merge(&mut partial, partial2);
        let out = udaf.terminate(ConsumerId(3), partial).unwrap();
        match out {
            Some(ConsumerResult::Histogram(h)) => {
                assert_eq!(h.consumer, ConsumerId(3));
                assert_eq!(h.histogram.total(), HOURS_PER_YEAR as u64);
            }
            _ => panic!("expected a histogram"),
        }
    }

    #[test]
    fn udaf_rejects_incomplete_years() {
        let udaf = TaskUdaf {
            task: Task::Histogram,
        };
        let mut partial = udaf.init();
        udaf.iterate(&mut partial, (0, 5.0, 1.0));
        assert!(udaf.terminate(ConsumerId(1), partial).is_err());
    }

    #[test]
    fn udf_runs_on_consumer_row() {
        let temps = vec![5.0; HOURS_PER_YEAR];
        let udf = TaskUdf {
            kernel: ConsumerTask::new(Task::Par, &temps).unwrap(),
        };
        let out = udf
            .evaluate((ConsumerId(9), vec![0.7; HOURS_PER_YEAR]))
            .unwrap();
        assert_eq!(out.len(), 1);
        match &out[0] {
            ConsumerResult::Par(p) => assert_eq!(p.consumer, ConsumerId(9)),
            _ => panic!("expected a PAR model"),
        }
    }

    #[test]
    fn udtf_processes_multiple_households() {
        let udtf = TaskUdtf {
            task: Task::Histogram,
        };
        let mut rows = year_rows(1);
        rows.extend(year_rows(2));
        let mut out = Vec::new();
        udtf.process(rows, &mut |r| out.push(r)).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn udtf_rejects_partial_household() {
        let udtf = TaskUdtf {
            task: Task::Histogram,
        };
        let rows: Vec<ReadingRow> = year_rows(1).into_iter().take(100).collect();
        let mut out = Vec::new();
        assert!(udtf.process(rows, &mut |r| out.push(r)).is_err());
    }

    #[test]
    fn operator_labels() {
        assert_eq!(HiveOperator::GenericUdf.label(), "UDF");
        assert_eq!(HiveOperator::Udaf.label(), "UDAF");
        assert_eq!(HiveOperator::Udtf.label(), "UDTF");
    }
}
