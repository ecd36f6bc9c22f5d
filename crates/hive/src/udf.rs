//! Hive's three extension points, plus the benchmark implementations.
//!
//! The paper implements each benchmark algorithm behind the mechanism the
//! data format allows: a UDAF when a reduce is unavoidable (format 1), a
//! generic UDF for map-only scalar work (format 2), and a UDTF that
//! aggregates map-side over whole files (format 3).

use smda_types::formats::{assemble_households, assemble_year, HouseholdYear};
use smda_types::{ConsumerId, ConsumerSeries, Reading, Result};

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

impl HiveOperator {}

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
//
// One implementation per extension point, each over "what to do with a
// household's year": a per-consumer benchmark task (→ its result) or
// job 1 of the similarity self-join (→ the series). Years are put
// together by the one assembler in `smda_types::formats`, so all three
// refuse an incomplete household the same way.

/// What a plan does with one household's assembled year (formats 1/3).
pub type OnYear<'a, O> = dyn Fn(HouseholdYear) -> Result<Option<O>> + Sync + 'a;
/// What a plan does with one household's Format-2 row. Temperature comes
/// from the shared sidecar, as the readings line carries none.
pub type OnSeries<'a, O> = dyn Fn(ConsumerSeries) -> Result<Option<O>> + Sync + 'a;

/// Assemble a household's year reduce-side and hand it on — the UDAF
/// behind format 1 (and format 3's UDAF variant).
pub struct YearUdaf<'a, O>(pub &'a OnYear<'a, O>);

impl<O> Udaf for YearUdaf<'_, O> {
    type Row = Reading;
    type Partial = Vec<Reading>;
    type Output = Option<O>;

    fn init(&self) -> Self::Partial {
        Vec::new()
    }

    fn iterate(&self, partial: &mut Self::Partial, row: Self::Row) {
        partial.push(row);
    }

    fn merge(&self, into: &mut Self::Partial, mut from: Self::Partial) {
        into.append(&mut from);
    }

    fn terminate(&self, key: ConsumerId, partial: Self::Partial) -> Result<Self::Output> {
        (self.0)(assemble_year(key, partial)?)
    }
}

/// Hand on a whole Format-2 row — the generic UDF behind format 2's
/// map-only plan.
pub struct SeriesUdf<'a, O>(pub &'a OnSeries<'a, O>);

impl<O> GenericUdf<ConsumerSeries, O> for SeriesUdf<'_, O> {
    fn evaluate(&self, series: ConsumerSeries) -> Result<Vec<O>> {
        Ok((self.0)(series)?.into_iter().collect())
    }
}

/// Group parsed rows by household map-side and hand each year on — the
/// UDTF behind format 3 (whole households per file, so no reduce is
/// needed).
pub struct YearUdtf<'a, O>(pub &'a OnYear<'a, O>);

impl<O> Udtf<Reading, O> for YearUdtf<'_, O> {
    fn process(&self, rows: Vec<Reading>, emit: &mut dyn FnMut(O)) -> Result<()> {
        for year in assemble_households(rows) {
            if let Some(out) = (self.0)(year?)? {
                emit(out);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_core::tasks::ConsumerResult;
    use smda_core::{ConsumerTask, Task};
    use smda_stats::with_fit_scratch;
    use smda_types::HOURS_PER_YEAR;

    fn year_rows(id: u32) -> Vec<Reading> {
        (0..HOURS_PER_YEAR)
            .map(|h| Reading {
                consumer: ConsumerId(id),
                hour: h as u32,
                temperature: (h % 40) as f64 - 10.0,
                kwh: 0.4 + 0.05 * ((h % 24) as f64),
            })
            .collect()
    }

    fn histogram(y: HouseholdYear) -> Result<Option<ConsumerResult>> {
        ConsumerTask::run_assembled(Task::Histogram, y.consumer, &y.kwh, &y.temperature)
    }

    #[test]
    fn udaf_assembles_and_runs() {
        let udaf = YearUdaf(&histogram);
        let mut partial = udaf.init();
        // Feed rows out of order and via a merge to exercise all phases.
        let rows = year_rows(3);
        let (left, right) = rows.split_at(4000);
        for r in right.iter().rev() {
            udaf.iterate(&mut partial, *r);
        }
        let mut partial2 = udaf.init();
        for r in left {
            udaf.iterate(&mut partial2, *r);
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
        let udaf = YearUdaf(&histogram);
        let mut partial = udaf.init();
        udaf.iterate(&mut partial, year_rows(1)[0]);
        assert!(udaf.terminate(ConsumerId(1), partial).is_err());
    }

    #[test]
    fn udf_runs_on_consumer_row() {
        let temps = vec![5.0; HOURS_PER_YEAR];
        let kernel = ConsumerTask::new(Task::Par, &temps).unwrap();
        let par =
            |s: ConsumerSeries| Ok(with_fit_scratch(|scratch| kernel.run_series(&s, scratch)));
        let out = SeriesUdf(&par)
            .evaluate(ConsumerSeries::new(ConsumerId(9), vec![0.7; HOURS_PER_YEAR]).unwrap())
            .unwrap();
        assert_eq!(out.len(), 1);
        match &out[0] {
            ConsumerResult::Par(p) => assert_eq!(p.consumer, ConsumerId(9)),
            _ => panic!("expected a PAR model"),
        }
    }

    #[test]
    fn udtf_processes_multiple_households() {
        let mut rows = year_rows(1);
        rows.extend(year_rows(2));
        let mut out = Vec::new();
        YearUdtf(&histogram)
            .process(rows, &mut |r| out.push(r))
            .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn udtf_rejects_partial_household() {
        let rows: Vec<Reading> = year_rows(1).into_iter().take(100).collect();
        let mut out = Vec::new();
        assert!(YearUdtf(&histogram)
            .process(rows, &mut |r| out.push(r))
            .is_err());
    }
}
