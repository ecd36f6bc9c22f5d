//! A HiveQL-subset front end.
//!
//! The paper drives Hive through SQL-like queries that invoke UDFs. This
//! module parses the dialect the benchmark needs and plans it onto
//! [`crate::engine::HiveEngine`]:
//!
//! ```sql
//! SELECT histogram(kwh, 10)        FROM meter_data GROUP BY household;
//! SELECT three_line(kwh, temp)     FROM meter_data GROUP BY household;
//! SELECT par(kwh, temp, 3)         FROM meter_data GROUP BY household;
//! SELECT top_k_cosine(a.kwh, b.kwh, 10) FROM meter_data a JOIN meter_data b;
//! ```
//!
//! The planner chooses UDF/UDAF/UDTF by the table's format, exactly as
//! [`HiveEngine::run_with`] does; the join form plans the self-join.

use smda_core::Task;
use smda_engines::RunSpec;
use smda_types::{Error, Result};

use crate::engine::{HiveEngine, HiveRunResult};

/// A parsed benchmark query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The benchmark task the query's function maps to.
    pub task: Task,
    /// The table named in `FROM`.
    pub table: String,
    /// Whether a `GROUP BY household` clause was present.
    pub grouped: bool,
    /// Whether the query is a self-join.
    pub joined: bool,
}

fn tokenize(sql: &str) -> Vec<String> {
    sql.replace(['(', ')', ','], " ")
        .split_whitespace()
        .map(|t| t.trim_end_matches(';').to_ascii_lowercase())
        .filter(|t| !t.is_empty())
        .collect()
}

/// Parse one benchmark query.
pub fn parse(sql: &str) -> Result<Query> {
    let tokens = tokenize(sql);
    let mut pos = 0;
    let expect = |pos: &mut usize, want: &str| -> Result<()> {
        if tokens.get(*pos).map(|t| t.as_str()) == Some(want) {
            *pos += 1;
            Ok(())
        } else {
            Err(Error::parse(
                "HiveQL",
                None,
                format!(
                    "expected `{want}`, found `{}`",
                    tokens.get(*pos).cloned().unwrap_or_default()
                ),
            ))
        }
    };

    expect(&mut pos, "select")?;
    let func = tokens
        .get(pos)
        .ok_or_else(|| Error::parse("HiveQL", None, "missing function after SELECT"))?
        .clone();
    pos += 1;
    let task = match func.as_str() {
        "histogram" => Task::Histogram,
        "three_line" => Task::ThreeLine,
        "par" => Task::Par,
        "top_k_cosine" | "cosine_similarity" => Task::Similarity,
        other => {
            return Err(Error::parse(
                "HiveQL",
                None,
                format!("unknown function `{other}`"),
            ));
        }
    };
    // Skip function arguments (column names / constants) until FROM.
    while pos < tokens.len() && tokens[pos] != "from" {
        pos += 1;
    }
    expect(&mut pos, "from")?;
    let table = tokens
        .get(pos)
        .ok_or_else(|| Error::parse("HiveQL", None, "missing table after FROM"))?
        .clone();
    pos += 1;

    let mut grouped = false;
    let mut joined = false;
    while pos < tokens.len() {
        match tokens[pos].as_str() {
            "group" => {
                expect(&mut pos, "group")?;
                expect(&mut pos, "by")?;
                expect(&mut pos, "household")?;
                grouped = true;
            }
            "join" => {
                pos += 1;
                let join_table = tokens
                    .get(pos)
                    .ok_or_else(|| Error::parse("HiveQL", None, "missing table after JOIN"))?;
                if *join_table != table {
                    return Err(Error::parse(
                        "HiveQL",
                        None,
                        "only self-joins of the meter table are supported",
                    ));
                }
                pos += 1;
                joined = true;
            }
            // Table aliases (`meter_data a`).
            _ => pos += 1,
        }
    }

    if task == Task::Similarity && !joined {
        return Err(Error::parse(
            "HiveQL",
            None,
            "similarity search must be written as a self-join",
        ));
    }
    Ok(Query {
        task,
        table,
        grouped,
        joined,
    })
}

/// A session holding an engine and accepting SQL.
#[derive(Debug)]
pub struct HiveSession {
    engine: HiveEngine,
}

impl HiveSession {
    /// Wrap an engine (already `load`ed with an external table).
    pub fn new(engine: HiveEngine) -> Self {
        HiveSession { engine }
    }

    /// Parse and execute one query.
    pub fn sql(&mut self, sql: &str) -> Result<HiveRunResult> {
        let query = parse(sql)?;
        if query.table != "meter_data" {
            return Err(Error::Invalid(format!("unknown table `{}`", query.table)));
        }
        self.engine.run_with(&RunSpec::builder(query.task).build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_four_benchmark_queries() {
        let q = parse("SELECT histogram(kwh, 10) FROM meter_data GROUP BY household").unwrap();
        assert_eq!(q.task, Task::Histogram);
        assert!(q.grouped);
        let q = parse("SELECT three_line(kwh, temp) FROM meter_data GROUP BY household;").unwrap();
        assert_eq!(q.task, Task::ThreeLine);
        let q = parse("select par(kwh, temp, 3) from meter_data group by household").unwrap();
        assert_eq!(q.task, Task::Par);
        let q = parse("SELECT top_k_cosine(a.kwh, b.kwh, 10) FROM meter_data a JOIN meter_data b")
            .unwrap();
        assert_eq!(q.task, Task::Similarity);
        assert!(q.joined);
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse("DELETE FROM meter_data").is_err());
        assert!(parse("SELECT frobnicate(x) FROM meter_data").is_err());
        assert!(parse("SELECT histogram(kwh)").is_err());
        assert!(parse("SELECT histogram(kwh) FROM meter_data GROUP BY time").is_err());
        // Similarity requires a join.
        assert!(parse("SELECT top_k_cosine(kwh) FROM meter_data").is_err());
        // Join must be a self-join.
        assert!(parse("SELECT top_k_cosine(a.kwh, b.kwh) FROM meter_data a JOIN other b").is_err());
    }

    #[test]
    fn session_executes_sql() {
        use smda_cluster::{ClusterTopology, CostModel};
        use smda_types::{
            ConsumerId, ConsumerSeries, DataFormat, Dataset, TemperatureSeries, HOURS_PER_YEAR,
        };
        let temp =
            TemperatureSeries::new((0..HOURS_PER_YEAR).map(|h| (h % 30) as f64).collect()).unwrap();
        let consumers = (0..3)
            .map(|i| {
                ConsumerSeries::new(
                    ConsumerId(i),
                    (0..HOURS_PER_YEAR)
                        .map(|h| 0.5 + (h % 24) as f64 * 0.01)
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        let ds = Dataset::new(consumers, temp).unwrap();
        let mut engine = HiveEngine::new(
            ClusterTopology {
                workers: 2,
                slots_per_worker: 2,
                cost: CostModel::mapreduce(),
            },
            256 * 1024,
        );
        engine.load(&ds, DataFormat::ConsumerPerLine).unwrap();
        let mut session = HiveSession::new(engine);
        let r = session
            .sql("SELECT histogram(kwh, 10) FROM meter_data GROUP BY household")
            .unwrap();
        assert_eq!(r.output.len(), 3);
        assert!(session
            .sql("SELECT histogram(kwh) FROM other_table")
            .is_err());
    }
}
