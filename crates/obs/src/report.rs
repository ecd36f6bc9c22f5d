//! The reporting half: snapshots, JSON serialization, bench export.
//!
//! # JSON schema
//!
//! A [`MetricsReport`] serializes as:
//!
//! ```json
//! {
//!   "manifest": {
//!     "task": "three_line",
//!     "platform": "matlab",
//!     "threads": 4,
//!     "consumers": 100,
//!     "cold": false
//!   },
//!   "phases": [
//!     {"name": "load", "ns": 152000, "children": []},
//!     {"name": "run",  "ns": 981000, "children": [
//!       {"name": "t1", "ns": 420000, "children": []}
//!     ]}
//!   ],
//!   "counters": [
//!     {"name": "rows_scanned", "value": 876000}
//!   ]
//! }
//! ```
//!
//! A [`BenchExport`] wraps many reports and flattens them into
//! continuous-benchmarking entries:
//!
//! ```json
//! {
//!   "schema": "smda-bench/v1",
//!   "benches": [
//!     {"name": "matlab/three_line/warm/run/t1", "value": 420000,
//!      "range": null, "unit": "ns"},
//!     {"name": "matlab/three_line/warm/rows_scanned", "value": 876000,
//!      "range": null, "unit": "count"}
//!   ],
//!   "runs": [ ...full MetricsReports... ]
//! }
//! ```

use serde::json::{self, SchemaError, Value};
use serde::{Deserialize, Serialize};

/// Identity of one benchmark run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// Analytics task name (e.g. `three_line`, `histogram`).
    pub task: String,
    /// Platform under test (e.g. `matlab`, `system-c`, `madlib`).
    pub platform: String,
    /// Worker threads requested.
    pub threads: usize,
    /// Consumers in the dataset.
    pub consumers: usize,
    /// True when caches were dropped before the run.
    pub cold: bool,
}

impl RunManifest {
    /// Manifest for `task` on `platform`; one thread, warm, empty
    /// dataset until the setters say otherwise.
    pub fn new(task: impl Into<String>, platform: impl Into<String>) -> RunManifest {
        RunManifest {
            task: task.into(),
            platform: platform.into(),
            threads: 1,
            consumers: 0,
            cold: false,
        }
    }

    /// Set the worker-thread count.
    pub fn threads(mut self, threads: usize) -> RunManifest {
        self.threads = threads;
        self
    }

    /// Set the dataset size.
    pub fn consumers(mut self, consumers: usize) -> RunManifest {
        self.consumers = consumers;
        self
    }

    /// Mark the run cold (caches dropped) or warm.
    pub fn cold(mut self, cold: bool) -> RunManifest {
        self.cold = cold;
        self
    }

    fn mode(&self) -> &'static str {
        if self.cold {
            "cold"
        } else {
            "warm"
        }
    }
}

/// One node of the recorded phase tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseNode {
    /// Phase name (single path segment).
    pub name: String,
    /// Accumulated wall-clock nanoseconds.
    pub ns: u64,
    /// Nested sub-phases in execution order.
    pub children: Vec<PhaseNode>,
}

/// Snapshot of everything one run recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// What was run.
    pub manifest: RunManifest,
    /// Top-level phases in execution order.
    pub phases: Vec<PhaseNode>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl MetricsReport {
    /// Nanoseconds recorded at `path`, if that phase exists.
    pub fn phase_ns(&self, path: &[&str]) -> Option<u64> {
        let (first, rest) = path.split_first()?;
        let mut node = self.phases.iter().find(|p| p.name == *first)?;
        for seg in rest {
            node = node.children.iter().find(|p| p.name == *seg)?;
        }
        Some(node.ns)
    }

    /// Value of counter `name`, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Flatten this report into bench entries named
    /// `platform/task/mode/<phase-path>` (unit `ns`) and
    /// `platform/task/mode/<counter>` (unit `count`).
    fn bench_entries(&self) -> Vec<BenchEntry> {
        let prefix = format!(
            "{}/{}/{}",
            self.manifest.platform,
            self.manifest.task,
            self.manifest.mode()
        );
        let mut entries = Vec::new();
        flatten_phases(&self.phases, &prefix, &mut entries);
        for (name, value) in &self.counters {
            entries.push(BenchEntry {
                name: format!("{prefix}/{name}"),
                value: *value,
                range: None,
                unit: "count".to_owned(),
            });
        }
        entries
    }
}

fn flatten_phases(nodes: &[PhaseNode], prefix: &str, out: &mut Vec<BenchEntry>) {
    for node in nodes {
        let name = format!("{prefix}/{}", node.name);
        out.push(BenchEntry {
            name: name.clone(),
            value: node.ns,
            range: None,
            unit: "ns".to_owned(),
        });
        flatten_phases(&node.children, &name, out);
    }
}

/// One continuous-benchmarking data point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEntry {
    /// Slash-joined identifier.
    pub name: String,
    /// Measured value.
    pub value: u64,
    /// Spread annotation (`"± N"`), when a spread is known.
    pub range: Option<String>,
    /// Unit of `value` (`ns`, `count`, ...).
    pub unit: String,
}

/// A whole `BENCH_*.json` document: flattened entries plus the full
/// nested reports they came from.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchExport {
    /// Schema tag; always [`BenchExport::SCHEMA`] when built here.
    pub schema: String,
    /// Flattened `{name, value, range, unit}` data points.
    pub benches: Vec<BenchEntry>,
    /// The underlying per-run reports.
    pub runs: Vec<MetricsReport>,
}

impl BenchExport {
    /// Current schema tag.
    pub const SCHEMA: &'static str = "smda-bench/v1";

    /// Build an export from per-run reports, flattening each into bench
    /// entries.
    pub fn from_runs(runs: Vec<MetricsReport>) -> BenchExport {
        let benches = runs.iter().flat_map(MetricsReport::bench_entries).collect();
        BenchExport {
            schema: BenchExport::SCHEMA.to_owned(),
            benches,
            runs,
        }
    }

    /// Pretty-printed JSON document.
    pub fn to_json_pretty(&self) -> String {
        json::to_string_pretty(self)
    }
}

impl Serialize for RunManifest {
    fn serialize(&self) -> Value {
        let mut v = Value::object();
        v.insert("task", self.task.serialize());
        v.insert("platform", self.platform.serialize());
        v.insert("threads", self.threads.serialize());
        v.insert("consumers", self.consumers.serialize());
        v.insert("cold", self.cold.serialize());
        v
    }
}

impl Deserialize for RunManifest {
    fn deserialize(value: &Value) -> Result<RunManifest, SchemaError> {
        Ok(RunManifest {
            task: json::field(value, "task")?,
            platform: json::field(value, "platform")?,
            threads: json::field(value, "threads")?,
            consumers: json::field(value, "consumers")?,
            cold: json::field(value, "cold")?,
        })
    }
}

impl Serialize for PhaseNode {
    fn serialize(&self) -> Value {
        let mut v = Value::object();
        v.insert("name", self.name.serialize());
        v.insert("ns", self.ns.serialize());
        v.insert("children", self.children.serialize());
        v
    }
}

impl Deserialize for PhaseNode {
    fn deserialize(value: &Value) -> Result<PhaseNode, SchemaError> {
        Ok(PhaseNode {
            name: json::field(value, "name")?,
            ns: json::field(value, "ns")?,
            children: json::field(value, "children")?,
        })
    }
}

impl Serialize for MetricsReport {
    fn serialize(&self) -> Value {
        let mut counters = Vec::with_capacity(self.counters.len());
        for (name, count) in &self.counters {
            let mut c = Value::object();
            c.insert("name", name.serialize());
            c.insert("value", count.serialize());
            counters.push(c);
        }
        let mut v = Value::object();
        v.insert("manifest", self.manifest.serialize());
        v.insert("phases", self.phases.serialize());
        v.insert("counters", Value::Array(counters));
        v
    }
}

impl Deserialize for MetricsReport {
    fn deserialize(value: &Value) -> Result<MetricsReport, SchemaError> {
        let raw = value
            .get("counters")
            .ok_or_else(|| SchemaError::missing("counters"))?;
        let counters = raw
            .as_array()
            .ok_or_else(|| SchemaError::expected("array", raw))?
            .iter()
            .map(|c| Ok((json::field(c, "name")?, json::field(c, "value")?)))
            .collect::<Result<Vec<(String, u64)>, SchemaError>>()?;
        Ok(MetricsReport {
            manifest: json::field(value, "manifest")?,
            phases: json::field(value, "phases")?,
            counters,
        })
    }
}

impl Serialize for BenchEntry {
    fn serialize(&self) -> Value {
        let mut v = Value::object();
        v.insert("name", self.name.serialize());
        v.insert("value", self.value.serialize());
        v.insert("range", self.range.serialize());
        v.insert("unit", self.unit.serialize());
        v
    }
}

impl Deserialize for BenchEntry {
    fn deserialize(value: &Value) -> Result<BenchEntry, SchemaError> {
        Ok(BenchEntry {
            name: json::field(value, "name")?,
            value: json::field(value, "value")?,
            range: json::field(value, "range")?,
            unit: json::field(value, "unit")?,
        })
    }
}

impl Serialize for BenchExport {
    fn serialize(&self) -> Value {
        let mut v = Value::object();
        v.insert("schema", self.schema.serialize());
        v.insert("benches", self.benches.serialize());
        v.insert("runs", self.runs.serialize());
        v
    }
}

impl Deserialize for BenchExport {
    fn deserialize(value: &Value) -> Result<BenchExport, SchemaError> {
        Ok(BenchExport {
            schema: json::field(value, "schema")?,
            benches: json::field(value, "benches")?,
            runs: json::field(value, "runs")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> MetricsReport {
        MetricsReport {
            manifest: RunManifest::new("three_line", "matlab")
                .threads(4)
                .consumers(100)
                .cold(true),
            phases: vec![
                PhaseNode {
                    name: "load".into(),
                    ns: 1500,
                    children: vec![],
                },
                PhaseNode {
                    name: "run".into(),
                    ns: 9000,
                    children: vec![PhaseNode {
                        name: "t1".into(),
                        ns: 4000,
                        children: vec![],
                    }],
                },
            ],
            counters: vec![("rows_scanned".into(), 876)],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let text = serde::json::to_string_pretty(&report);
        let back: MetricsReport = serde::json::from_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn bench_entries_flatten_phases_and_counters() {
        let entries = sample_report().bench_entries();
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "matlab/three_line/cold/load",
                "matlab/three_line/cold/run",
                "matlab/three_line/cold/run/t1",
                "matlab/three_line/cold/rows_scanned",
            ]
        );
        assert_eq!(entries[2].value, 4000);
        assert_eq!(entries[2].unit, "ns");
        assert_eq!(entries[3].unit, "count");
    }

    #[test]
    fn export_round_trips_and_carries_schema() {
        let export = BenchExport::from_runs(vec![sample_report()]);
        assert_eq!(export.schema, BenchExport::SCHEMA);
        let text = export.to_json_pretty();
        let back = json::from_str::<BenchExport>(&text).unwrap();
        assert_eq!(back, export);
        // Every flattened entry has the dkls23-style fields.
        let doc = serde::json::parse(&text).unwrap();
        let benches = doc.get("benches").unwrap().as_array().unwrap();
        assert!(!benches.is_empty());
        for b in benches {
            assert!(b.get("name").unwrap().as_str().is_some());
            assert!(b.get("value").unwrap().as_u64().is_some());
            assert!(b.get("unit").unwrap().as_str().is_some());
        }
    }

    #[test]
    fn phase_lookup_walks_the_tree() {
        let report = sample_report();
        assert_eq!(report.phase_ns(&["run", "t1"]), Some(4000));
        assert_eq!(report.phase_ns(&["run"]), Some(9000));
        assert_eq!(report.phase_ns(&["run", "t9"]), None);
        assert_eq!(report.phase_ns(&["nope"]), None);
    }

    #[test]
    fn parse_rejects_wrong_shapes() {
        assert!(json::from_str::<BenchExport>("{}").is_err());
        assert!(json::from_str::<BenchExport>("not json").is_err());
        let missing_unit =
            r#"{"schema":"s","benches":[{"name":"x","value":1,"range":null}],"runs":[]}"#;
        assert!(json::from_str::<BenchExport>(missing_unit).is_err());
    }
}
