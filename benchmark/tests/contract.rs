//! The result line against `BENCHMARK.json`: a run prints every metric
//! the file lists for its kind, with the listed unit, and no other.

use std::collections::BTreeMap;
use std::path::Path;

use serde::json::Value;
use smda_benchmark::catalog::{Sizes, END_TO_END, PER_LAYER, WORKLOADS};
use smda_benchmark::workload::{run, Args};

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde::json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn strings<'a>(spec: &'a Value, section: &str, key: &str) -> Vec<&'a str> {
    let entries = spec.get(section).and_then(Value::as_array);
    entries
        .expect("section is an array")
        .iter()
        .map(|entry| {
            entry
                .get(key)
                .and_then(Value::as_str)
                .expect("string field")
        })
        .collect()
}

/// `name → unit` of the metrics `BENCHMARK.json` lists under `section`.
fn listed(section: &str) -> BTreeMap<String, String> {
    let spec = spec();
    let names = strings(&spec, section, "name");
    let units = strings(&spec, section, "unit");
    names
        .into_iter()
        .zip(units)
        .map(|(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

fn printed(trace: bool) -> BTreeMap<String, String> {
    let out = std::env::temp_dir().join(format!(
        "smda-benchmark-test-{}-{trace}",
        std::process::id()
    ));
    let outcome = run(&Args {
        workload: "spilling".into(),
        seed: 3,
        seconds: 0.0,
        trace,
        out: out.clone(),
        sizes: Some(Sizes::TEST),
    })
    .expect("a tiny run succeeds");
    assert_eq!(outcome.tally.failed, 0, "{:?}", outcome.tally.failures);
    assert!(outcome.tally.attempted > 0);
    let line = outcome.result_line();
    assert!(
        line.starts_with("{\"correct\":true,\"attempted\":"),
        "{line}"
    );
    if trace {
        assert!(
            out.join("trace-spilling.json").is_file(),
            "span file written"
        );
    }
    let leftovers: Vec<_> = std::fs::read_dir(&out)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("tmp-"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "scratch data is removed: {leftovers:?}"
    );
    std::fs::remove_dir_all(&out).unwrap();
    outcome
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            assert!(value.is_finite(), "{name} = {value}");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

#[test]
fn an_untraced_run_prints_exactly_the_end_to_end_metrics() {
    let want = listed("end_to_end");
    assert_eq!(want.len(), END_TO_END.len());
    assert!(want.contains_key("setup_s"));
    assert_eq!(printed(false), want);
}

#[test]
fn a_traced_run_prints_exactly_the_per_layer_metrics() {
    let want = listed("per_layer");
    assert_eq!(want.len(), PER_LAYER.len());
    assert_eq!(printed(true), want);
}

#[test]
fn the_workloads_are_the_listed_ones() {
    assert_eq!(strings(&spec(), "workloads", "name"), WORKLOADS);
}
