//! Observability contract: every platform records the same phase
//! hierarchy, and the serialized reports match the documented schema.

use smda_core::Task;
use smda_engines::{
    observe_session, ColumnarEngine, NumericEngine, Platform, RelationalEngine, RelationalLayout,
    RunSpec,
};
use smda_integration::{fixture_dataset, TempDir};
use smda_obs::{counters, BenchExport, MetricsReport, MetricsSink};
use smda_storage::FileLayout;

fn platforms(dir: &TempDir) -> Vec<Box<dyn Platform>> {
    vec![
        Box::new(NumericEngine::new(
            dir.path("matlab"),
            FileLayout::Partitioned,
        )),
        Box::new(RelationalEngine::new(
            dir.path("madlib"),
            RelationalLayout::ReadingPerRow,
        )),
        Box::new(ColumnarEngine::new(dir.path("systemc"))),
    ]
}

#[test]
fn every_platform_emits_the_three_session_phases() {
    let ds = fixture_dataset(3);
    let dir = TempDir::new("metrics-phases");
    for engine in &mut platforms(&dir) {
        let spec = RunSpec::builder(Task::ThreeLine)
            .threads(2)
            .metrics(MetricsSink::recording())
            .build();
        let (result, report) =
            observe_session(engine.as_mut(), &ds, &spec).expect("observed session succeeds");
        assert_eq!(result.output.len(), 3);
        let name = engine.name();
        for phase in ["load", "warm", "run"] {
            let ns = report.phase_ns(&[phase]).unwrap_or_else(|| {
                panic!("{name}: phase {phase} missing from {:?}", report.phases)
            });
            assert!(ns > 0, "{name}: phase {phase} has zero duration");
        }
        // Engine instrumentation nests under the session's run scope.
        assert!(
            report.phase_ns(&["run", "fan_out"]).is_some(),
            "{name}: no fan_out under run: {:?}",
            report.phases
        );
        assert!(
            report.counter(counters::ROWS_SCANNED).unwrap_or(0) > 0,
            "{name}: no rows_scanned counter"
        );
        assert_eq!(report.manifest.platform, name);
        assert_eq!(report.manifest.consumers, 3);
    }
}

#[test]
fn reports_round_trip_and_match_the_documented_schema() {
    let ds = fixture_dataset(2);
    let dir = TempDir::new("metrics-json");
    let mut engine = ColumnarEngine::new(dir.path("store"));
    let spec = RunSpec::builder(Task::Histogram)
        .metrics(MetricsSink::recording())
        .build();
    let (_, report) = observe_session(&mut engine, &ds, &spec).expect("session succeeds");

    // Round trip: serialize -> parse -> identical report.
    let text = serde::json::to_string_pretty(&report);
    let back: MetricsReport = serde::json::from_str(&text).expect("report parses back");
    assert_eq!(back, report);

    // Schema: the exact field names documented in smda_obs::report.
    let doc = serde::json::parse(&text).expect("valid JSON");
    let manifest = doc.get("manifest").expect("manifest object");
    for field in ["task", "platform", "threads", "consumers", "cold"] {
        assert!(manifest.get(field).is_some(), "manifest.{field} missing");
    }
    let phases = doc
        .get("phases")
        .and_then(|p| p.as_array())
        .expect("phases array");
    assert!(!phases.is_empty());
    for phase in phases {
        assert!(phase.get("name").and_then(|v| v.as_str()).is_some());
        assert!(phase.get("ns").and_then(|v| v.as_u64()).is_some());
        assert!(phase.get("children").and_then(|v| v.as_array()).is_some());
    }
    for counter in doc
        .get("counters")
        .and_then(|c| c.as_array())
        .expect("counters array")
    {
        assert!(counter.get("name").and_then(|v| v.as_str()).is_some());
        assert!(counter.get("value").and_then(|v| v.as_u64()).is_some());
    }
}

#[test]
fn bench_export_flattens_runs_into_named_entries() {
    let ds = fixture_dataset(2);
    let dir = TempDir::new("metrics-export");
    let mut engine = NumericEngine::new(dir.path("matlab"), FileLayout::Partitioned);
    let spec = RunSpec::builder(Task::Par)
        .metrics(MetricsSink::recording())
        .build();
    let (_, report) = observe_session(&mut engine, &ds, &spec).expect("session succeeds");

    let export = BenchExport::from_runs(vec![report]);
    assert_eq!(export.schema, BenchExport::SCHEMA);
    let names: Vec<&str> = export.benches.iter().map(|e| e.name.as_str()).collect();
    for suffix in ["load", "warm", "run"] {
        let want = format!("Matlab/PAR/warm/{suffix}");
        assert!(
            names.contains(&want.as_str()),
            "missing {want} in {names:?}"
        );
    }
    for entry in &export.benches {
        assert!(
            entry.unit == "ns" || entry.unit == "count",
            "odd unit {}",
            entry.unit
        );
    }

    // The whole document survives a disk round trip.
    let back =
        serde::json::from_str::<BenchExport>(&export.to_json_pretty()).expect("export parses back");
    assert_eq!(back, export);
}
