//! Fit-layer contract: every arena-backed fitting path — the parallel
//! engines' per-worker scratches, the cluster map sides' thread-local
//! arenas, and the generator's training loop — must reproduce the
//! pre-arena allocating baselines (`fit_three_line_baseline`,
//! `fit_par_baseline`) bit for bit, at every thread count.

use smda_cluster::{ClusterTopology, CostModel};
use smda_core::{
    fit_par_baseline, fit_three_line_baseline, DataGenerator, GeneratorConfig, Task, TaskOutput,
    ThreeLineConfig,
};
use smda_engines::{
    ColumnarEngine, NumericEngine, Platform, RelationalEngine, RelationalLayout, RunSpec,
};
use smda_hive::HiveEngine;
use smda_integration::{fixture_dataset, TempDir};
use smda_spark::SparkEngine;
use smda_storage::FileLayout;
use smda_types::{DataFormat, Dataset};

/// The pre-arena reference: the retained allocating baselines, run
/// single-threaded over the dataset. Compared with
/// [`TaskOutput::bits_eq`], so equality is exact.
fn reference(ds: &Dataset) -> (TaskOutput, TaskOutput) {
    let config = ThreeLineConfig::default();
    let tl = ds
        .consumers()
        .iter()
        .filter_map(|c| fit_three_line_baseline(c, ds.temperature(), &config))
        .collect();
    let par = ds
        .consumers()
        .iter()
        .map(|c| fit_par_baseline(c, ds.temperature()))
        .collect();
    (TaskOutput::ThreeLine(tl), TaskOutput::Par(par))
}

#[test]
fn single_server_engines_match_prearena_baseline_bitwise_at_every_width() {
    let ds = fixture_dataset(6);
    let (want_tl, want_par) = reference(&ds);
    let dir = TempDir::new("fits-exact");
    let mut engines: Vec<Box<dyn Platform>> = vec![
        Box::new(NumericEngine::new(
            dir.path("matlab"),
            FileLayout::Partitioned,
        )),
        Box::new(RelationalEngine::new(
            dir.path("madlib"),
            RelationalLayout::ArrayPerConsumer,
        )),
        Box::new(ColumnarEngine::new(dir.path("systemc"))),
    ];
    for engine in &mut engines {
        engine.load(&ds).expect("load succeeds");
        for threads in [1usize, 2, 4, 8] {
            let tl = engine
                .run(&RunSpec::builder(Task::ThreeLine).threads(threads).build())
                .expect("3-line run succeeds");
            assert!(
                tl.output.bits_eq(&want_tl),
                "{} 3-line diverged from the baseline at {threads} threads",
                engine.name()
            );
            let par = engine
                .run(&RunSpec::builder(Task::Par).threads(threads).build())
                .expect("PAR run succeeds");
            assert!(
                par.output.bits_eq(&want_par),
                "{} PAR diverged from the baseline at {threads} threads",
                engine.name()
            );
        }
    }
}

#[test]
fn cluster_engines_match_prearena_baseline_bitwise_at_every_width() {
    // The text formats print with `{}` (shortest round-trip), so the
    // parsed data is bit-identical to the in-memory dataset and the map
    // sides — which fit through thread-local arenas — must land exactly
    // on the baseline.
    let ds = fixture_dataset(5);
    let (want_tl, want_par) = reference(&ds);
    for workers in [1usize, 2, 4, 8] {
        let topo_mr = ClusterTopology {
            workers,
            slots_per_worker: 2,
            cost: CostModel::mapreduce(),
        };
        let topo_sp = ClusterTopology {
            workers,
            slots_per_worker: 2,
            cost: CostModel::spark(),
        };
        let mut hive = HiveEngine::new(topo_mr, 128 * 1024);
        hive.load(&ds, DataFormat::ReadingPerLine)
            .expect("hive load succeeds");
        let mut spark = SparkEngine::new(topo_sp, 128 * 1024);
        spark
            .load(&ds, DataFormat::ReadingPerLine)
            .expect("spark load succeeds");
        for (name, out_tl, out_par) in [
            (
                "hive",
                hive.run_task(Task::ThreeLine).expect("hive 3-line").output,
                hive.run_task(Task::Par).expect("hive PAR").output,
            ),
            (
                "spark",
                spark
                    .run_task(Task::ThreeLine)
                    .expect("spark 3-line")
                    .output,
                spark.run_task(Task::Par).expect("spark PAR").output,
            ),
        ] {
            assert!(
                out_tl.bits_eq(&want_tl),
                "{name} 3-line diverged from the baseline at {workers} workers"
            );
            assert!(
                out_par.bits_eq(&want_par),
                "{name} PAR diverged from the baseline at {workers} workers"
            );
        }
    }
}

#[test]
fn generator_training_is_deterministic_per_seed() {
    let ds = fixture_dataset(8);
    for seed in [1u64, 2015] {
        let config = GeneratorConfig {
            clusters: 3,
            seed,
            ..GeneratorConfig::default()
        };
        let a = DataGenerator::train(&ds, config).expect("train succeeds");
        let b = DataGenerator::train(&ds, config).expect("train succeeds");
        assert_eq!(
            a.clusters().len(),
            b.clusters().len(),
            "cluster count diverged for seed {seed}"
        );
        for (x, y) in a.clusters().iter().zip(b.clusters()) {
            let cx: Vec<u64> = x.centroid.iter().map(|v| v.to_bits()).collect();
            let cy: Vec<u64> = y.centroid.iter().map(|v| v.to_bits()).collect();
            assert_eq!(cx, cy, "centroid diverged for seed {seed}");
            assert_eq!(x.members.len(), y.members.len());
            for (m, n) in x.members.iter().zip(&y.members) {
                for (p, q) in [
                    (m.heating_gradient, n.heating_gradient),
                    (m.cooling_gradient, n.cooling_gradient),
                    (m.heating_knot, n.heating_knot),
                    (m.cooling_knot, n.cooling_knot),
                ] {
                    assert_eq!(p.to_bits(), q.to_bits(), "member diverged for seed {seed}");
                }
            }
        }
    }
}
