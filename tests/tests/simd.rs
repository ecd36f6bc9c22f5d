//! SIMD dispatch contract: forcing the scalar tier (the non-AVX2
//! fallback path) must not change a single bit of any platform's
//! similarity output, because the lane-preserving AVX2 kernel performs
//! the identical IEEE operation sequence as the scalar reference.
//!
//! The same holds for the hourly lane kernel under `fit_par_scratch`:
//! both tiers instantiate one loop nest, and both must reproduce
//! `fit_par_baseline`.
//!
//! One test function on purpose: the dispatch tier is process-global,
//! and sibling tests in this binary would race a forced tier.

use smda_cluster::{ClusterTopology, CostModel};
use smda_core::{fit_par_baseline, fit_par_scratch, Task, TaskOutput};
use smda_engines::{
    ColumnarEngine, NumericEngine, Platform, RelationalEngine, RelationalLayout, RunSpec,
};
use smda_hive::HiveEngine;
use smda_integration::{fixture_dataset, TempDir};
use smda_spark::SparkEngine;
use smda_stats::{FitScratch, KernelDispatch, SimdTier};
use smda_storage::FileLayout;
use smda_types::DataFormat;

/// Every fixture consumer's PAR fit under the tier now in force, through
/// one (soon dirty) arena. Compared with [`TaskOutput::bits_eq`], so
/// equality is exact.
fn par_fits(ds: &smda_types::Dataset) -> TaskOutput {
    let mut scratch = FitScratch::new();
    let temps = ds.temperature().values();
    let fits = ds.consumers().iter();
    TaskOutput::Par(
        fits.map(|c| fit_par_scratch(c.id, c.readings(), temps, &mut scratch))
            .collect(),
    )
}

/// Similarity output reduced to raw bits, so equality is exact.
fn bits(out: &TaskOutput) -> Vec<(u32, Vec<(u32, u64)>)> {
    match out {
        TaskOutput::Similarity(ms) => ms
            .iter()
            .map(|m| {
                (
                    m.consumer.raw(),
                    m.matches
                        .iter()
                        .map(|(id, s)| (id.raw(), s.to_bits()))
                        .collect(),
                )
            })
            .collect(),
        other => panic!("expected similarity output, got {} rows", other.len()),
    }
}

#[test]
fn forced_scalar_fallback_matches_dispatched_output_on_all_five_platforms() {
    let ds = fixture_dataset(8);
    let dir = TempDir::new("simd-fallback");

    let mut single: Vec<Box<dyn Platform>> = vec![
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
    for engine in &mut single {
        engine.load(&ds).expect("load succeeds");
    }
    let topo = |cost| ClusterTopology {
        workers: 3,
        slots_per_worker: 2,
        cost,
    };
    let mut hive = HiveEngine::new(topo(CostModel::mapreduce()), 128 * 1024);
    hive.load(&ds, DataFormat::ReadingPerLine)
        .expect("hive load succeeds");
    let mut spark = SparkEngine::new(topo(CostModel::spark()), 128 * 1024);
    spark
        .load(&ds, DataFormat::ConsumerPerLine)
        .expect("spark load succeeds");

    let spec = RunSpec::builder(Task::Similarity).threads(4).build();
    let run_all =
        |single: &mut Vec<Box<dyn Platform>>, hive: &mut HiveEngine, spark: &mut SparkEngine| {
            let mut outs: Vec<(String, Vec<(u32, Vec<(u32, u64)>)>)> = Vec::new();
            for engine in single.iter_mut() {
                let r = engine.run(&spec).expect("similarity run succeeds");
                outs.push((engine.name().to_string(), bits(&r.output)));
            }
            let h = hive.run_task(Task::Similarity).expect("hive run succeeds");
            outs.push(("Hive".into(), bits(&h.output)));
            let s = spark
                .run_task(Task::Similarity)
                .expect("spark run succeeds");
            outs.push(("Spark".into(), bits(&s.output)));
            outs
        };

    // Baseline: whatever the machine dispatches (AVX2 where detected).
    let prev = smda_stats::force_tier(smda_stats::SimdTier::Avx2);
    let dispatched = run_all(&mut single, &mut hive, &mut spark);
    let par_dispatched = par_fits(&ds);

    // Forced fallback: the dispatch must select the scalar path...
    smda_stats::force_tier(SimdTier::Scalar);
    assert_eq!(
        KernelDispatch::current().tier,
        SimdTier::Scalar,
        "forcing the scalar tier did not take effect"
    );
    let scalar = run_all(&mut single, &mut hive, &mut spark);
    let par_scalar = par_fits(&ds);
    smda_stats::force_tier(prev);

    // ...and every platform's bits must be unchanged by the switch.
    assert_eq!(dispatched.len(), 5, "expected all five platforms");
    for ((name_d, bits_d), (name_s, bits_s)) in dispatched.iter().zip(&scalar) {
        assert_eq!(name_d, name_s);
        assert_eq!(
            bits_d, bits_s,
            "{name_d} similarity bits changed between dispatched and forced-scalar runs"
        );
    }

    // The PAR lane kernel: both tiers give the baseline's bits.
    let baseline = ds.consumers().iter();
    let par_baseline = TaskOutput::Par(
        baseline
            .map(|c| fit_par_baseline(c, ds.temperature()))
            .collect(),
    );
    assert!(
        par_dispatched.bits_eq(&par_baseline),
        "dispatched PAR fit left the baseline"
    );
    assert!(
        par_scalar.bits_eq(&par_baseline),
        "forced-scalar PAR fit left the baseline"
    );
}
