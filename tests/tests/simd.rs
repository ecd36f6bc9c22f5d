//! SIMD dispatch contract: forcing any tier — the scalar fallback, AVX2,
//! or AVX-512 with its two-pairs-per-`zmm` register block — must not
//! change a single bit of any platform's similarity output, because
//! every lane-preserving kernel performs the identical IEEE operation
//! sequence as the scalar reference.
//!
//! The same holds for the hourly lane kernel under `fit_par_scratch`:
//! the tiers instantiate one loop nest, and each must reproduce
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
use smda_stats::{under_every_tier, FitScratch, KernelDispatch, SimdTier};
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
    // Fourteen rows: the first query block of eight has six candidates
    // past it — one 8 × 4 block under AVX-512 and two columns over — and
    // the second is a 4 × 2 group with two scan rows.
    let ds = fixture_dataset(14);
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

    // Every tier this machine runs (clamped ones skipped), scalar first.
    let mut per_tier = Vec::new();
    under_every_tier(|tier| {
        assert_eq!(
            KernelDispatch::current().tier,
            tier,
            "forcing the {tier:?} tier did not take effect"
        );
        let similarity = run_all(&mut single, &mut hive, &mut spark);
        per_tier.push((tier, similarity, par_fits(&ds)));
    });
    assert_eq!(per_tier[0].0, SimdTier::Scalar);

    // Every platform's bits must be unchanged by the switch...
    let baseline = ds.consumers().iter();
    let par_baseline = TaskOutput::Par(
        baseline
            .map(|c| fit_par_baseline(c, ds.temperature()))
            .collect(),
    );
    let (_, scalar, _) = &per_tier[0];
    assert_eq!(scalar.len(), 5, "expected all five platforms");
    for (tier, similarity, par) in &per_tier {
        for ((name, bits), (name_s, bits_s)) in similarity.iter().zip(scalar) {
            assert_eq!(name, name_s);
            assert_eq!(
                bits, bits_s,
                "{name} similarity bits changed between the scalar and {tier:?} tiers"
            );
        }
        // ...and the PAR lane kernel gives the baseline's under each.
        assert!(
            par.bits_eq(&par_baseline),
            "{tier:?} PAR fit left the baseline"
        );
    }
}
