//! Kernel-layer contract: every similarity path runs on the same
//! canonical dot product and top-k order, so outputs are bit-identical
//! wherever the underlying data is bit-identical — across engines,
//! thread counts, and cluster plans — and the instrumented engines
//! report the kernel's work counters.

use smda_cluster::{ClusterTopology, CostModel};
use smda_core::{similarity_search, Task, TaskOutput, SIMILARITY_TOP_K};
use smda_engines::{
    observe_session, run_similarity_oooc, ColumnarEngine, NumericEngine, Platform,
    RelationalEngine, RelationalLayout, RunSpec,
};
use smda_hive::HiveEngine;
use smda_integration::{fixture_dataset, TempDir};
use smda_obs::{counters, MetricsSink, RunManifest};
use smda_spark::SparkEngine;
use smda_storage::{BinaryEncoding, BinaryStore, FileLayout};
use smda_types::DataFormat;

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
fn exact_storage_engines_match_reference_bitwise_at_every_width() {
    let ds = fixture_dataset(9);
    let want = TaskOutput::Similarity(similarity_search(&ds, SIMILARITY_TOP_K));
    let dir = TempDir::new("kernels-exact");
    let mut engines: Vec<Box<dyn Platform>> = vec![
        Box::new(RelationalEngine::new(
            dir.path("madlib"),
            RelationalLayout::ArrayPerConsumer,
        )),
        Box::new(ColumnarEngine::new(dir.path("systemc"))),
    ];
    for engine in &mut engines {
        engine.load(&ds).expect("load succeeds");
        for threads in [1usize, 2, 4, 8] {
            let r = engine
                .run(&RunSpec::builder(Task::Similarity).threads(threads).build())
                .expect("similarity run succeeds");
            assert_eq!(
                bits(&r.output),
                bits(&want),
                "{} diverged from reference at {threads} threads",
                engine.name()
            );
        }
    }
}

#[test]
fn csv_engine_is_bit_stable_across_widths() {
    // Matlab's CSV round-trip quantizes readings, so it cannot match the
    // in-memory reference bitwise — but all its own widths must agree.
    let ds = fixture_dataset(9);
    let dir = TempDir::new("kernels-csv");
    let mut engine = NumericEngine::new(dir.path("matlab"), FileLayout::Partitioned);
    engine.load(&ds).expect("load succeeds");
    let base = engine
        .run(&RunSpec::builder(Task::Similarity).build())
        .expect("serial run succeeds");
    for threads in [2usize, 4, 8] {
        let r = engine
            .run(&RunSpec::builder(Task::Similarity).threads(threads).build())
            .expect("parallel run succeeds");
        assert_eq!(
            bits(&r.output),
            bits(&base.output),
            "Matlab diverged between 1 and {threads} threads"
        );
    }
}

#[test]
fn hive_and_spark_agree_bitwise_on_the_same_text_data() {
    // Both cluster engines parse identical text, so their different
    // plans (reduce-side join vs broadcast join) must reach the same
    // bits through the shared dot kernel.
    let ds = fixture_dataset(5);
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
    for format in [DataFormat::ReadingPerLine, DataFormat::ConsumerPerLine] {
        let mut hive = HiveEngine::new(topo_mr, 128 * 1024);
        hive.load(&ds, format).expect("hive load succeeds");
        let mut spark = SparkEngine::new(topo_sp, 128 * 1024);
        spark.load(&ds, format).expect("spark load succeeds");
        let h = hive.run_task(Task::Similarity).expect("hive run succeeds");
        let s = spark
            .run_task(Task::Similarity)
            .expect("spark run succeeds");
        assert_eq!(
            bits(&h.output),
            bits(&s.output),
            "hive vs spark under {}",
            format.label()
        );
    }
}

#[test]
fn similarity_runs_report_kernel_counters() {
    let ds = fixture_dataset(6);
    let dir = TempDir::new("kernels-counters");
    let mut engine = ColumnarEngine::new(dir.path("systemc"));
    let spec = RunSpec::builder(Task::Similarity)
        .threads(4)
        .metrics(MetricsSink::recording())
        .build();
    let (_result, report) =
        observe_session(&mut engine, &ds, &spec).expect("observed session succeeds");
    // 6 consumers = 15 unordered pairs per run; observe_session runs the
    // task once.
    assert_eq!(report.counter(counters::PAIRS_SCORED), Some(6 * 5 / 2));
    assert!(
        report.counter(counters::SIMILARITY_MFLOPS).is_some(),
        "no throughput counter in {:?}",
        report.counters
    );
    assert!(
        report.phase_ns(&["run", "score", "tile"]).is_some(),
        "no tile phase under run/score: {:?}",
        report.phases
    );
}

/// One out-of-core worker computes each row's norm once, however often
/// the band walk reloads the row: 11 rows in bands of two are six bands,
/// loaded `6·5/2 + 1` times between them, off either encoding.
#[test]
fn out_of_core_run_computes_each_norm_once() {
    let n = 11;
    let ds = fixture_dataset(n);
    let dir = TempDir::new("kernels-oooc-norms");
    for encoding in [BinaryEncoding::Raw, BinaryEncoding::Packed] {
        let path = dir.path(&format!("{encoding:?}.smc"));
        let store = BinaryStore::create(path, &ds, encoding).expect("store writes");
        let sink = MetricsSink::recording();
        run_similarity_oooc(&store, SIMILARITY_TOP_K, 2, 1 << 20, 1, &sink)
            .expect("out-of-core run succeeds");
        let report = sink.finish(RunManifest::new("similarity", "oooc"));
        let norms = report.counter(counters::OOOC_NORMS_COMPUTED);
        assert_eq!(norms, Some(n.into()), "{encoding:?}");
        let loads = report.counter(counters::OOOC_BANDS_LOADED);
        assert_eq!(loads, Some(16), "{encoding:?}");
    }
}

/// The pooled all-pairs walk at one, two and four threads — each worker
/// skipping register blocks by its own running thresholds — over rows
/// built to press on the skip: exact duplicates (ties on the threshold),
/// zero rows, rows written verbatim with `set_row` at norms of 2³⁰⁰ and
/// 2⁻³⁰⁰ (no usable sketch, so never skipped), and a `clone()` of each
/// matrix. Every answer is the naive scan's over the stored rows, bit
/// for bit.
#[test]
fn pooled_all_pairs_is_exact_on_adversarial_rows() {
    use smda_engines::parallel::top_k_matrix;
    use smda_stats::{
        dot_scalar, select_top_k, SeriesMatrix, SeriesMatrixBuilder, SimilarityMatch,
    };
    use smda_types::BitEq;

    let (n, stride) = (44, 200);
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1024) as f64 / 1024.0
    };
    let shapes: Vec<Vec<f64>> = (0..5)
        .map(|s| {
            (0..stride)
                .map(|h| 1.5 + ((h + 5 * s) as f64 * 0.26).sin() + 0.2 * next())
                .collect()
        })
        .collect();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| match i % 11 {
            1 => vec![0.0; stride],
            _ => shapes[i % 5].clone(),
        })
        .collect();
    let verbatim = SeriesMatrixBuilder::new(n, stride);
    for (i, row) in rows.iter().enumerate() {
        let scale = [1.0, 2f64.powi(300), 1.0, 2f64.powi(-300)][i % 4];
        verbatim.set_row(i, &row.iter().map(|v| v * scale).collect::<Vec<f64>>());
    }
    let normalized = SeriesMatrix::from_rows_normalized(&rows);
    let verbatim = verbatim.finish();
    let sink = MetricsSink::disabled();
    let mut skipped = false;
    for m in [
        &normalized,
        &normalized.clone(),
        &verbatim,
        &verbatim.clone(),
    ] {
        for k in [1, 3, SIMILARITY_TOP_K] {
            let naive: Vec<Vec<SimilarityMatch>> = (0..n)
                .map(|q| {
                    let mut hits: Vec<SimilarityMatch> = (0..n)
                        .filter(|&j| j != q)
                        .map(|j| SimilarityMatch {
                            index: j,
                            score: dot_scalar(m.row(q), m.row(j)),
                        })
                        .collect();
                    select_top_k(&mut hits, k);
                    hits
                })
                .collect();
            for threads in [1, 2, 4] {
                let (got, stats) = top_k_matrix(m, k, threads, &sink);
                assert!(got.bits_eq(&naive), "k {k}, {threads} threads");
                assert!(stats.pairs_scored <= (n * (n - 1) / 2) as u64);
                skipped |= stats.pairs_scored < (n * (n - 1) / 2) as u64;
            }
        }
    }
    assert!(skipped, "no walk skipped a register block");
}
