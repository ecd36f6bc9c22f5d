//! Shape assertions on the cluster simulator: the qualitative findings
//! of Section 5.4 must hold in virtual time.

use smda_cluster::{ClusterTopology, CostModel};
use smda_core::Task;
use smda_engines::RunSpec;
use smda_hive::HiveEngine;
use smda_integration::fixture_dataset;
use smda_obs::MetricsSink;
use smda_spark::SparkEngine;
use smda_types::DataFormat;

const BLOCK: u64 = 128 * 1024;

fn topo(workers: usize, cost: CostModel) -> ClusterTopology {
    ClusterTopology {
        workers,
        slots_per_worker: 4,
        cost,
    }
}

#[test]
fn format2_beats_format1_on_hive() {
    // Section 5.4.2: map-only jobs avoid the I/O-intensive shuffle.
    let ds = fixture_dataset(8);
    let mut f1 = HiveEngine::new(topo(4, CostModel::mapreduce()), BLOCK);
    f1.load(&ds, DataFormat::ReadingPerLine).unwrap();
    let t1 = f1
        .run_with(&RunSpec::builder(Task::Histogram).build())
        .unwrap()
        .stats
        .virtual_elapsed;
    let mut f2 = HiveEngine::new(topo(4, CostModel::mapreduce()), BLOCK);
    f2.load(&ds, DataFormat::ConsumerPerLine).unwrap();
    let t2 = f2
        .run_with(&RunSpec::builder(Task::Histogram).build())
        .unwrap()
        .stats
        .virtual_elapsed;
    assert!(t2 < t1, "format2 {t2:?} should beat format1 {t1:?}");
}

#[test]
fn more_workers_reduce_virtual_time() {
    let ds = fixture_dataset(10);
    let time_with = |workers: usize| {
        let mut hive = HiveEngine::new(topo(workers, CostModel::mapreduce()), 64 * 1024);
        hive.load(&ds, DataFormat::ReadingPerLine).unwrap();
        hive.run_with(&RunSpec::builder(Task::Par).build())
            .unwrap()
            .stats
            .virtual_elapsed
    };
    let t4 = time_with(4);
    let t16 = time_with(16);
    assert!(t16 < t4, "16 workers {t16:?} should beat 4 workers {t4:?}");
}

#[test]
fn spark_broadcast_join_shuffles_less_than_hive_self_join() {
    // Figure 13d's mechanism: the reduce-side self-join replicates every
    // series to every reducer; the broadcast join ships the series set
    // once per node.
    let ds = fixture_dataset(12);
    let mut hive = HiveEngine::new(topo(4, CostModel::mapreduce()), BLOCK);
    hive.set_reduce_tasks(8);
    hive.load(&ds, DataFormat::ConsumerPerLine).unwrap();
    let hive_result = hive
        .run_with(&RunSpec::builder(Task::Similarity).build())
        .unwrap();

    let mut spark = SparkEngine::new(topo(4, CostModel::spark()), BLOCK);
    spark.load(&ds, DataFormat::ConsumerPerLine).unwrap();
    let spark_result = spark
        .run_with(&RunSpec::builder(Task::Similarity).build())
        .unwrap();

    let hive_moved = hive_result.stats.shuffle_bytes;
    let spark_moved = spark_result.stats.shuffle_bytes + spark_result.stats.broadcast_bytes;
    assert!(
        spark_moved < hive_moved,
        "spark moved {spark_moved} bytes, hive {hive_moved}"
    );
    assert!(
        spark_result.virtual_elapsed < hive_result.stats.virtual_elapsed,
        "spark {:?} should beat hive {:?} on similarity",
        spark_result.virtual_elapsed,
        hive_result.stats.virtual_elapsed
    );
}

#[test]
fn udtf_beats_udaf_on_format3() {
    // Figure 18: the map-only UDTF plan wins over the reduce-full UDAF.
    let ds = fixture_dataset(6);
    let mut hive = HiveEngine::new(topo(4, CostModel::mapreduce()), BLOCK);
    hive.load(&ds, DataFormat::ManyFiles { files: 3 }).unwrap();
    let udtf = hive
        .run_with(&RunSpec::builder(Task::ThreeLine).build())
        .unwrap();
    hive.force_udaf = true;
    let udaf = hive
        .run_with(&RunSpec::builder(Task::ThreeLine).build())
        .unwrap();
    assert!(udtf.stats.virtual_elapsed < udaf.stats.virtual_elapsed);
    assert_eq!(udtf.stats.shuffle_bytes, 0);
    assert!(udaf.stats.shuffle_bytes > 0);
}

#[test]
fn spark_degrades_with_many_files_hive_does_not() {
    // Figure 18: Spark pays per-partition overhead for every file; Hive's
    // virtual time is insensitive between 10 and (scaled) many files.
    // The effect shows once the slots are saturated — below that, extra
    // files only add parallelism. 2 workers × 2 slots = 4 slots; compare
    // 4 files (saturated) to 16 (4 task waves of pure overhead).
    let ds = fixture_dataset(16);
    let small_topo = |cost: CostModel| ClusterTopology {
        workers: 2,
        slots_per_worker: 2,
        cost,
    };
    // Virtual time folds in *measured* task compute, and a neighbour on
    // the machine only ever slows a run down: the fastest of three is
    // the undisturbed one (a single run of the 4-file case failed the
    // ratio below about one time in ten on a busy 2-vCPU host).
    let run_spark = |files: usize| {
        (0..3)
            .map(|_| {
                let mut spark = SparkEngine::new(small_topo(CostModel::spark()), BLOCK);
                spark.load(&ds, DataFormat::ManyFiles { files }).unwrap();
                spark
                    .run_with(&RunSpec::builder(Task::Histogram).build())
                    .unwrap()
                    .virtual_elapsed
            })
            .min()
            .expect("three runs")
    };
    let run_hive = |files: usize| {
        let mut hive = HiveEngine::new(small_topo(CostModel::mapreduce()), BLOCK);
        hive.load(&ds, DataFormat::ManyFiles { files }).unwrap();
        hive.run_with(&RunSpec::builder(Task::Histogram).build())
            .unwrap()
            .stats
            .virtual_elapsed
    };
    let spark_few = run_spark(4);
    let spark_many = run_spark(16);
    assert!(
        spark_many > spark_few,
        "spark: {spark_many:?} vs {spark_few:?}"
    );
    let hive_few = run_hive(2).as_secs_f64();
    let hive_many = run_hive(16).as_secs_f64();
    // Hive also pays task startup, but the relative degradation is far
    // smaller than Spark's (its startup dominates either way).
    let spark_ratio = spark_many.as_secs_f64() / spark_few.as_secs_f64();
    let hive_ratio = hive_many / hive_few;
    assert!(
        hive_ratio < spark_ratio * 1.5,
        "hive ratio {hive_ratio} vs spark ratio {spark_ratio}"
    );
}

#[test]
fn node_failure_degrades_locality_but_jobs_still_complete() {
    // Failure injection: kill a datanode after ingest; surviving
    // replicas keep every block readable (at worst remotely) and the job
    // still completes. Losing the *last* replica of a block is a typed
    // `BlockUnavailable` error, never a silent read of vanished data.
    use smda_cluster::{DfsConfig, SimDfs, SimTask, VirtualScheduler};
    use smda_types::Error;
    use std::time::Duration;

    let mut dfs = SimDfs::new(DfsConfig {
        block_bytes: 1024,
        replication: 2,
        nodes: 4,
    });
    dfs.ingest("input", 16 * 1024, true).unwrap();

    let run = |dfs: &SimDfs| {
        let splits = dfs.splits(&["input".into()]).unwrap();
        let tasks: Vec<SimTask> = splits
            .iter()
            .map(|s| SimTask {
                input_bytes: s.bytes * 1024, // scale up so read time matters
                locality: s.hosts.clone(),
                compute: Duration::from_millis(5),
                output_bytes: 0,
                shuffle_bytes: 0,
            })
            .collect();
        let mut sched = VirtualScheduler::new(ClusterTopology {
            workers: 4,
            slots_per_worker: 1,
            cost: CostModel::default(),
        });
        sched.run_phase(&tasks, Duration::ZERO)
    };

    let healthy = run(&dfs);
    assert_eq!(healthy.locality_fraction, 1.0);

    // One failure: 2-way replication keeps every block readable, though
    // the blocks that lived on node 0 now have a single host.
    assert!(
        dfs.fail_node(0).is_empty(),
        "2-way replication survives one failure"
    );
    let degraded = run(&dfs);
    assert!(
        degraded.end >= healthy.end,
        "losing a node cannot speed the job up"
    );

    // Second failure: blocks replicated exactly on {0, 1} lose their
    // last copy. Data loss is *reported*, not silent.
    let lost = dfs.fail_node(1);
    assert_eq!(lost, vec!["input".to_string()]);
    match dfs.splits(&["input".into()]) {
        Err(Error::BlockUnavailable { file, .. }) => assert_eq!(file, "input"),
        other => panic!("want BlockUnavailable for the lost block, got {other:?}"),
    }

    // Re-replication heals the under-replicated blocks but cannot
    // resurrect one with zero source copies: the error persists.
    assert!(dfs.re_replicate() > 0, "surviving blocks get fresh copies");
    assert!(matches!(
        dfs.splits(&["input".into()]),
        Err(Error::BlockUnavailable { .. })
    ));
}

#[test]
fn too_many_files_kills_spark_but_not_hive() {
    // The paper: "Spark was not even runnable [at 100,000 files] due to
    // too-many-open-files exceptions". MAX_OPEN_FILES guards our engine;
    // files cannot exceed consumers here, so this exercises the guard
    // directly through the RDD source.
    use smda_cluster::{DfsConfig, SimDfs, TextTable};
    use smda_spark::{SparkContext, MAX_OPEN_FILES};
    let sc = SparkContext::configured(topo(2, CostModel::spark()), MetricsSink::disabled(), None);
    // Build a fake many-file table descriptor cheaply.
    let ds = fixture_dataset(2);
    let mut dfs = SimDfs::new(DfsConfig {
        block_bytes: BLOCK,
        replication: 1,
        nodes: 2,
    });
    let mut table =
        TextTable::build("t", &ds, DataFormat::ManyFiles { files: 2 }, &mut dfs).unwrap();
    // Clone the split descriptor beyond the limit.
    let split = table.splits[0].clone();
    table.splits = vec![split; MAX_OPEN_FILES + 1];
    let err = match sc.text_table(&table) {
        Err(e) => e,
        Ok(_) => panic!("expected the too-many-open-files guard to trip"),
    };
    assert!(err.to_string().contains("too many open files"), "{err}");
}
