//! The binary format's end-to-end claim: an `.smc` file is a drop-in
//! substitute for the CSV load path on every platform. All four tasks on
//! all five platforms — Matlab, MADLib, System C, Hive, Spark — produce
//! `to_bits`-identical output whether the dataset came from CSV or from
//! one memory-mapped `SMC1` file, and a 4-way reshard (`cut` + `merge`)
//! reproduces the original file byte for byte.

use smda_cluster::{task_output_bits_eq, ClusterTopology, CostModel};
use smda_core::tasks::run_reference;
use smda_core::{Task, TaskOutput};
use smda_engines::{
    ColumnarEngine, NumericEngine, Platform, RelationalEngine, RelationalLayout, RunSpec,
};
use smda_hive::HiveEngine;
use smda_integration::{fixture_dataset, TempDir};
use smda_spark::SparkEngine;
use smda_storage::{BinaryEncoding, BinaryStore, FileLayout, FileStore};
use smda_types::{DataFormat, Dataset};

fn datasets_bits_eq(a: &Dataset, b: &Dataset) -> bool {
    let series_eq = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.len() == b.len()
        && series_eq(a.temperature().values(), b.temperature().values())
        && a.consumers()
            .iter()
            .zip(b.consumers())
            .all(|(x, y)| x.id == y.id && series_eq(x.readings(), y.readings()))
}

/// Both load paths materialized from the same source dataset: the CSV
/// round trip and the binary round trip must agree bit for bit, so any
/// platform fed either one must compute identical bits.
fn csv_and_smc_twins(dir: &TempDir, ds: &Dataset, encoding: BinaryEncoding) -> (Dataset, Dataset) {
    let csv = FileStore::create(dir.path("csv"), ds, FileLayout::Unpartitioned)
        .expect("csv store writes")
        .read_all()
        .expect("csv parses back");
    let smc = BinaryStore::create(dir.path("year.smc"), ds, encoding)
        .expect("smc store writes")
        .read_all()
        .expect("smc reads back");
    assert!(
        datasets_bits_eq(&csv, &smc),
        "CSV and SMC1 round trips must carry the same bits"
    );
    (csv, smc)
}

#[test]
fn all_five_platforms_bit_identical_from_smc_and_csv() {
    let ds = fixture_dataset(5);
    let dir = TempDir::new("format-xplat");
    let (from_csv, from_smc) = csv_and_smc_twins(&dir, &ds, BinaryEncoding::Raw);

    // Single-server platforms: one engine per load path, same bits out.
    type MakeEngine = fn(&TempDir, &str) -> Box<dyn Platform>;
    let makers: [MakeEngine; 3] = [
        |d, tag| Box::new(NumericEngine::new(d.path(tag), FileLayout::Partitioned)),
        |d, tag| {
            Box::new(RelationalEngine::new(
                d.path(tag),
                RelationalLayout::ReadingPerRow,
            ))
        },
        |d, tag| Box::new(ColumnarEngine::new(d.path(tag))),
    ];
    for (i, make) in makers.iter().enumerate() {
        let mut via_csv = make(&dir, &format!("csv-{i}"));
        let mut via_smc = make(&dir, &format!("smc-{i}"));
        via_csv.load(&from_csv).expect("csv-fed load succeeds");
        via_smc.load(&from_smc).expect("smc-fed load succeeds");
        for task in Task::ALL {
            let spec = RunSpec::builder(task).threads(2).build();
            let a = via_csv.run(&spec).expect("csv-fed run succeeds");
            let b = via_smc.run(&spec).expect("smc-fed run succeeds");
            assert!(
                task_output_bits_eq(&a.output, &b.output),
                "{}/{}: smc-fed output diverged from csv-fed",
                via_csv.name(),
                task.name()
            );
        }
    }

    // Cluster platforms: same scheme over the modeled Hive and Spark.
    let topo = |cost| ClusterTopology {
        workers: 3,
        slots_per_worker: 2,
        cost,
    };
    for task in Task::ALL {
        let mut a = HiveEngine::new(topo(CostModel::mapreduce()), 128 * 1024);
        let mut b = HiveEngine::new(topo(CostModel::mapreduce()), 128 * 1024);
        a.load(&from_csv, DataFormat::ReadingPerLine)
            .expect("hive loads csv-fed data");
        b.load(&from_smc, DataFormat::ReadingPerLine)
            .expect("hive loads smc-fed data");
        let a = a.run_task(task).expect("hive csv-fed run");
        let b = b.run_task(task).expect("hive smc-fed run");
        assert!(
            task_output_bits_eq(&a.output, &b.output),
            "Hive/{}: smc-fed output diverged",
            task.name()
        );

        let mut a = SparkEngine::new(topo(CostModel::spark()), 128 * 1024);
        let mut b = SparkEngine::new(topo(CostModel::spark()), 128 * 1024);
        a.load(&from_csv, DataFormat::ReadingPerLine)
            .expect("spark loads csv-fed data");
        b.load(&from_smc, DataFormat::ReadingPerLine)
            .expect("spark loads smc-fed data");
        let a = a.run_task(task).expect("spark csv-fed run");
        let b = b.run_task(task).expect("spark smc-fed run");
        assert!(
            task_output_bits_eq(&a.output, &b.output),
            "Spark/{}: smc-fed output diverged",
            task.name()
        );
    }
}

#[test]
fn packed_encoding_feeds_the_same_bits() {
    // The packed decode path (xor-delta bit-packing) must be just as
    // invisible as the raw mmap path.
    let ds = fixture_dataset(4);
    let dir = TempDir::new("format-packed");
    let (_, from_smc) = csv_and_smc_twins(&dir, &ds, BinaryEncoding::Packed);
    assert!(datasets_bits_eq(&ds, &from_smc));
}

#[test]
fn numeric_engine_runs_every_task_off_the_mapping() {
    // The binary-backed Matlab twin end to end: `load` seals the file,
    // `make_cold` drops the workspace, and the cold run is served
    // straight off the mapping — bitwise equal to the in-memory
    // reference for every task.
    let ds = fixture_dataset(4);
    let dir = TempDir::new("format-numeric");
    let mut engine = NumericEngine::binary(dir.path("year.smc"));
    engine.load(&ds).expect("binary load seals the file");
    for task in Task::ALL {
        engine.make_cold();
        let cold = engine
            .run(&RunSpec::builder(task).threads(2).build())
            .expect("cold run off the mapping succeeds");
        let want = run_reference(task, &ds);
        assert!(
            task_output_bits_eq(&cold.output, &want),
            "cold {} off the mapping diverged from the reference",
            task.name()
        );
        engine.warm().expect("warm succeeds");
        let warm = engine
            .run(&RunSpec::builder(task).threads(2).build())
            .expect("warm run succeeds");
        assert!(
            task_output_bits_eq(&warm.output, &want),
            "warm {} diverged from the reference",
            task.name()
        );
    }
}

#[test]
fn four_way_reshard_round_trips_byte_identically() {
    let ds = fixture_dataset(9);
    let dir = TempDir::new("format-reshard");
    for encoding in [BinaryEncoding::Raw, BinaryEncoding::Packed] {
        let tag = format!("{encoding:?}").to_lowercase();
        let src = dir.path(&format!("{tag}.smc"));
        let store = BinaryStore::create(&src, &ds, encoding).expect("source writes");
        let ids = store.consumer_ids().expect("ids readable");
        drop(store);

        let shards: Vec<_> = (0..4)
            .map(|s| {
                let shard = dir.path(&format!("{tag}-shard-{s}.smc"));
                let keep: Vec<_> = ids.iter().copied().skip(s).step_by(4).collect();
                smda_format::ops::cut(&src, &shard, &keep).expect("cut succeeds");
                shard
            })
            .collect();
        // Shards partition the consumers: no id lost, none duplicated.
        let mut shard_ids: Vec<_> = shards
            .iter()
            .flat_map(|s| {
                BinaryStore::open(s)
                    .expect("shard opens")
                    .consumer_ids()
                    .expect("shard ids readable")
            })
            .collect();
        shard_ids.sort_unstable();
        assert_eq!(shard_ids, ids, "{tag}: shards must partition the ids");

        let merged = dir.path(&format!("{tag}-merged.smc"));
        smda_format::ops::merge(&shards, &merged).expect("merge succeeds");
        let original = std::fs::read(&src).expect("source rereads");
        let rejoined = std::fs::read(&merged).expect("merged rereads");
        assert_eq!(
            original, rejoined,
            "{tag}: cut+merge must reproduce the file byte for byte"
        );

        // And the merged file still computes the right answers.
        let back = BinaryStore::open(&merged)
            .expect("merged opens")
            .read_all()
            .expect("merged reads back");
        let got = run_reference(Task::Histogram, &back);
        let want = run_reference(Task::Histogram, &ds);
        match (&got, &want) {
            (TaskOutput::Histograms(a), TaskOutput::Histograms(b)) => {
                assert_eq!(a.len(), b.len());
            }
            _ => panic!("unexpected output variants"),
        }
        assert!(
            task_output_bits_eq(&got, &want),
            "{tag}: merged histograms diverged"
        );
    }
}

#[test]
fn version_1_file_is_refused_by_every_entry_point() {
    // Format v2 changed the digest in every checksum field; the layout
    // did not move. A file labelled version 1 must be turned away by
    // its version — by the store, by cut and by merge — not by whatever
    // checksum would happen to trip first.
    use smda_types::{Error, FormatDefect};
    let ds = fixture_dataset(4);
    let dir = TempDir::new("format-v1");
    let src = dir.path("year.smc");
    let ids = BinaryStore::create(&src, &ds, BinaryEncoding::Packed)
        .expect("source writes")
        .consumer_ids()
        .expect("ids readable");
    let mut bytes = std::fs::read(&src).expect("source rereads");
    assert_eq!(bytes[4..6], 2u16.to_le_bytes(), "writer stamps version 2");
    bytes[4] = 1;
    let old = dir.path("old.smc");
    std::fs::write(&old, &bytes).expect("v1 copy writes");

    let refused = |what: &str, err: Error| match err {
        Error::BadFormat {
            defect:
                FormatDefect::UnsupportedVersion {
                    found: 1,
                    supported: 2,
                },
            ..
        } => {}
        other => panic!("{what}: expected the version to be refused, got {other}"),
    };
    refused("open", BinaryStore::open(&old).map(|_| ()).unwrap_err());
    refused(
        "cut",
        smda_format::ops::cut(&old, dir.path("cut.smc"), &ids[..1]).unwrap_err(),
    );
    refused(
        "merge",
        smda_format::ops::merge(&[&old], dir.path("merged.smc")).unwrap_err(),
    );
}
