//! One module per figure/table of the paper's evaluation.

pub mod ablations;
pub mod chaos;
pub mod cluster_real;
pub mod cluster_vs_c;
pub mod coldwarm;
pub mod fits;
pub mod format;
pub mod format1;
pub mod format2;
pub mod format3;
pub mod ingest;
pub mod kernels;
pub mod layouts;
pub mod loading;
pub mod memory;
pub mod oooc;
pub mod partitioning;
pub mod serve;
pub mod simd;
pub mod single_thread;
pub mod speedup;
pub mod table1;
pub mod updates;

use std::time::Duration;

use smda_cluster::{ClusterTopology, CostModel};
use smda_core::Task;
use smda_engines::{
    ClusterTwin, ColumnarEngine, NumericEngine, Platform, RelationalEngine, RelationalLayout,
    RunSpec,
};
use smda_hive::HiveEngine;
use smda_spark::SparkEngine;
use smda_storage::FileLayout;
use smda_types::{DataFormat, Dataset, Result};

use crate::data::Scratch;
use crate::scale::Scale;

/// The three single-server platforms, loaded with `ds`, in the paper's
/// order (Matlab partitioned, MADLib row layout, System C).
pub(crate) fn loaded_platforms(scratch: &Scratch, ds: &Dataset) -> Vec<Box<dyn Platform>> {
    let mut engines: Vec<Box<dyn Platform>> = vec![
        Box::new(NumericEngine::new(
            scratch.path("matlab"),
            FileLayout::Partitioned,
        )),
        Box::new(RelationalEngine::new(
            scratch.path("madlib"),
            RelationalLayout::ReadingPerRow,
        )),
        Box::new(ColumnarEngine::new(scratch.path("systemc"))),
    ];
    for e in &mut engines {
        e.load(ds).expect("engine load succeeds on valid data");
    }
    engines
}

/// Cold run: drop caches, run, return elapsed.
pub(crate) fn cold_run(engine: &mut dyn Platform, task: Task, threads: usize) -> Duration {
    engine.make_cold();
    let spec = RunSpec::builder(task).threads(threads).build();
    engine.run(&spec).expect("task run succeeds").elapsed
}

/// The modeled cluster with `workers` nodes (12 slots each, as in the
/// paper's dual-socket 6-core × 2-thread nodes).
pub(crate) fn topology(workers: usize, cost: CostModel) -> ClusterTopology {
    ClusterTopology {
        workers,
        slots_per_worker: 12,
        cost,
    }
}

/// A Hive engine on `workers` nodes at `scale`.
pub(crate) fn hive(workers: usize, scale: Scale) -> HiveEngine {
    HiveEngine::new(topology(workers, CostModel::mapreduce()), scale.block_bytes)
}

/// A Spark engine on `workers` nodes at `scale`.
pub(crate) fn spark(workers: usize, scale: Scale) -> SparkEngine {
    SparkEngine::new(topology(workers, CostModel::spark()), scale.block_bytes)
}

/// The two cluster twins on `workers` nodes at `scale`, under the names
/// and in the row order of the paper's figures.
pub(crate) fn twins(workers: usize, scale: Scale) -> [(&'static str, Box<dyn ClusterTwin>); 2] {
    [
        ("Spark", Box::new(spark(workers, scale))),
        ("Hive", Box::new(hive(workers, scale))),
    ]
}

/// Load `ds` in `format` into `twin` under `spec` and run `spec.task`:
/// the modeled cluster's virtual elapsed.
pub(crate) fn twin_run(
    twin: &mut dyn ClusterTwin,
    ds: &Dataset,
    format: DataFormat,
    spec: &RunSpec,
) -> Result<Duration> {
    twin.load_observed(ds, format, spec)?;
    Ok(twin.run(spec)?.elapsed)
}
