//! The Spark-like dataflow engine.
//!
//! A miniature RDD runtime over the cluster simulator:
//!
//! * **narrow transformations** (`map`, `flat_map`, `map_partitions`)
//!   fuse into one stage, exactly like Spark's pipelined stages;
//! * the **wide transformation** `group_by_key` cuts a
//!   stage boundary: the parent stage executes (really, measured), its
//!   output is hash-partitioned in memory, and shuffle volume is charged
//!   to the virtual clock;
//! * **`broadcast`** ships a read-only value to every worker once — the
//!   mechanism behind Spark's map-side similarity join (Figure 13d).
//!
//! Per-task startup is low (executor reuse) but every input file is a
//! partition: ten thousand small files mean ten thousand tasks, and past
//! [`rdd::MAX_OPEN_FILES`] the engine fails with "too many open files",
//! reproducing the paper's Figure 18 observation.

pub mod engine;
pub mod rdd;
pub mod sizeof;

pub use engine::{SparkEngine, SparkRunResult};
pub use rdd::{Broadcast, Rdd, SparkContext, SparkStats, MAX_OPEN_FILES};
pub use sizeof::SizeOf;
