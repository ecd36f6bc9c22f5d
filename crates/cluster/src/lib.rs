//! A deterministic cluster simulator.
//!
//! The paper's distributed experiments (Figures 11–19) ran on a 16-worker
//! Hadoop cluster. This crate substitutes that hardware with a hybrid
//! measured/modeled simulator (see DESIGN.md):
//!
//! * tasks execute **really**, so every result is exact and per-task
//!   *compute* time is measured. This crate takes the measurement in
//!   ([`SimTask::compute`]); the engines above it run their tasks on the
//!   process's one persistent pool
//!   (`smda_engines::WorkerPool::run_contained`);
//! * data placement is modeled by a block-based DFS with replication and
//!   locality ([`dfs`]);
//! * I/O, network and startup costs come from an explicit cost model
//!   ([`cost`]);
//! * a deterministic list scheduler ([`scheduler`]) combines the three
//!   into per-phase virtual makespans on the configured topology;
//! * a seeded fault-injection plan ([`faults`]) drives node crashes,
//!   stragglers, replica losses and task failures through all of the
//!   above, exercising retry, speculation and re-replication.
//!
//! The Hive- and Spark-like engines (`smda-hive`, `smda-spark`) build
//! their jobs on these primitives.
//!
//! # Real execution
//!
//! The simulator also has a live twin: [`real`] forks actual `smda`
//! worker processes, ships shuffle partitions over local TCP using the
//! checksummed frame codec in [`transport`], spills every partition
//! through a write-ahead log, and survives real SIGKILLs — a
//! [`FaultPlan`] crash schedule is delivered as actual signals, with
//! heartbeat detection, task rescheduling and WAL replay guaranteeing
//! zero lost and zero duplicated partitions. The [`worker`] module is
//! the other side of the wire: the RPC vocabulary and the serve loop
//! the `smda worker` subcommand runs. Both sides execute the same pure
//! functions, so real and virtual runs agree bit for bit.

pub mod cost;
pub mod dfs;
pub mod faults;
pub mod real;
pub mod scheduler;
pub mod textdata;
pub mod transport;
pub mod twin;
pub mod worker;

pub use cost::CostModel;
pub use dfs::{DfsConfig, DfsFile, InputSplit, SimDfs};
pub use faults::{FaultPlan, NodeCrash, SlowNode};
pub use real::{
    run_real, run_virtual_twin, task_output_bits_eq, RealCluster, RealClusterConfig, RealRunReport,
};
pub use scheduler::{ClusterTopology, PhaseResult, SimTask, VirtualScheduler};
pub use textdata::{parse_consumer_policed, parse_reading_policed, TextSplit, TextTable};
pub use transport::{Endpoint, TransportConfig};
pub use twin::TwinShell;
