//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (Section 5).
//!
//! Each experiment in [`experiments`] reproduces one figure/table at a
//! configurable scale: the sweep *axes* carry the paper's nominal labels
//! (GB, households, worker counts) while the actual data volume is
//! divided by [`scale::Scale::divisor`] so the whole suite runs on a
//! laptop. EXPERIMENTS.md records paper-vs-measured shapes.
//!
//! Run everything with `cargo run --release -p smda-bench`, or a single
//! experiment with `cargo run --release -p smda-bench -- fig7`.

pub mod alloc;
pub mod cli;
pub mod data;
pub mod experiments;
pub mod jsonbench;
pub mod report;
pub mod runner;
pub mod scale;

pub use cli::BenchArgs;
pub use jsonbench::{run_json_bench, run_json_bench_with};
pub use report::Table;
pub use runner::{run_experiment, Gate, EXPERIMENT_IDS, GATES};
pub use scale::Scale;
