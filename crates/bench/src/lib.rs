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
pub mod data;
pub mod experiments;
pub mod history;
pub mod jsonbench;
pub mod report;
pub mod runner;
pub mod scale;

pub use history::{
    append_history, check_history, check_history_entries, entry_from_export, load_history,
    machine_fingerprint, CommitInfo, HistoryBench, HistoryEntry, DEFAULT_HISTORY_PATH,
    REGRESSION_THRESHOLD,
};
pub use jsonbench::{run_json_bench, run_json_bench_with};
pub use report::Table;
pub use runner::{run_all, run_experiment, Gate, EXPERIMENT_IDS, GATES};
pub use scale::Scale;
