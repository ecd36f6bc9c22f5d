//! The EDBT 2015 smart meter analytics benchmark (Liu, Golab, Golab,
//! Ilyas: *Benchmarking Smart Meter Data Analytics*).
//!
//! This crate is the paper's primary contribution, reimplemented as a
//! library:
//!
//! * [`histogram_task`] — per-consumer 10-bucket equi-width consumption
//!   histograms (Section 3.1),
//! * [`three_line`] — the piecewise thermal-sensitivity regression of Birt
//!   et al., fitted to the 10th/90th consumption percentiles per
//!   temperature (Section 3.2),
//! * [`par`] — periodic auto-regression extracting temperature-independent
//!   daily profiles (Section 3.3),
//! * [`similarity`] — top-k cosine similarity search across consumers
//!   (Section 3.4),
//! * [`generator`] — the Section 4 data generator that disaggregates a
//!   seed data set into activity profiles and thermal gradients and
//!   re-aggregates them into arbitrarily many realistic consumers, plus a
//!   synthetic **seed** generator standing in for the paper's private
//!   utility data set.
//!
//! One extension from the paper's future work is included: [`streaming`]
//! (real-time anomaly alerts, the Section 6 direction).
//!
//! The algorithms are pure functions over [`smda_types::Dataset`]; the
//! platform crates (`smda-engines`, `smda-hive`, `smda-spark`) re-express
//! them against their own storage and execution models and are validated
//! against this crate's output in the integration tests.

pub mod generator;
pub mod histogram_task;
pub mod par;
pub mod queries;
pub mod similarity;
pub mod streaming;
pub mod tasks;
pub mod three_line;

pub use generator::{DataGenerator, GeneratorConfig, SeedConfig, WeatherConfig};
pub use histogram_task::{consumer_histograms, ConsumerHistogram, HISTOGRAM_BUCKETS};
pub use par::{fit_par, fit_par_baseline, fit_par_scratch, HourModel, ParModel, PAR_ORDER};
pub use queries::task_output_results;
pub use similarity::{similarity_search, ConsumerMatches, SIMILARITY_TOP_K};
/// The fitting arena the kernel runs through — named in this crate's
/// signatures, so a caller need not depend on `smda-stats` to hold one.
pub use smda_stats::scratch::{with_fit_scratch, FitScratch};
pub use streaming::{Alert, AlertKind, AnomalyDetector};
pub use tasks::{ConsumerTask, Task, TaskOutput};
pub use three_line::{
    fit_three_line, fit_three_line_baseline, fit_three_line_scratch, LineSegment, PiecewiseFit,
    ThreeLineConfig, ThreeLineModel,
};
