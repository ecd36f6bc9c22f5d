//! The Hive-like engine: MapReduce over the cluster simulator, with
//! Hive's three extension points and a HiveQL-subset front end.
//!
//! Section 5.4.2 of the paper matches one Hive mechanism to each text
//! format:
//!
//! * **format 1** (one reading per line) → a **UDAF**: readings of one
//!   household are scattered, so a reduce step collates them — a full
//!   map/shuffle/reduce job;
//! * **format 2** (one consumer per line) → a **generic UDF**: map-only;
//! * **format 3** (many whole-household files) → a **UDTF** over a
//!   non-splittable input format: the mapper sees entire households and
//!   aggregates map-side, no reduce.
//!
//! Similarity search is planned as a self-join (the paper notes the plan
//! cannot exploit map-side joins), which shuffles every series to every
//! reducer — the cause of Hive's Figure 13(d) disadvantage.

pub mod engine;
pub mod hiveql;
pub mod mapreduce;
pub mod udf;

pub use engine::{HiveEngine, HiveRunResult};
pub use hiveql::{HiveSession, Query};
pub use mapreduce::{run_map_only, run_map_reduce, JobInput, JobStats};
pub use udf::{GenericUdf, HiveOperator, Udaf, Udtf};
