//! Single-node analytics platforms.
//!
//! Each engine re-expresses the four benchmark tasks against a different
//! storage and execution architecture, mirroring the paper's single-server
//! candidates:
//!
//! * [`numeric::NumericEngine`] — the Matlab analogue: reads CSV files
//!   directly at query time (partitioned or one big file), computes with
//!   dense in-memory kernels, caches its "workspace" between runs. It can
//!   also be backed by one `SMC1` binary file ([`NumericEngine::binary`]),
//!   where cold runs are served zero-copy from a memory mapping.
//! * [`relational::RelationalEngine`] — the PostgreSQL/MADLib analogue:
//!   slotted heap pages behind a buffer pool, B+tree household index,
//!   three table layouts (Figure 9), per-tuple decode costs.
//! * [`columnar::ColumnarEngine`] — the "System C" analogue: raw `f64`
//!   column files faulted in by chunk, tight compiled kernels.
//!
//! All three implement [`Platform`], which the benchmark harness drives
//! for the loading, cold/warm, single-threaded and speedup experiments.

pub mod binary;
pub mod capabilities;
pub mod columnar;
pub mod exec;
pub mod numeric;
pub mod oooc;
pub mod parallel;
pub mod platform;
pub mod pool;
pub mod relational;

pub use binary::BinarySource;
pub use capabilities::{Capabilities, Support};
pub use columnar::ColumnarEngine;
pub use numeric::NumericEngine;
pub use oooc::{
    record_format_counters, run_similarity_oooc, top_k_source_with, SmcSource, DEFAULT_CACHE_BYTES,
    OOOC_ROW_THRESHOLD,
};
pub use platform::{observe_session, ClusterTwin, Platform, RunResult, RunSpec, RunSpecBuilder};
pub use pool::WorkerPool;
pub use relational::{RelationalEngine, RelationalLayout};
