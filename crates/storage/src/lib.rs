//! Single-node storage substrates for the platform engines.
//!
//! The paper's single-server platforms differ primarily in how they store
//! and reach the data; this crate builds each storage architecture from
//! scratch:
//!
//! * [`page`] / [`heap`] / [`btree`] / [`buffer`] — the PostgreSQL-like
//!   row store: 8 KiB slotted pages in a heap file, a B+tree index on the
//!   household id, and a buffer pool with clock eviction. Three table
//!   layouts mirror Figure 9 of the paper: one reading per row, one
//!   consumer per row (arrays), and one consumer-day per row.
//! * [`colstore`] — the "System C"-like main-memory column store: raw
//!   `f64` column files with a consumer-offset index, faulted in by chunk
//!   and cached (standing in for memory-mapped I/O; see DESIGN.md).
//! * [`files`] — the Matlab-like file store: CSV read directly per query,
//!   either partitioned (one file per consumer) or as one large file.
//! * [`binary`] — the same surface over one `SMC1` binary columnar file
//!   (`smda-format`): checksummed blocks, mmap cold starts, zero-copy
//!   matrix views for raw-encoded files.
//! * [`wal`] — the append-only log of checksummed
//!   [`smda_types::frame`]s: the real cluster's shuffle spill log
//!   (`smda-cluster`) and each streaming ingest shard's write-ahead log,
//!   one frame per reading (`smda-ingest`).

pub mod binary;
pub mod btree;
pub mod buffer;
pub mod colstore;
pub mod files;
pub mod heap;
pub mod layout;
pub mod page;
pub mod update;
pub mod wal;

pub use binary::{BinaryEncoding, BinaryStore, BinaryWriter};
pub use btree::BTreeIndex;
pub use buffer::{BufferPool, PoolStats};
pub use colstore::{ColumnStore, ColumnStoreStats};
pub use files::{FileLayout, FileStore};
pub use heap::{HeapFile, TupleId};
pub use layout::{ArrayTable, DayTable, ReadingTable, TableLayout};
pub use page::{Page, PAGE_SIZE};
// Re-exported so engine crates can reach the format tier's counters
// without a direct `smda-format` dependency.
pub use smda_format::{metrics as format_metrics, FormatCounters};
pub use update::{
    restate_array_table, restate_column_store, restate_day_table, restate_reading_table,
    DayRestatement,
};
pub use wal::{replay_frames, FrameLog};
