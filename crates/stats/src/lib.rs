//! From-scratch statistics and dense linear algebra substrate.
//!
//! The paper notes (Table 1) that "System C" ships **no** built-in
//! statistical or machine-learning operators, so the authors implemented
//! every operator by hand; likewise, mature Rust stats/clustering crates
//! are outside this workspace's dependency budget. This crate is that
//! hand-built toolkit: descriptive statistics, sample quantiles,
//! equi-width histograms, dense matrices with Cholesky and Householder-QR
//! solvers, ordinary least squares, k-means with
//! k-means++ seeding, cosine similarity with top-*k* selection, and the
//! random distributions the data generator needs.
//!
//! Everything operates on `f64` slices so the columnar engine can run the
//! same kernels over its memory-mapped columns without conversion.

pub mod descriptive;
pub mod histogram;
pub mod kernels;
pub mod kmeans;
pub mod linalg;
pub mod online;
pub mod oooc;
pub mod quantile;
pub mod regression;
pub mod rng;
pub mod scratch;
pub mod simd;
pub mod similarity;
#[cfg(test)]
mod testutil;
mod walk;

pub use descriptive::{mean, sample_variance, stddev};
pub use histogram::{count_buckets, EquiWidthHistogram, HistogramSpec};
pub use kernels::{
    merge_partials, top_k_query, top_k_tiled, top_k_tiled_partial, KernelStats, SeriesMatrix,
    SeriesMatrixBuilder, TileConfig,
};
pub use kmeans::{KMeans, KMeansConfig};
pub use linalg::Matrix;
pub use online::OnlineStats;
pub use oooc::{top_k_oooc, OoocStats, SeriesSource, SliceSource, DEFAULT_BAND_ROWS};
pub use quantile::{from_ordered_key, ordered_key, quantile_sorted, quantiles_by_selection};
pub use regression::{ols_multiple, MultipleFit};
pub use rng::{GaussianNoise, Picker};
pub use scratch::{
    with_fit_scratch, BinPlan, CurveBuffer, FitScratch, GatheredBins, HourlyFit, NormalEq,
    ScratchFit, SegmentSums, SCRATCH_MAX_COLS,
};
pub use simd::{axpy, dot_block, under_every_tier, SimdTier};
pub use similarity::{
    cosine_similarity, dot, dot_scalar, norm2, norm2_rows, normalize_all, select_top_k, sumsq,
    top_k_cosine, SimilarityMatch,
};
pub use walk::{band_count, band_pair_count, similarity_walk, Pairs, Resident, Streamed};
