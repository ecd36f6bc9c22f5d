//! The benchmark of the smart-meter analytics workspace: two workloads
//! (working sets inside and beyond the program's own caches), the
//! end-to-end metrics of four phase groups from an untraced run, and
//! per-layer numbers from a separate traced run. It measures only
//! through public functions of the workspace's crates. `README.md` has
//! the catalogue and the method.

pub mod alloc;
pub mod batch;
pub mod catalog;
pub mod data;
pub mod harness;
pub mod layers;
pub mod machine;
pub mod online;
pub mod oooc;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod trace;
pub mod workload;

/// See [`alloc`]: without it the AVX2 kernels' times depend on where
/// `malloc` happened to put their inputs.
#[global_allocator]
static ALLOCATOR: alloc::LineAligned = alloc::LineAligned;
