//! Online query serving: the read side of the lambda architecture.
//!
//! The ingest pipeline seals each completed year into a
//! [`Snapshot`](smda_ingest::Snapshot) and publishes it through an
//! epoch-swapped [`SnapshotHandle`](smda_ingest::SnapshotHandle); this
//! crate answers live, concurrent, typed [`Query`](smda_types::Query)s
//! against whatever world is currently published. The two layers are
//! fully decoupled: the sealer swaps an `Arc` and moves on, and every
//! query pins the epoch it started on — a reader never blocks a
//! publish and never observes a torn (half-swapped) snapshot.
//!
//! # Architecture
//!
//! A [`Server`] owns no thread: a request is served on the thread that
//! asks. [`Server::submit`] takes a query as far as a cache probe and
//! hands back a [`Ticket`] — already resolved on a hit — and
//! [`Ticket::wait`] executes a miss in place, under one of `workers`
//! permits. The request path is:
//!
//! 1. **admission** — [`Server::submit`] counts the query in flight
//!    until its ticket is waited or dropped, or rejects it with a typed
//!    [`ServeError::Overloaded`] when `queue_depth` already are (load
//!    shedding, counted as `serve.rejected.overload`);
//! 2. **deadline** — every query carries a deadline, checked on
//!    arrival, when a miss gets its permit and when the answer is
//!    ready; one that has passed resolves to
//!    [`ServeError::DeadlineExceeded`] and counts into
//!    `serve.deadline_misses`;
//! 3. **pin** — the caller pins the current
//!    [`LiveSnapshot`](smda_ingest::LiveSnapshot) (epoch, watermark and
//!    data travel together in one immutable `Arc`);
//! 4. **probe** — answers are memoized per `(epoch, query)` in an
//!    [`EpochCache`]; the first lookup on a fresh epoch discards the
//!    previous generation wholesale, so an entry computed at epoch `N`
//!    is never served at `N + 1`. A hit is the whole request;
//! 5. **permit** — at most `workers` misses execute at once. The rest
//!    block on the gate, each no longer than its own deadline; there is
//!    no FIFO promise among them (`serve.permit_waits`,
//!    `serve.permit_wait_ns`);
//! 6. **probe again** — pin and probe under the permit: another caller
//!    may have computed the same answer meanwhile (with one worker, a
//!    query asked eight times at once executes once), and the world may
//!    have moved on;
//! 7. **execute** — misses run against the pinned snapshot through the
//!    same kernels and per-consumer fits as the offline batch path (the
//!    fits on the calling thread's `FitScratch` arena), so every served
//!    float is `to_bits`-identical to the batch answer
//!    (`serve.executed.<kind>`, `serve.execute_ns.<kind>`);
//! 8. **insert** — the answer is memoized at the epoch it was pinned
//!    at; a stale epoch's answer is returned to its caller and not
//!    kept.
//!
//! All `serve.*` counters flow through the configured
//! [`MetricsSink`](smda_obs::MetricsSink) into the `smda-bench/v1`
//! export.

pub mod cache;
pub mod exec;
pub mod load;
pub mod server;

pub use cache::{CacheLookup, EpochCache};
pub use exec::execute;
pub use load::{run_load_sweep, LoadConfig, SweepPoint};
pub use server::{ServeConfig, ServeError, Server, Ticket};
