//! The request loop: admission, deadlines, permits, completion.
//!
//! The server owns no thread: a request is served on the thread that
//! asks. [`Server::submit`] does admission → deadline → pin → probe,
//! and a cache hit leaves it as an already-resolved [`Ticket`].
//! [`Ticket::wait`] on a miss goes on: permit → probe → execute →
//! insert. At most `workers` misses execute at once — the rest block
//! on the permit gate, each no longer than its own deadline, in no
//! promised order — and the probe under the permit finds what another
//! caller computed meanwhile. Per-consumer fits run on the calling
//! thread's `FitScratch` arena.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use smda_ingest::{LiveSnapshot, SnapshotHandle};
use smda_obs::{counters, MetricsSink};
use smda_types::{ConsumerId, Query, QueryResult};

use crate::cache::{CacheLookup, EpochCache};
use crate::exec;

/// Why the serving layer declined (or failed) a query. Every variant is
/// a *typed* outcome — the server never panics a caller and never
/// silently drops a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control: `queue_depth` queries were already in flight.
    Overloaded {
        /// The in-flight bound the request bounced off.
        depth: usize,
    },
    /// The query's deadline passed before an answer could be returned.
    DeadlineExceeded {
        /// The query that missed its deadline.
        query: Query,
    },
    /// Nothing has been published yet — the ingest pipeline has not
    /// sealed a snapshot into the handle.
    NoSnapshot,
    /// The household is not in the live snapshot.
    UnknownConsumer(ConsumerId),
    /// The household's series is degenerate and has no three-line fit.
    NoModel(ConsumerId),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { depth } => {
                write!(f, "overloaded: {depth} queries already in flight")
            }
            ServeError::DeadlineExceeded { query } => {
                write!(f, "deadline exceeded for query `{query}`")
            }
            ServeError::NoSnapshot => write!(f, "no snapshot published yet"),
            ServeError::UnknownConsumer(id) => write!(f, "unknown consumer {id}"),
            ServeError::NoModel(id) => write!(f, "no three-line model for {id}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Tuning knobs for a [`Server`].
#[derive(Clone)]
pub struct ServeConfig {
    /// Bound on queries admitted but not yet answered; submissions
    /// beyond it are rejected with [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Cache misses executing at once (permits of the gate; at least
    /// one).
    pub workers: usize,
    /// Deadline applied by [`Server::submit`] / [`Server::query`].
    pub default_deadline: Duration,
    /// Answers memoized per epoch.
    pub cache_capacity: usize,
    /// Destination for the `serve.*` counters.
    pub metrics: MetricsSink,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_depth: 256,
            workers: 4,
            default_deadline: Duration::from_secs(5),
            cache_capacity: 4096,
            metrics: MetricsSink::disabled(),
        }
    }
}

/// Shrug off lock poisoning: the gate's state is updated one integer
/// at a time.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

type Outcome = Result<Arc<QueryResult>, ServeError>;

#[derive(Default)]
struct GateState {
    running: usize,
    waiting: usize,
}

/// Bounds the cache misses executing at once to `permits`.
struct Gate {
    state: Mutex<GateState>,
    freed: Condvar,
    permits: usize,
}

/// One of the gate's permits; dropping it releases.
struct Permit<'a>(&'a Gate);

impl Gate {
    fn new(permits: usize) -> Gate {
        Gate {
            state: Mutex::default(),
            freed: Condvar::new(),
            permits: permits.max(1),
        }
    }

    /// Take a permit, blocking until one is free; `None` once
    /// `deadline` has passed without one. A woken waiter looks for a
    /// free permit before it looks at the clock, so a wake is never
    /// spent on a waiter that leaves empty-handed.
    fn acquire(&self, deadline: Instant, metrics: &MetricsSink) -> Option<Permit<'_>> {
        let mut state = lock(&self.state);
        let mut blocked_since = None;
        let acquired = loop {
            if state.running < self.permits {
                state.running += 1;
                break true;
            }
            let now = Instant::now();
            if now >= deadline {
                break false;
            }
            blocked_since.get_or_insert(now);
            state.waiting += 1;
            state = self
                .freed
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
            state.waiting -= 1;
        };
        drop(state);
        if let Some(since) = blocked_since {
            let waited_ns = since.elapsed().as_nanos() as u64;
            metrics.incr(counters::SERVE_PERMIT_WAITS, 1);
            metrics.incr(counters::SERVE_PERMIT_WAIT_NS, waited_ns);
        }
        acquired.then(|| Permit(self))
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.0.state);
        state.running -= 1;
        if state.waiting > 0 {
            self.0.freed.notify_one();
        }
    }
}

/// What a request carries from `submit` to its resolution.
struct Request {
    query: Query,
    submitted: Instant,
    deadline: Instant,
}

/// An admitted query's handle. [`Ticket::wait`] resolves it — with an
/// answer or a typed [`ServeError`] — on the calling thread. It counts
/// against `queue_depth` until it is waited or dropped.
pub struct Ticket<'a> {
    server: &'a Server,
    req: Request,
    /// What `submit` already knew: a cached answer, an expired
    /// deadline, nothing published. `None` is a cache miss.
    resolved: Option<Outcome>,
}

impl Ticket<'_> {
    /// Resolve the query: at once if `submit` could, else by executing
    /// it here under one of the server's `workers` permits.
    pub fn wait(mut self) -> Result<Arc<QueryResult>, ServeError> {
        let resolved = self.resolved.take();
        resolved.unwrap_or_else(|| self.server.run_miss(&self.req))
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        self.server.in_flight.fetch_sub(1, Relaxed);
    }
}

/// The serving layer; see the crate docs for the request path.
pub struct Server {
    handle: Arc<SnapshotHandle>,
    cache: EpochCache,
    config: ServeConfig,
    /// Tickets alive: queries admitted but not yet answered.
    in_flight: AtomicUsize,
    gate: Gate,
}

impl Server {
    /// A server answering queries from whatever `handle` has live. It
    /// starts no thread; queries submitted before the first publish
    /// resolve to [`ServeError::NoSnapshot`].
    pub fn start(handle: Arc<SnapshotHandle>, config: ServeConfig) -> Server {
        Server {
            handle,
            cache: EpochCache::new(config.cache_capacity),
            in_flight: AtomicUsize::new(0),
            gate: Gate::new(config.workers),
            config,
        }
    }

    /// The epoch currently live in the underlying handle.
    pub fn epoch(&self) -> u64 {
        self.handle.epoch()
    }

    /// [`Server::submit_with_deadline`] with the configured default
    /// deadline.
    pub fn submit(&self, query: Query) -> Result<Ticket<'_>, ServeError> {
        self.submit_with_deadline(query, self.config.default_deadline)
    }

    /// Submit with an explicit deadline, measured from now. A cache hit
    /// is answered here; a miss executes in [`Ticket::wait`].
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] when `queue_depth` queries are in
    /// flight.
    pub fn submit_with_deadline(
        &self,
        query: Query,
        deadline: Duration,
    ) -> Result<Ticket<'_>, ServeError> {
        let metrics = &self.config.metrics;
        let depth = self.config.queue_depth;
        let admit = |n| (n < depth).then_some(n + 1);
        // Relaxed: the count admits or rejects, it publishes no data.
        let admitted = self.in_flight.fetch_update(Relaxed, Relaxed, admit);
        if admitted.is_err() {
            metrics.incr(counters::SERVE_REJECTED_OVERLOAD, 1);
            return Err(ServeError::Overloaded { depth });
        }
        metrics.incr(counters::SERVE_ADMITTED, 1);
        let submitted = Instant::now();
        let mut ticket = Ticket {
            server: self,
            req: Request {
                query,
                submitted,
                deadline: submitted + deadline,
            },
            resolved: None,
        };
        let req = &ticket.req;
        ticket.resolved = if submitted >= req.deadline {
            // Expired on arrival: reject without a pin or a probe.
            Some(Err(self.expired(req)))
        } else {
            match self.pin_and_probe(&query) {
                Ok((_, cached)) => cached.map(|answer| self.finish(req, answer)),
                Err(e) => Some(Err(e)),
            }
        };
        Ok(ticket)
    }

    /// Submit and block for the answer (the default deadline applies).
    ///
    /// # Errors
    /// Any [`ServeError`]: admission, deadline, or execution failures.
    pub fn query(&self, query: Query) -> Result<Arc<QueryResult>, ServeError> {
        self.submit(query)?.wait()
    }

    /// Pin the world this query runs against — publishes that land
    /// after this line are invisible to it, by design — and probe the
    /// cache at that epoch.
    fn pin_and_probe(
        &self,
        query: &Query,
    ) -> Result<(Arc<LiveSnapshot>, Option<Arc<QueryResult>>), ServeError> {
        let metrics = &self.config.metrics;
        let live = self.handle.pin().ok_or(ServeError::NoSnapshot)?;
        let cached = match self.cache.lookup(live.epoch(), query) {
            CacheLookup::Hit(answer) => {
                metrics.incr(counters::SERVE_CACHE_HITS, 1);
                Some(answer)
            }
            CacheLookup::MissInvalidated => {
                metrics.incr(counters::SERVE_CACHE_INVALIDATIONS, 1);
                None
            }
            CacheLookup::Miss => None,
        };
        Ok((live, cached))
    }

    /// A cache miss, on the caller's thread: permit, deadline, pin and
    /// probe again (another caller may have computed the answer while
    /// this one waited, and the world may have moved on), execute,
    /// insert at the pinned epoch.
    fn run_miss(&self, req: &Request) -> Outcome {
        let permit = self.gate.acquire(req.deadline, &self.config.metrics);
        if permit.is_none() || Instant::now() >= req.deadline {
            // Expired before a permit: reject without spending compute.
            return Err(self.expired(req));
        }
        let (live, cached) = self.pin_and_probe(&req.query)?;
        let answer = match cached {
            Some(answer) => answer,
            None => {
                let start = Instant::now();
                let result = exec::execute(&live, &req.query);
                let execute_ns = start.elapsed().as_nanos() as u64;
                self.incr_kind(counters::SERVE_EXECUTED, req, 1);
                self.incr_kind(counters::SERVE_EXECUTE_NS, req, execute_ns);
                let answer = Arc::new(result?);
                self.cache.insert(live.epoch(), req.query, answer.clone());
                answer
            }
        };
        drop(permit);
        self.finish(req, answer)
    }

    /// Resolve a computed (or cached) answer, honoring the deadline and
    /// recording per-type latency.
    fn finish(&self, req: &Request, answer: Arc<QueryResult>) -> Outcome {
        let now = Instant::now();
        if now > req.deadline {
            // The answer exists (and is cached for the next caller), but
            // this caller asked for it by a time that has passed.
            return Err(self.expired(req));
        }
        let latency_ns = (now - req.submitted).as_nanos() as u64;
        self.incr_kind(counters::SERVE_ANSWERED, req, 1);
        self.incr_kind(counters::SERVE_LATENCY_NS, req, latency_ns);
        Ok(answer)
    }

    /// Count a deadline miss and name the query in the typed rejection.
    fn expired(&self, req: &Request) -> ServeError {
        let metrics = &self.config.metrics;
        metrics.incr(counters::SERVE_DEADLINE_MISSES, 1);
        ServeError::DeadlineExceeded { query: req.query }
    }

    /// Bump the per-query-kind counter `<name>.<kind>`.
    fn incr_kind(&self, name: &str, req: &Request, by: u64) {
        let kind = req.query.kind().name();
        self.config.metrics.incr(&format!("{name}.{kind}"), by);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_ingest::{run_pipeline, IngestConfig};
    use smda_obs::RunManifest;
    use smda_types::{Reading, HOURS_PER_YEAR};
    use std::sync::atomic::Ordering::SeqCst;

    /// Far enough away that only a broken gate reaches it.
    fn far() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    /// A handle with two sealed households published at epoch 1.
    fn published() -> Arc<SnapshotHandle> {
        let handle = Arc::new(SnapshotHandle::new());
        let events = (0..HOURS_PER_YEAR as u32).flat_map(|hour| {
            (0..2).map(move |c| Reading {
                consumer: ConsumerId(c),
                hour,
                temperature: 10.0 + f64::from(hour % 24),
                kwh: 1.0 + f64::from((hour + 5 * c) % 7),
            })
        });
        run_pipeline(events, &IngestConfig::new().with_publish(handle.clone()))
            .expect("a complete in-order year seals");
        handle
    }

    #[test]
    fn gate_never_lets_more_than_its_permits_inside() {
        let gate = Gate::new(2);
        let sink = MetricsSink::disabled();
        let inside = AtomicUsize::new(0);
        let most = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..6 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        let _permit = gate.acquire(far(), &sink).expect("a permit frees up");
                        let now = inside.fetch_add(1, SeqCst) + 1;
                        most.fetch_max(now, SeqCst);
                        std::thread::yield_now();
                        inside.fetch_sub(1, SeqCst);
                    }
                });
            }
        });
        assert!(most.load(SeqCst) <= 2, "more inside than permits");

        // The bound without a race: both permits held, a third caller
        // whose deadline has passed leaves without one.
        let held = [gate.acquire(far(), &sink), gate.acquire(far(), &sink)];
        assert!(held.iter().all(Option::is_some));
        assert!(gate.acquire(Instant::now(), &sink).is_none());
        drop(held);
        assert!(gate.acquire(Instant::now(), &sink).is_some());
    }

    #[test]
    fn a_release_wakes_a_waiter() {
        let gate = Gate::new(1);
        let sink = MetricsSink::disabled();
        let held = gate.acquire(far(), &sink).expect("the gate starts empty");
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let deadline = far();
                let permit = gate.acquire(deadline, &sink);
                // Woken by the release, not by its own deadline.
                permit.is_some() && Instant::now() < deadline
            });
            while lock(&gate.state).waiting == 0 {
                assert!(!waiter.is_finished(), "got past a full gate");
                std::thread::yield_now();
            }
            drop(held);
            assert!(waiter.join().expect("waiter thread"));
        });
        let state = lock(&gate.state);
        assert_eq!((state.running, state.waiting), (0, 0));
    }

    #[test]
    fn a_miss_that_cannot_get_a_permit_expires_at_its_deadline() {
        let sink = MetricsSink::recording();
        let server = Server::start(
            published(),
            ServeConfig {
                workers: 1,
                metrics: sink.clone(),
                ..ServeConfig::default()
            },
        );
        let query = Query::ParCoefficients {
            consumer: ConsumerId(1),
        };
        let held = server
            .gate
            .acquire(far(), &sink)
            .expect("the gate starts empty");
        let budget = Duration::from_millis(10);
        let sent = Instant::now();
        let late = server
            .submit_with_deadline(query, budget)
            .expect("admission succeeds")
            .wait();
        assert_eq!(late, Err(ServeError::DeadlineExceeded { query }));
        assert!(sent.elapsed() >= budget, "gave up before the deadline");
        drop(held);

        let report = sink.finish(RunManifest::new("serve", "test"));
        let count = |name: &str| report.counter(name).unwrap_or(0);
        assert_eq!(count(counters::SERVE_ADMITTED), 1);
        assert_eq!(count(counters::SERVE_DEADLINE_MISSES), 1);
        assert_eq!(count(counters::SERVE_PERMIT_WAITS), 1);
        assert!(count(counters::SERVE_PERMIT_WAIT_NS) > 0);
        assert!(
            !report
                .counters
                .iter()
                .any(|(name, _)| name.starts_with(counters::SERVE_EXECUTED)),
            "an expired miss must not execute: {:?}",
            report.counters
        );
        // The permit and the in-flight count both came back.
        assert_eq!(server.in_flight.load(Relaxed), 0);
        assert!(server.query(query).is_ok());
    }
}
