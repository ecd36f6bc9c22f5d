//! The mini-RDD runtime: lazy narrow chains, real shuffles, a virtual
//! clock.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use smda_cluster::{ClusterTopology, FaultPlan, SimTask, TextTable, VirtualScheduler};
use smda_engines::pool::host_parallelism;
use smda_engines::WorkerPool;
use smda_obs::MetricsSink;
use smda_types::{Error, Result};

use crate::sizeof::SizeOf;

/// Spark dies with "too many open files" past this many input files
/// (the paper hit this near 100,000 files; ulimits commonly sit at 64k).
pub const MAX_OPEN_FILES: usize = 65_536;

/// Accumulated accounting for one context (one "application").
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SparkStats {
    /// Stages executed.
    pub stages: u64,
    /// Tasks executed.
    pub tasks: u64,
    /// Bytes hash-partitioned across stage boundaries.
    pub shuffle_bytes: u64,
    /// Bytes that crossed the modeled network.
    pub network_bytes: u64,
    /// Bytes shipped via broadcast variables.
    pub broadcast_bytes: u64,
    /// Task attempts re-run after a failure or crash.
    pub retries: u64,
    /// Speculative backup copies launched for stragglers.
    pub speculative: u64,
}

struct CtxState {
    scheduler: VirtualScheduler,
    virtual_time: Duration,
    stats: SparkStats,
    /// First failure deferred from a stage; actions keep returning data
    /// so lazy chains stay infallible, and the engine (or any caller)
    /// surfaces it via [`SparkContext::take_error`].
    error: Option<Error>,
}

struct CtxInner {
    topology: ClusterTopology,
    /// Tasks of one stage in flight at once on the process's worker pool.
    parallelism: usize,
    state: Mutex<CtxState>,
}

/// The driver handle: creates RDDs, owns the virtual clock.
#[derive(Clone)]
pub struct SparkContext {
    inner: Arc<CtxInner>,
}

impl std::fmt::Debug for SparkContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparkContext")
            .field("workers", &self.inner.topology.workers)
            .finish()
    }
}

/// A read-only value shipped once to every worker.
#[derive(Debug, Clone)]
pub struct Broadcast<T> {
    value: Arc<T>,
}

impl<T> Broadcast<T> {
    /// Access the broadcast value.
    pub fn value(&self) -> &T {
        &self.value
    }
}

impl SparkContext {
    /// A fully configured context: cluster counters (tasks scheduled,
    /// bytes shuffled, the `faults.*` family) route into `sink`, and
    /// `fault_plan` (if any) injects crashes, stragglers and task
    /// failures into every stage. All run-scoped configuration happens
    /// here, at construction — a context never changes sinks or plans
    /// mid-job.
    pub fn configured(
        topology: ClusterTopology,
        sink: MetricsSink,
        fault_plan: Option<FaultPlan>,
    ) -> Self {
        let mut scheduler = VirtualScheduler::new(topology).with_metrics(sink);
        if let Some(plan) = fault_plan {
            scheduler = scheduler.with_fault_plan(plan);
        }
        SparkContext {
            inner: Arc::new(CtxInner {
                topology,
                parallelism: host_parallelism(),
                state: Mutex::new(CtxState {
                    scheduler,
                    virtual_time: Duration::ZERO,
                    stats: SparkStats::default(),
                    error: None,
                }),
            }),
        }
    }

    /// Virtual time consumed so far.
    pub fn virtual_time(&self) -> Duration {
        self.inner.state.lock().virtual_time
    }

    /// Accounting so far.
    pub fn stats(&self) -> SparkStats {
        self.inner.state.lock().stats
    }

    /// The first failure deferred by a stage, if any (clears it).
    ///
    /// RDD actions stay infallible: a stage that exhausts its retry
    /// budget (or loses every node) records the typed error here and
    /// returns empty partitions. Check after every action when running
    /// under a fault plan.
    pub fn take_error(&self) -> Option<Error> {
        self.inner.state.lock().error.take()
    }

    pub(crate) fn defer_error(&self, e: Error) {
        self.inner.state.lock().error.get_or_insert(e);
    }

    /// What a fallible per-element step yields: the value if there is
    /// one, nothing — and the error deferred to the end of the job — if
    /// the step failed.
    pub(crate) fn ok_or_defer<T>(&self, step: Result<Option<T>>) -> Option<T> {
        step.unwrap_or_else(|e| {
            self.defer_error(e);
            None
        })
    }

    /// [`SparkContext::ok_or_defer`] as the elements a `flat_map` emits.
    pub(crate) fn collect_or_defer<T>(&self, step: Result<Option<T>>) -> Vec<T> {
        self.ok_or_defer(step).into_iter().collect()
    }

    fn pool_attempts(&self) -> usize {
        let state = self.inner.state.lock();
        state
            .scheduler
            .fault_plan()
            .map_or(1, |p| p.max_attempts.max(1))
    }

    /// Distribute a vector over `parts` partitions.
    pub fn parallelize<T: Clone + Send + Sync + 'static>(
        &self,
        data: Vec<T>,
        parts: usize,
    ) -> Rdd<T> {
        let parts = parts.max(1);
        let chunk = data.len().div_ceil(parts).max(1);
        let chunks: Vec<Arc<Vec<T>>> = data.chunks(chunk).map(|c| Arc::new(c.to_vec())).collect();
        let n = chunks.len().max(1);
        let chunks = Arc::new(chunks);
        let chunks_for_compute = chunks.clone();
        Rdd {
            ctx: self.clone(),
            inner: Arc::new(RddInner {
                compute: Box::new(move |i| {
                    chunks_for_compute
                        .get(i)
                        .map(|c| c.as_ref().clone())
                        .unwrap_or_default()
                }),
                partitions: n,
                input_bytes: vec![0; n],
                locality: vec![Vec::new(); n],
                shuffle_read: vec![0; n],
            }),
        }
    }

    /// An RDD over a text table's splits (one partition per split).
    ///
    /// Fails with "too many open files" past [`MAX_OPEN_FILES`] input
    /// files, as the paper observed.
    pub fn text_table(&self, table: &TextTable) -> Result<Rdd<String>> {
        if table.split_count() > MAX_OPEN_FILES {
            return Err(Error::Invalid(format!(
                "too many open files: {} input files exceed the {MAX_OPEN_FILES} limit",
                table.split_count()
            )));
        }
        let splits: Vec<(Arc<Vec<String>>, u64, Vec<usize>)> = table
            .splits
            .iter()
            .map(|s| (s.lines.clone(), s.bytes, s.hosts.clone()))
            .collect();
        let n = splits.len();
        let input_bytes = splits.iter().map(|s| s.1).collect();
        let locality = splits.iter().map(|s| s.2.clone()).collect();
        let lines: Vec<Arc<Vec<String>>> = splits.into_iter().map(|s| s.0).collect();
        Ok(Rdd {
            ctx: self.clone(),
            inner: Arc::new(RddInner {
                compute: Box::new(move |i| lines[i].as_ref().clone()),
                partitions: n,
                input_bytes,
                locality,
                shuffle_read: vec![0; n],
            }),
        })
    }

    /// Ship a value to every worker once.
    pub fn broadcast<T: SizeOf>(&self, value: T) -> Broadcast<T> {
        let bytes = value.size_of() * self.inner.topology.workers.saturating_sub(1) as u64;
        let mut state = self.inner.state.lock();
        state.stats.broadcast_bytes += bytes;
        state.stats.network_bytes += bytes;
        // Broadcast distribution happens before the consuming stage.
        state.virtual_time += self.inner.topology.cost.network(bytes);
        Broadcast {
            value: Arc::new(value),
        }
    }
}

type ComputeFn<T> = Box<dyn Fn(usize) -> Vec<T> + Send + Sync>;

struct RddInner<T> {
    compute: ComputeFn<T>,
    partitions: usize,
    input_bytes: Vec<u64>,
    locality: Vec<Vec<usize>>,
    /// Shuffle bytes this partition pulls when computed (post-shuffle
    /// RDDs).
    shuffle_read: Vec<u64>,
}

/// A resilient distributed dataset.
pub struct Rdd<T> {
    ctx: SparkContext,
    inner: Arc<RddInner<T>>,
}

impl<T> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Rdd {
            ctx: self.ctx.clone(),
            inner: self.inner.clone(),
        }
    }
}

impl<T: Clone + Send + Sync + 'static> Rdd<T> {
    /// Compute one partition.
    fn compute_partition(&self, i: usize) -> Vec<T> {
        (self.inner.compute)(i)
    }

    fn narrow<U: Clone + Send + Sync + 'static>(
        &self,
        f: impl Fn(Vec<T>) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        let parent = self.clone();
        let n = self.inner.partitions;
        Rdd {
            ctx: self.ctx.clone(),
            inner: Arc::new(RddInner {
                compute: Box::new(move |i| f(parent.compute_partition(i))),
                partitions: n,
                input_bytes: self.inner.input_bytes.clone(),
                locality: self.inner.locality.clone(),
                shuffle_read: self.inner.shuffle_read.clone(),
            }),
        }
    }

    /// Element-wise transformation (narrow; fuses into the stage).
    pub fn map<U: Clone + Send + Sync + 'static>(
        &self,
        f: impl Fn(T) -> U + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.narrow(move |part| part.into_iter().map(&f).collect())
    }

    /// One-to-many transformation (narrow).
    pub fn flat_map<U: Clone + Send + Sync + 'static>(
        &self,
        f: impl Fn(T) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.narrow(move |part| part.into_iter().flat_map(&f).collect())
    }

    /// Whole-partition transformation (narrow).
    pub fn map_partitions<U: Clone + Send + Sync + 'static>(
        &self,
        f: impl Fn(Vec<T>) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.narrow(f)
    }

    /// Execute the stage ending at this RDD; returns per-partition data
    /// and advances the virtual clock. `output_bytes` sizes what a task
    /// writes from the partition it computed: shuffle files on the map
    /// side of a wide transformation, nothing for an action.
    fn run_stage(&self, output_bytes: impl Fn(&[T]) -> u64) -> Vec<Vec<T>> {
        let n = self.inner.partitions;
        let metrics = self.ctx.inner.state.lock().scheduler.metrics().clone();
        let results = match WorkerPool::global().run_contained(
            self.ctx.inner.parallelism,
            n,
            self.ctx.pool_attempts(),
            &metrics,
            &|i| self.compute_partition(i),
        ) {
            Ok(r) => r,
            Err(e) => {
                self.ctx.defer_error(e);
                return vec![Vec::new(); n];
            }
        };
        let mut sim = Vec::with_capacity(n);
        let mut data = Vec::with_capacity(n);
        for (i, (part, compute)) in results.into_iter().enumerate() {
            sim.push(SimTask {
                input_bytes: self.inner.input_bytes[i],
                locality: self.inner.locality[i].clone(),
                compute,
                output_bytes: output_bytes(&part),
                shuffle_bytes: self.inner.shuffle_read[i],
            });
            data.push(part);
        }
        let mut state = self.ctx.inner.state.lock();
        let barrier = state.virtual_time;
        let phase = match state.scheduler.try_run_phase(&sim, barrier) {
            Ok(p) => p,
            Err(e) => {
                state.error.get_or_insert(e);
                return vec![Vec::new(); n];
            }
        };
        state.virtual_time = phase.end;
        state.stats.stages += 1;
        state.stats.tasks += n as u64;
        state.stats.network_bytes += phase.network_bytes;
        state.stats.retries += phase.retries;
        state.stats.speculative += phase.speculative;
        data
    }

    /// Materialize the RDD on the driver (an action).
    pub fn collect(&self) -> Vec<T> {
        self.run_stage(|_| 0).into_iter().flatten().collect()
    }
}

impl<K, V> Rdd<(K, V)>
where
    K: Clone + Send + Sync + Ord + Hash + SizeOf + 'static,
    V: Clone + Send + Sync + SizeOf + 'static,
{
    /// Wide transformation: hash-partition by key into `parts` groups.
    /// Cuts a stage boundary; the parent stage executes here.
    pub fn group_by_key(&self, parts: usize) -> Rdd<(K, Vec<V>)> {
        let parts = parts.max(1);
        // Map side of the shuffle: run the parent stage, writing shuffle
        // files (output bytes = serialized pairs; real Spark pipelines the
        // write, the data volume is the same).
        let partitions =
            self.run_stage(|part| part.iter().map(|(k, v)| k.size_of() + v.size_of()).sum());
        // Hash-partition.
        let mut buckets: Vec<BTreeMap<K, Vec<V>>> = (0..parts).map(|_| BTreeMap::new()).collect();
        let mut bucket_bytes = vec![0u64; parts];
        for part in partitions {
            for (k, v) in part {
                let mut h = DefaultHasher::new();
                k.hash(&mut h);
                let p = (h.finish() % parts as u64) as usize;
                bucket_bytes[p] += k.size_of() + v.size_of();
                buckets[p].entry(k).or_default().push(v);
            }
        }
        let total_shuffle: u64 = bucket_bytes.iter().sum();
        self.ctx.inner.state.lock().stats.shuffle_bytes += total_shuffle;

        let data = buckets
            .into_iter()
            .map(|b| Arc::new(b.into_iter().collect::<Vec<_>>()))
            .collect::<Vec<_>>();
        let data = Arc::new(data);
        let data_for_compute = data.clone();
        Rdd {
            ctx: self.ctx.clone(),
            inner: Arc::new(RddInner {
                compute: Box::new(move |i| data_for_compute[i].as_ref().clone()),
                partitions: parts,
                input_bytes: vec![0; parts],
                locality: vec![Vec::new(); parts],
                shuffle_read: bucket_bytes,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_cluster::CostModel;

    fn ctx(workers: usize) -> SparkContext {
        SparkContext::configured(topo(workers), MetricsSink::disabled(), None)
    }

    fn topo(workers: usize) -> ClusterTopology {
        ClusterTopology {
            workers,
            slots_per_worker: 2,
            cost: CostModel::spark(),
        }
    }

    fn faulty_ctx(workers: usize, plan: FaultPlan) -> SparkContext {
        SparkContext::configured(topo(workers), MetricsSink::disabled(), Some(plan))
    }

    #[test]
    fn map_filter_collect_pipeline() {
        let sc = ctx(2);
        let rdd = sc.parallelize((0u64..100).collect(), 4);
        let out = rdd
            .map(|x| x * 2)
            .flat_map(|x| if x % 3 == 0 { vec![x] } else { vec![] })
            .collect();
        let expected: Vec<u64> = (0..100).map(|x| x * 2).filter(|x| x % 3 == 0).collect();
        assert_eq!(out, expected);
        assert_eq!(sc.stats().stages, 1, "narrow chain fuses into one stage");
    }

    #[test]
    fn group_by_key_groups_correctly() {
        let sc = ctx(2);
        let pairs: Vec<(u64, u64)> = (0..20).map(|i| (i % 3, i)).collect();
        let rdd = sc.parallelize(pairs, 3);
        let mut grouped = rdd.group_by_key(2).collect();
        grouped.sort_by_key(|(k, _)| *k);
        assert_eq!(grouped.len(), 3);
        for (k, vs) in &grouped {
            for v in vs {
                assert_eq!(v % 3, *k);
            }
        }
        assert!(sc.stats().shuffle_bytes > 0);
        assert_eq!(sc.stats().stages, 2);
    }

    #[test]
    fn broadcast_charges_network_once() {
        let sc = ctx(4);
        let b = sc.broadcast(vec![1.0f64; 1000]);
        assert_eq!(b.value().len(), 1000);
        let stats = sc.stats();
        // (workers − 1) × ~8 KB.
        assert!(stats.broadcast_bytes >= 3 * 8000, "{stats:?}");
    }

    #[test]
    fn virtual_time_advances_per_stage() {
        let sc = ctx(2);
        let rdd = sc.parallelize((0u64..10).collect(), 2);
        assert_eq!(sc.virtual_time(), Duration::ZERO);
        rdd.collect();
        let t1 = sc.virtual_time();
        assert!(t1 > Duration::ZERO);
        rdd.map(|x| x).collect();
        assert!(sc.virtual_time() > t1);
    }

    #[test]
    fn flat_map_expands() {
        let sc = ctx(2);
        let out = sc
            .parallelize(vec![1u64, 2], 1)
            .flat_map(|x| vec![x; x as usize])
            .collect();
        assert_eq!(out, vec![1, 2, 2]);
    }

    #[test]
    fn empty_rdd_works() {
        let sc = ctx(2);
        let out: Vec<u64> = sc.parallelize(Vec::new(), 3).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn results_stay_exact_under_a_node_crash() {
        let mut plan = FaultPlan::default();
        plan.crashes.push(smda_cluster::NodeCrash {
            node: 0,
            at: Duration::ZERO,
        });
        let sc = faulty_ctx(3, plan);
        let out = sc
            .parallelize((0u64..100).collect(), 6)
            .map(|x| x * 2)
            .collect();
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
        assert!(sc.take_error().is_none());
    }

    #[test]
    fn retry_exhaustion_is_deferred_as_a_typed_error() {
        let mut plan = FaultPlan::seeded(3);
        plan.task_failure_rate = 0.999;
        plan.max_attempts = 2;
        let sc = faulty_ctx(2, plan);
        let out = sc.parallelize((0u64..10).collect(), 4).collect();
        assert!(out.is_empty(), "a failed stage returns no data");
        match sc.take_error() {
            Some(Error::TaskFailed { attempts, .. }) => assert_eq!(attempts, 2),
            other => panic!("want a deferred TaskFailed, got {other:?}"),
        }
        assert!(sc.take_error().is_none(), "take_error clears the slot");
    }

    #[test]
    fn injected_failures_retry_and_count() {
        let mut plan = FaultPlan::seeded(5);
        plan.task_failure_rate = 0.5;
        plan.max_attempts = 32;
        let sc = faulty_ctx(2, plan);
        let out = sc
            .parallelize((0u64..40).collect(), 8)
            .map(|x| x + 1)
            .collect();
        assert_eq!(out.len(), 40);
        assert!(sc.take_error().is_none());
        assert!(sc.stats().retries > 0, "a 50% failure rate must retry");
    }

    #[test]
    fn panicking_task_defers_task_failed() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let sc = ctx(2);
        let out = sc
            .parallelize((0u64..10).collect(), 2)
            .map(|x| if x == 7 { panic!("boom") } else { x })
            .collect();
        std::panic::set_hook(prev);
        assert!(out.is_empty());
        assert!(matches!(sc.take_error(), Some(Error::TaskFailed { .. })));
    }
}
