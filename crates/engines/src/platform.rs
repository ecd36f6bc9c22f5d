//! The [`Platform`] trait driven by the benchmark harness, and the
//! [`RunSpec`] describing one run of it.

use std::time::Duration;

use smda_cluster::FaultPlan;
use smda_core::{Task, TaskOutput};
use smda_obs::{MetricsReport, MetricsSink, RunManifest};
use smda_types::{DataFormat, Dataset, DirtyDataPolicy, Result};

use crate::capabilities::Capabilities;

/// Everything a platform needs to execute one benchmark run: the task,
/// the degree of parallelism, where to record metrics, which faults to
/// inject, and how to treat dirty rows.
///
/// The spec is the *only* run-scoped configuration channel — every
/// platform (the three single-server engines, Hive and Spark) is driven
/// through [`Platform::run`] with one of these; there are no per-engine
/// side-channel setters.
///
/// Construct with the builder:
///
/// ```
/// use smda_core::Task;
/// use smda_engines::RunSpec;
/// use smda_obs::MetricsSink;
///
/// let spec = RunSpec::builder(Task::ThreeLine)
///     .threads(4)
///     .metrics(MetricsSink::recording())
///     .build();
/// assert_eq!(spec.threads, 4);
/// assert!(spec.fault_plan.is_none());
/// ```
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The benchmark task to execute.
    pub task: Task,
    /// Worker threads (shared-nothing connections/instances) to use.
    pub threads: usize,
    /// Sink the platform writes phase timings and counters into. A
    /// [`MetricsSink::disabled`] sink (the builder default) makes all
    /// instrumentation no-ops.
    pub metrics: MetricsSink,
    /// Faults to inject into the run (and into observed loads): replica
    /// losses at load time, crashes/stragglers/task failures at run
    /// time. `None` (the default) runs fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// How parsers treat malformed rows (default: fail fast).
    pub dirty_policy: DirtyDataPolicy,
}

impl RunSpec {
    /// Start building a spec for `task`; one thread, no metrics, no
    /// faults and fail-fast dirty handling until the setters say
    /// otherwise.
    pub fn builder(task: Task) -> RunSpecBuilder {
        RunSpecBuilder {
            spec: RunSpec {
                task,
                threads: 1,
                metrics: MetricsSink::disabled(),
                fault_plan: None,
                dirty_policy: DirtyDataPolicy::default(),
            },
        }
    }
}

/// Builder for [`RunSpec`]; see [`RunSpec::builder`].
#[derive(Debug, Clone)]
pub struct RunSpecBuilder {
    spec: RunSpec,
}

impl RunSpecBuilder {
    /// Set the worker-thread count (minimum 1).
    pub fn threads(mut self, threads: usize) -> RunSpecBuilder {
        self.spec.threads = threads.max(1);
        self
    }

    /// Attach a metrics sink.
    pub fn metrics(mut self, metrics: MetricsSink) -> RunSpecBuilder {
        self.spec.metrics = metrics;
        self
    }

    /// Inject faults into the run (and into observed loads).
    pub fn fault_plan(mut self, plan: FaultPlan) -> RunSpecBuilder {
        self.spec.fault_plan = Some(plan);
        self
    }

    /// Finish the spec.
    pub fn build(self) -> RunSpec {
        self.spec
    }
}

/// Outcome of one task run on a platform.
#[derive(Debug)]
pub struct RunResult {
    /// The task's output (validated against the reference implementation
    /// in the integration tests).
    pub output: TaskOutput,
    /// Wall-clock time of the run, including any data access the platform
    /// performs (cold) or skips (warm).
    pub elapsed: Duration,
}

/// A single-node analytics platform under benchmark.
pub trait Platform {
    /// Platform name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Ingest a dataset into the platform's storage, returning the load
    /// wall time (Figure 4). For the numeric engine this is the cost of
    /// splitting/writing files; for the stores it includes tuple or
    /// column materialization.
    fn load(&mut self, ds: &Dataset) -> Result<Duration>;

    /// Drop all caches so the next [`Platform::run`] starts cold.
    fn make_cold(&mut self);

    /// Bring the data into memory ahead of a warm-start run (Figure 6):
    /// Matlab loads its arrays, MADLib runs the extracting SELECTs, the
    /// column store faults its chunks in. Returns the time spent.
    fn warm(&mut self) -> Result<Duration>;

    /// Execute `spec.task` with `spec.threads` parallel workers,
    /// recording phase timings and counters into `spec.metrics`.
    fn run(&mut self, spec: &RunSpec) -> Result<RunResult>;

    /// Which statistical functions the platform ships versus what had to
    /// be hand-written (Table 1).
    fn capabilities(&self) -> Capabilities;
}

/// A modeled-cluster platform — the Hive and Spark twins — whose input is
/// the dataset rendered as text in one of the paper's three formats.
/// [`Platform::run`] on one reports the modeled cluster's virtual
/// wall-clock as the elapsed time.
pub trait ClusterTwin: Platform {
    /// Render `ds` in `format` and register it in the twin's DFS under
    /// `spec`: its replica-loss faults are applied to the fresh placement
    /// and their counters flow into its sink. (The spec's task is
    /// irrelevant here.)
    fn load_observed(&mut self, ds: &Dataset, format: DataFormat, spec: &RunSpec) -> Result<()>;
}

/// Drive one fully-observed session — load, warm, run — against `engine`,
/// recording the three top-level phases into `spec.metrics` and snapshotting
/// them into a [`MetricsReport`].
///
/// The engine's own instrumentation nests beneath `run` (the `run` scope
/// is open on the sink while [`Platform::run`] executes).
pub fn observe_session(
    engine: &mut dyn Platform,
    ds: &Dataset,
    spec: &RunSpec,
) -> Result<(RunResult, MetricsReport)> {
    let load = engine.load(ds)?;
    spec.metrics.add_phase(&["load"], load);
    let warm = engine.warm()?;
    spec.metrics.add_phase(&["warm"], warm);
    let result = {
        let _run = spec.metrics.scope("run");
        engine.run(spec)?
    };
    let manifest = RunManifest::new(spec.task.name(), engine.name())
        .threads(spec.threads)
        .consumers(ds.len());
    let report = spec.metrics.finish(manifest);
    Ok((result, report))
}
