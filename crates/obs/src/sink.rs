//! The recording half: [`MetricsSink`] and [`PhaseTimer`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::report::{MetricsReport, PhaseNode, RunManifest};

/// In-progress phase tree; durations accumulate, children keep insertion
/// order so reports read in execution order.
#[derive(Debug, Default)]
struct PhaseRec {
    elapsed: Duration,
    order: Vec<String>,
    children: BTreeMap<String, PhaseRec>,
}

impl PhaseRec {
    fn child(&mut self, name: &str) -> &mut PhaseRec {
        let order = &mut self.order;
        self.children.entry(name.to_owned()).or_insert_with(|| {
            order.push(name.to_owned());
            PhaseRec::default()
        })
    }

    fn at_path(&mut self, path: &[&str]) -> &mut PhaseRec {
        path.iter().fold(self, |node, seg| node.child(seg))
    }

    fn snapshot(&self) -> Vec<PhaseNode> {
        self.order
            .iter()
            .map(|name| {
                let rec = &self.children[name];
                PhaseNode {
                    name: name.clone(),
                    ns: rec.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
                    children: rec.snapshot(),
                }
            })
            .collect()
    }
}

#[derive(Debug, Default)]
struct Recorder {
    root: PhaseRec,
    /// Path of currently-open [`PhaseTimer`] scopes.
    stack: Vec<String>,
    counters: BTreeMap<String, u64>,
}

/// Destination for run metrics. Cloning shares the underlying recorder,
/// so a sink can be handed to helpers and worker pools freely.
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    inner: Option<Arc<Mutex<Recorder>>>,
}

impl MetricsSink {
    /// A sink that records nothing; every operation is a no-op.
    pub fn disabled() -> MetricsSink {
        MetricsSink { inner: None }
    }

    /// A live sink accumulating phases and counters.
    pub fn recording() -> MetricsSink {
        MetricsSink {
            inner: Some(Arc::new(Mutex::new(Recorder::default()))),
        }
    }

    /// Whether this sink actually records. Lets callers skip expensive
    /// metric derivation when nobody is listening.
    pub(crate) fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    fn with_recorder<R>(&self, f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|m| f(&mut m.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Open a named phase scope nested under any scopes currently open on
    /// this sink. The returned [`PhaseTimer`] records the elapsed time
    /// when dropped.
    pub fn scope(&self, name: &str) -> PhaseTimer {
        if self.is_recording() {
            self.with_recorder(|rec| rec.stack.push(name.to_owned()));
            PhaseTimer {
                sink: self.clone(),
                start: Some(Instant::now()),
            }
        } else {
            PhaseTimer {
                sink: MetricsSink::disabled(),
                start: None,
            }
        }
    }

    /// Add a pre-measured duration at an explicit `/`-joined path,
    /// ignoring open scopes. Repeated calls accumulate.
    pub fn add_phase(&self, path: &[&str], elapsed: Duration) {
        self.with_recorder(|rec| {
            rec.root.at_path(path).elapsed += elapsed;
        });
    }

    /// Add a pre-measured duration at `path` nested *under* the scopes
    /// currently open on this sink (where a [`PhaseTimer`] would record).
    /// Used for phase splits measured off-thread, like the three-line
    /// algorithm's per-phase timings aggregated across workers.
    pub fn add_phase_nested(&self, path: &[&str], elapsed: Duration) {
        self.with_recorder(|rec| {
            let stack = rec.stack.clone();
            let full: Vec<&str> = stack
                .iter()
                .map(String::as_str)
                .chain(path.iter().copied())
                .collect();
            rec.root.at_path(&full).elapsed += elapsed;
        });
    }

    /// Bump counter `name` by `by`.
    pub fn incr(&self, name: &str, by: u64) {
        self.with_recorder(|rec| {
            *rec.counters.entry(name.to_owned()).or_insert(0) += by;
        });
    }

    /// Snapshot everything recorded so far into a [`MetricsReport`] and
    /// reset the recorder for the next run.
    pub fn finish(&self, manifest: RunManifest) -> MetricsReport {
        let (phases, counters) = self
            .with_recorder(|rec| {
                let snapshot = rec.root.snapshot();
                let counters: Vec<(String, u64)> =
                    rec.counters.iter().map(|(k, v)| (k.clone(), *v)).collect();
                *rec = Recorder::default();
                (snapshot, counters)
            })
            .unwrap_or_default();
        MetricsReport {
            manifest,
            phases,
            counters,
        }
    }

    fn close_scope(&self, elapsed: Duration) {
        self.with_recorder(|rec| {
            let path = rec.stack.clone();
            let refs: Vec<&str> = path.iter().map(String::as_str).collect();
            rec.root.at_path(&refs).elapsed += elapsed;
            rec.stack.pop();
        });
    }
}

/// RAII phase scope: measures from creation to drop and records the
/// elapsed time under the sink's current scope path.
#[derive(Debug)]
#[must_use = "a PhaseTimer records on drop; binding it to `_` drops immediately"]
pub struct PhaseTimer {
    sink: MetricsSink,
    start: Option<Instant>,
}

impl PhaseTimer {}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.sink.close_scope(start.elapsed());
        }
    }
}
