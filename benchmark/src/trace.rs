//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `(name, layer, start, end, parent, rep)`. Spans are held in
//! memory and written to `trace-<workload>.json` when the run ends. A
//! span's **self time** is its duration minus the part of that interval
//! its child spans cover (the union of the children, so children running
//! on two threads are not counted twice). The layer of a span is the
//! crate its self time is spent in; `bench` marks the harness's own
//! grouping spans, which are left out of the layer shares.
//!
//! Only the benchmark's own files record spans, so inside a parallel
//! call the work is seen through the one seam the program offers: the
//! source its workers read from. Each worker's read is a span, and the
//! gap between two reads of one worker is a span for what the worker
//! did in between (a fit, a tile of pairs). Those are per-thread spans,
//! so layer shares are shares of thread time.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Layer name of the harness's own grouping spans.
pub const BENCH_LAYER: &str = "bench";

/// One finished span. `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rep: u32,
}

/// In-memory span sink shared by every thread of a run.
pub struct Tracer {
    on: AtomicBool,
    origin: Instant,
    next_id: AtomicU32,
    rep: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_on`].
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            rep: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Tag spans opened from now on with repetition `rep`.
    pub fn set_rep(&self, rep: u32) {
        self.rep.store(rep, Ordering::Relaxed);
    }

    /// Open a span under `parent` (0 for a root); it is recorded when
    /// the guard drops. While the tracer is off the guard is inert and
    /// its id is 0.
    pub fn span(&self, name: &'static str, layer: &'static str, parent: u32) -> SpanGuard<'_> {
        if !self.is_on() {
            return SpanGuard {
                tracer: None,
                id: 0,
                parent,
                name,
                layer,
                start_ns: 0,
            };
        }
        SpanGuard {
            tracer: Some(self),
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            layer,
            start_ns: self.now_ns(),
        }
    }

    /// Nanoseconds since the tracer was made — the clock of every span.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span whose ends were read off [`Tracer::now_ns`]
    /// — for work seen only as the gap between two calls (what a worker
    /// does between two reads of its source). Nothing while off.
    pub fn record(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.is_on() && end_ns > start_ns {
            self.push(Span {
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                parent,
                name,
                layer,
                start_ns,
                end_ns,
                rep: self.rep.load(Ordering::Relaxed),
            });
        }
    }

    fn push(&self, span: Span) {
        // A poisoned sink means another thread panicked mid-push; the
        // run is already failing, so dropping this span is harmless.
        if let Ok(mut spans) = self.spans.lock() {
            spans.push(span);
        }
    }

    /// All spans recorded so far, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// An open span; see [`Tracer::span`].
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    id: u32,
    parent: u32,
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// Id to pass as `parent` to child spans (0 while tracing is off).
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer else { return };
        tracer.push(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            layer: self.layer,
            start_ns: self.start_ns,
            end_ns: tracer.now_ns(),
            rep: tracer.rep.load(Ordering::Relaxed),
        });
    }
}

/// Self time of every span, keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                // Sweep the union of the child intervals, clipped to
                // the parent's own interval.
                let mut edge = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(edge), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        edge = b;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// The spans of the trees rooted at a root span named `root_name`.
pub fn under_root(spans: &[Span], root_name: &str) -> Vec<Span> {
    let parent_of: BTreeMap<u32, u32> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let roots: std::collections::BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == root_name)
        .map(|s| s.id)
        .collect();
    spans
        .iter()
        .filter(|s| {
            let mut id = s.id;
            while let Some(&parent) = parent_of.get(&id).filter(|p| **p != 0) {
                id = parent;
            }
            roots.contains(&id)
        })
        .cloned()
        .collect()
}

/// Share of the summed self time each layer accounts for, harness spans
/// excluded. Spans of concurrent threads add up, so this is a share of
/// thread time, not of wall time.
pub fn layer_shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.layer != BENCH_LAYER) {
        *by_layer.entry(s.layer).or_default() += selfs[&s.id];
    }
    let total: u64 = by_layer.values().sum();
    by_layer
        .into_iter()
        .map(|(layer, ns)| (layer, ns as f64 / total.max(1) as f64))
        .collect()
}

/// Write the span file: one object per span with its self time.
pub fn write_spans(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            out,
            "{sep}\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"rep\":{},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.parent, s.name, s.layer, s.rep, s.start_ns, s.end_ns, selfs[&s.id]
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            layer,
            start_ns,
            end_ns,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "bench", 0, 100),
            // Two children overlapping on [30, 40): union covers 10..60.
            span(2, 1, "format", 10, 40),
            span(3, 1, "format", 30, 60),
            // A grandchild only reduces its own parent.
            span(4, 3, "stats", 35, 55),
            // A child leaking past its parent is clipped to it.
            span(5, 1, "core", 90, 130),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 10);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&3], 30 - 20);
        assert_eq!(selfs[&4], 20);
        assert_eq!(selfs[&5], 40);
    }

    #[test]
    fn layer_shares_leave_out_the_harness() {
        let spans = [
            span(1, 0, "bench", 0, 100),
            span(2, 1, "core", 0, 60),
            span(3, 2, "format", 10, 30),
        ];
        let shares = layer_shares(&spans);
        assert_eq!(shares.len(), 2);
        assert!((shares["core"] - 40.0 / 60.0).abs() < 1e-12);
        assert!((shares["format"] - 20.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn under_root_keeps_whole_trees_of_the_named_root_only() {
        let mut spans = vec![
            span(1, 0, "bench", 0, 10),
            span(2, 1, "core", 1, 5),
            span(3, 2, "format", 2, 3),
            span(4, 0, "bench", 10, 20),
            span(5, 4, "stats", 11, 19),
        ];
        spans[3].name = "other";
        let kept: Vec<u32> = under_root(&spans, "s").iter().map(|s| s.id).collect();
        assert_eq!(kept, [1, 2, 3]);
        let kept: Vec<u32> = under_root(&spans, "other").iter().map(|s| s.id).collect();
        assert_eq!(kept, [4, 5]);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let tracer = Tracer::new();
        assert_eq!(tracer.span("a", "core", 0).id(), 0);
        assert!(tracer.take().is_empty());
        tracer.set_on(true);
        tracer.set_rep(3);
        let parent = tracer.span("a", "core", 0);
        let child_parent = {
            let child = tracer.span("b", "format", parent.id());
            child.parent
        };
        drop(parent);
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "b");
        assert_eq!(spans[0].parent, child_parent);
        assert_eq!(spans[1].parent, 0);
        assert!(spans.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
    }
}
