//! The sharded pipeline: router, bounded queues, shard owners, seal.
//!
//! One router (the calling thread) validates and hash-routes readings
//! into one pending chunk per shard and hands each chunk to that shard's
//! bounded queue whole — one lock, at most one wake and one
//! `routed_hour` update per chunk, not per reading. A chunk goes out
//! when it holds `DRAIN_BATCH` (256) readings, when a reading with a
//! newer event hour than any before it arrives (every pending chunk
//! first, so a paced stream is never held back by more than one event
//! hour), and at end of stream.
//!
//! Each shard has one owner thread, W = min(shards, host parallelism) of
//! them per run, thread `w` owning shards `w`, `w + W`, … and their
//! [`ShardState`]s outright. An owner pops and applies one chunk at a
//! time and hands the emptied buffer back; with its queues empty it
//! parks until a push into one of them, the end of the stream or an
//! abort. A hand-off that would overshoot the queue's capacity (in
//! readings) stalls the router — backpressure, counted per stall — until
//! the owner has drained the queue to half and woken it once. Nothing
//! polls or times out.
//!
//! # Why results don't depend on scheduling
//!
//! Where the chunks are cut is a function of the stream, the shard count
//! and the chunk length alone. Each queue is a FIFO of chunks, a chunk
//! keeps router order, and a shard's state is only ever touched by its
//! one owner, so every shard applies its readings in exactly the order
//! the router sent them — which is itself a pure function of the input
//! stream. Shard state is never shared across shards, and sealed
//! consumers are merged in consumer-id order. The scheduler decides only
//! *when* work happens, never *what* the result is.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use smda_core::Alert;
use smda_engines::pool::host_parallelism;
use smda_obs::counters;
use smda_types::{Error, Reading, Result, TemperatureSeries, HOURS_PER_YEAR};

use crate::config::IngestConfig;
use crate::shard::ShardState;
use crate::snapshot::Snapshot;
use crate::splitmix64;

/// Readings in a full chunk — what the router hands over, and an owner
/// applies, per queue-lock acquisition.
const DRAIN_BATCH: usize = 256;

/// Which shard a consumer's readings are routed to: a stateless hash of
/// the consumer id, so routing needs no directory and any number of
/// routers would agree.
fn shard_of(consumer: smda_types::ConsumerId, shards: usize) -> usize {
    (splitmix64(consumer.raw() as u64) % shards as u64) as usize
}

/// What one pipeline run did, as plain numbers (the same values are
/// pushed through the metrics sink as `ingest.*` counters).
#[derive(Debug, Clone, Default)]
pub struct IngestReport {
    /// Shards the readings were hash-routed across (not threads).
    pub shards: u64,
    /// Readings that reached a shard (including late/duplicate ones).
    pub readings_in: u64,
    /// Readings that arrived behind their shard's watermark.
    pub readings_late: u64,
    /// Readings whose `(consumer, hour)` slot was already filled.
    pub readings_duplicate: u64,
    /// Hours zero-filled at seal under `SkipAndCount`.
    pub readings_missing: u64,
    /// Readings rejected by the router (bad hour, non-finite values).
    pub readings_dirty: u64,
    /// Chunks the router handed to shard queues — a function of the
    /// stream, the shard count and the queue capacity alone, never of
    /// scheduling. Per-reading hand-off would make it `readings_in`.
    pub chunks_routed: u64,
    /// Hand-offs that blocked on a full shard queue (at most one per
    /// hand-off, however long it waited): at most one per
    /// `C − C/2 − 256 + 1` readings a shard is handed for a queue
    /// capacity `C` of 512 or more, see [`IngestConfig::queue_capacity`].
    pub backpressure_stalls: u64,
    /// Worst observed router-to-watermark lag, in event hours.
    pub watermark_lag_hours: u64,
    /// Consumers whose year was sealed.
    pub consumers_sealed: u64,
    /// WAL records replayed across all crash recoveries.
    pub wal_records_replayed: u64,
    /// Shard crashes injected by the fault plan.
    pub crashes_injected: u64,
    /// Shard crashes fully recovered by WAL replay.
    pub crashes_recovered: u64,
    /// Failed task attempts injected by the fault plan.
    pub failures_injected: u64,
}

/// Everything a finished pipeline run produced.
pub struct IngestOutcome {
    /// The sealed world, ready for the batch engines (and, when the
    /// config carries a publish handle, already live for serving).
    pub snapshot: Arc<Snapshot>,
    /// Epoch the snapshot was published at, when the config carries a
    /// [`SnapshotHandle`](crate::SnapshotHandle).
    pub published_epoch: Option<u64>,
    /// Counters describing the run.
    pub report: IngestReport,
    /// Anomaly alerts raised behind the watermark, in (consumer, hour)
    /// order.
    pub alerts: Vec<Alert>,
    /// Late/duplicate/dirty readings routed to the dead-letter sink
    /// (empty under `FailFast`, which errors instead).
    pub dead_letters: Vec<Reading>,
}

#[derive(Default)]
struct Queue {
    /// Chunks in router order; the owner pops one whole chunk at a time.
    chunks: VecDeque<Vec<Reading>>,
    /// Readings across `chunks` — what `queue_capacity` bounds.
    readings: usize,
    /// Emptied chunk buffers on their way back to the router.
    spare: Vec<Vec<Reading>>,
    /// Set by a stalled router: the level at or below which its chunk
    /// goes in. The owner's pop that drains the queue to it clears it
    /// and wakes the router — one wake per stall.
    resume_at: Option<usize>,
    closed: bool,
}

impl Queue {
    /// Pop the oldest chunk. The flag beside it is `true` when this pop
    /// drained the queue to the level a stalled router waits for; the
    /// caller then notifies `space`, after dropping the lock.
    fn pop(&mut self) -> Option<(Vec<Reading>, bool)> {
        let chunk = self.chunks.pop_front()?;
        self.readings -= chunk.len();
        let wake = self.resume_at.is_some_and(|at| self.readings <= at);
        if wake {
            self.resume_at = None;
        }
        Some((chunk, wake))
    }
}

#[derive(Default)]
struct ShardCell {
    queue: Mutex<Queue>,
    /// Readings the queue may hold (`IngestConfig::queue_capacity`).
    capacity: usize,
    /// Router waits here for queue space.
    space: Condvar,
    /// The thread that owns this shard, unparked by a push into its
    /// empty queue. Set by the owner before its first look at the queue.
    owner: OnceLock<Thread>,
}

impl ShardCell {
    fn new(capacity: usize) -> ShardCell {
        ShardCell {
            capacity,
            ..ShardCell::default()
        }
    }

    fn wake_owner(&self) {
        if let Some(owner) = self.owner.get() {
            owner.unpark();
        }
    }
}

#[derive(Default)]
struct Control {
    aborted: AtomicBool,
    /// Newest event hour the router has handed to a shard
    /// (watermark-lag gauge).
    routed_hour: AtomicU32,
}

/// Stop the run: every waiter is woken and sees the flag. A stalled
/// router checks it under its queue's lock, so taking each lock before
/// notifying means it is either seen or the notify finds the router
/// waiting; an owner's unpark token outlives a park that has not begun.
fn abort(cells: &[ShardCell], control: &Control) {
    control.aborted.store(true, Ordering::Release);
    for cell in cells {
        drop(lock(&cell.queue));
        cell.space.notify_all();
        cell.wake_owner();
    }
}

/// Shrug off mutex poisoning: an owner's panic aborts the run and
/// resurfaces from its `join`, and the queues stay consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Hand one chunk to a shard queue — one lock, at most one wake — when
/// it fits the queue's capacity. An empty queue admits any chunk, so a
/// chunk longer than the space a drained queue can ever offer cannot
/// wait forever. A chunk that does not fit stalls the router, counted
/// once, until the owner has drained the queue to half its capacity
/// (to empty, for a chunk longer than the other half) and woken it:
/// hysteresis, so the two trade the CPU once per half queue. A chunk
/// pushed into an empty queue unparks the owner. Returns the buffer to
/// fill next (one the owner has emptied, when there is one), or `None`
/// when the pipeline aborted mid-wait.
fn hand_off(
    cell: &ShardCell,
    control: &Control,
    chunk: Vec<Reading>,
    stalls: &mut u64,
) -> Option<Vec<Reading>> {
    let mut q = lock(&cell.queue);
    if q.readings > 0 && q.readings + chunk.len() > cell.capacity {
        *stalls += 1;
        let resume_at = (cell.capacity / 2).min(cell.capacity.saturating_sub(chunk.len()));
        q.resume_at = Some(resume_at);
        // Woken by the owner's pop that reaches `resume_at`, or by
        // `abort`.
        while q.readings > resume_at {
            if control.aborted.load(Ordering::Acquire) {
                return None;
            }
            q = cell
                .space
                .wait(q)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
    let was_empty = q.chunks.is_empty();
    q.readings += chunk.len();
    q.chunks.push_back(chunk);
    let next = q.spare.pop().unwrap_or_default();
    drop(q);
    if was_empty {
        cell.wake_owner();
    }
    Some(next)
}

/// The router's side of the hand-off: one pending chunk per shard,
/// handed over when it is full, when the routed event hour advances (so
/// a paced stream is never held back by more than one event hour), and
/// at end of stream. Which readings share a chunk is a function of the
/// stream, the shard count and the chunk length alone.
struct Router<'a> {
    cells: &'a [ShardCell],
    control: &'a Control,
    /// Readings per full chunk: [`DRAIN_BATCH`], or the whole queue when
    /// that is smaller, so the capacity bound holds exactly.
    chunk_len: usize,
    pending: Vec<Vec<Reading>>,
    /// Newest event hour routed, pending readings included.
    newest_hour: u32,
    stalls: u64,
    chunks: u64,
}

impl<'a> Router<'a> {
    fn new(cells: &'a [ShardCell], control: &'a Control, capacity: usize) -> Router<'a> {
        Router {
            cells,
            control,
            chunk_len: DRAIN_BATCH.min(capacity),
            pending: cells.iter().map(|_| Vec::new()).collect(),
            newest_hour: 0,
            stalls: 0,
            chunks: 0,
        }
    }

    /// Route one validated reading. `false` when the pipeline aborted.
    fn route(&mut self, r: Reading) -> bool {
        if r.hour > self.newest_hour {
            if !self.flush_all() {
                return false;
            }
            self.newest_hour = r.hour;
        }
        let shard = shard_of(r.consumer, self.cells.len());
        let pending = &mut self.pending[shard];
        pending.push(r);
        pending.len() < self.chunk_len || self.flush(shard)
    }

    /// Hand over every shard's pending chunk, in shard order.
    fn flush_all(&mut self) -> bool {
        (0..self.cells.len()).all(|shard| self.flush(shard))
    }

    fn flush(&mut self, shard: usize) -> bool {
        if self.pending[shard].is_empty() {
            return true;
        }
        // Ahead of the hand-off: the owner that pops this chunk must
        // not read a routed hour older than the chunk's own readings,
        // or the lag gauge would under-report.
        self.control
            .routed_hour
            .fetch_max(self.newest_hour, Ordering::Release);
        let chunk = std::mem::take(&mut self.pending[shard]);
        self.chunks += 1;
        let cell = &self.cells[shard];
        let Some(next) = hand_off(cell, self.control, chunk, &mut self.stalls) else {
            return false;
        };
        self.pending[shard] = next;
        true
    }
}

/// A shard's state, handed to its owner and back for the seal.
type Owned = Vec<(usize, ShardState)>;

/// One owner thread: drain each owned shard's queue chunk by chunk, then
/// park. Returns the states once every owned queue is closed and drained
/// or the run aborted, or a shard's error after aborting the run.
fn own(cells: &[ShardCell], control: &Control, mut owned: Owned) -> Result<Owned> {
    for (shard, _) in &owned {
        // Owner indices partition the shards, so each is set once.
        let _ = cells[*shard].owner.set(thread::current());
    }
    while !control.aborted.load(Ordering::Acquire) {
        let (mut idle, mut open) = (true, false);
        for (shard, state) in &mut owned {
            let cell = &cells[*shard];
            // The buffer of the chunk just applied, returned to the
            // router under the same lock that pops the next one.
            let mut emptied: Option<Vec<Reading>> = None;
            loop {
                let (mut chunk, wake) = {
                    let mut q = lock(&cell.queue);
                    q.spare.extend(emptied.take());
                    let Some(popped) = q.pop() else {
                        open |= !q.closed;
                        break;
                    };
                    popped
                };
                if wake {
                    cell.space.notify_all();
                }
                idle = false;
                let routed = control.routed_hour.load(Ordering::Acquire);
                if let Err(e) = state.process_batch(&chunk, routed) {
                    abort(cells, control);
                    return Err(e);
                }
                chunk.clear();
                emptied = Some(chunk);
            }
        }
        if !open {
            break;
        }
        // A sweep that applied nothing saw each queue empty under its
        // lock; a push since then left the token that ends this park.
        if idle {
            thread::park();
        }
    }
    Ok(owned)
}

/// Run the full pipeline over `events` and seal the result.
///
/// The calling thread is the router; the shards' owners are threads of
/// the run, min(shards, host parallelism) of them. Under
/// [`DirtyDataPolicy::FailFast`](smda_types::DirtyDataPolicy) the first
/// late, duplicate, dirty or missing reading is an error; under
/// `SkipAndCount` such readings are counted and dead-lettered and
/// missing hours are zero-filled at seal.
pub fn run_pipeline<I>(events: I, cfg: &IngestConfig) -> Result<IngestOutcome>
where
    I: IntoIterator<Item = Reading>,
{
    cfg.validate()?;
    let run_started = Instant::now();
    let owners = cfg.shards.min(host_parallelism());
    let mut owned: Vec<Owned> = (0..owners).map(|_| Vec::new()).collect();
    for shard in 0..cfg.shards {
        let state = ShardState::new(
            shard,
            cfg.allowed_lateness,
            cfg.policy,
            cfg.faults.clone(),
            cfg.detectors.clone(),
            cfg.wal_dir.as_deref(),
        )?;
        owned[shard % owners].push((shard, state));
    }
    let cells: Vec<ShardCell> = (0..cfg.shards)
        .map(|_| ShardCell::new(cfg.queue_capacity))
        .collect();
    let control = Control::default();
    let mut router = Router::new(&cells, &control, cfg.queue_capacity);

    let mut temps = vec![0.0f64; HOURS_PER_YEAR];
    let mut temp_seen = vec![false; HOURS_PER_YEAR];
    let mut dirty = 0u64;
    let mut router_dead: Vec<Reading> = Vec::new();
    let mut router_error: Option<Error> = None;
    let mut route_time = Duration::ZERO;

    let joined = thread::scope(|scope| {
        let (cells, control) = (&cells, &control);
        let handles = owned
            .into_iter()
            .enumerate()
            .map(|(w, shards)| {
                // An owner that unwinds aborts the run first, so no
                // router or other owner waits on it; `join` re-raises.
                let run = move || {
                    catch_unwind(AssertUnwindSafe(|| own(cells, control, shards))).unwrap_or_else(
                        |panic| {
                            abort(cells, control);
                            resume_unwind(panic)
                        },
                    )
                };
                thread::Builder::new()
                    .name(format!("smda-ingest-{w}"))
                    .spawn_scoped(scope, run)
            })
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|source| {
                abort(cells, control);
                Error::Io {
                    context: "spawning an ingest shard owner".into(),
                    source,
                }
            })?;

        let route_started = Instant::now();
        for r in events {
            let bad = !ShardState::valid_hour(r.hour)
                || !r.kwh.is_finite()
                || r.kwh < 0.0
                || !r.temperature.is_finite();
            if bad {
                dirty += 1;
                if cfg.policy.skips() {
                    router_dead.push(r);
                    continue;
                }
                router_error = Some(Error::Schema(format!(
                    "consumer {}: dirty reading (hour {}, kwh {}, temperature {})",
                    r.consumer, r.hour, r.kwh, r.temperature
                )));
                control.aborted.store(true, Ordering::Release);
                break;
            }
            let h = r.hour as usize;
            if !temp_seen[h] {
                temp_seen[h] = true;
                temps[h] = r.temperature;
            }
            if !router.route(r) {
                break;
            }
        }
        // End of stream: whatever is still pending goes out before the
        // queues close. (After an abort this returns without waiting.)
        router.flush_all();
        route_time = route_started.elapsed();
        for cell in cells {
            lock(&cell.queue).closed = true;
            cell.wake_owner();
        }
        // Join explicitly so an owner's panic surfaces as this scope's
        // panic rather than an opaque scope abort.
        Ok(handles
            .into_iter()
            .map(|handle| handle.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect::<Vec<_>>())
    })?;

    if let Some(e) = router_error {
        return Err(e);
    }
    let mut states = Vec::with_capacity(cfg.shards);
    for owned in joined {
        states.extend(owned?);
    }
    states.sort_by_key(|(shard, _)| *shard);

    // Seal: drain every shard in index order, then merge by consumer id.
    let seal_started = Instant::now();
    let mut report = IngestReport {
        shards: cfg.shards as u64,
        readings_dirty: dirty,
        backpressure_stalls: router.stalls,
        chunks_routed: router.chunks,
        ..IngestReport::default()
    };
    let mut sealed = Vec::new();
    let mut alerts: Vec<Alert> = Vec::new();
    let mut dead_letters = router_dead;
    let mut shard_busy = Duration::ZERO;
    for (_, mut state) in states {
        sealed.extend(state.seal(&mut report.readings_missing)?);
        alerts.extend(state.take_alerts());
        dead_letters.extend(state.take_dead_letters());
        report.readings_in += state.readings_in();
        report.readings_late += state.readings_late();
        report.readings_duplicate += state.readings_duplicate();
        report.watermark_lag_hours = report.watermark_lag_hours.max(state.max_lag_hours() as u64);
        report.wal_records_replayed += state.wal_records_replayed();
        report.crashes_injected += state.crashes_injected();
        report.crashes_recovered += state.crashes_recovered();
        report.failures_injected += state.failures_injected();
        shard_busy += state.busy_time();
    }
    sealed.sort_by_key(|s| s.id);
    alerts.sort_by_key(|a| (a.consumer, a.hour));
    report.consumers_sealed = sealed.len() as u64;

    if report.readings_in > 0 {
        if let Some(h) = temp_seen.iter().position(|&seen| !seen) {
            if !cfg.policy.skips() {
                return Err(Error::Schema(format!(
                    "no reading ever reported a temperature for hour {h}"
                )));
            }
            // SkipAndCount: hours nobody reported keep the 0.0 fill.
        }
    }
    let snapshot = Arc::new(Snapshot::from_sealed(
        sealed,
        TemperatureSeries::new(temps)?,
    )?);
    // Epoch swap: the sealed world goes live for online queries before
    // the batch hand-off, so `smda serve` can attach to a replay.
    let published_epoch = cfg.publish.as_ref().map(|handle| {
        handle.publish(
            snapshot.clone(),
            control.routed_hour.load(Ordering::Acquire),
            Arc::new(alerts.clone()),
        )
    });
    let seal_time = seal_started.elapsed();

    let (m, r) = (&cfg.metrics, &report);
    for (counter, value) in [
        (counters::INGEST_READINGS_IN, r.readings_in),
        (counters::INGEST_READINGS_LATE, r.readings_late),
        (counters::INGEST_READINGS_DUPLICATE, r.readings_duplicate),
        (counters::INGEST_READINGS_MISSING, r.readings_missing),
        (counters::INGEST_READINGS_DIRTY, r.readings_dirty),
        (counters::INGEST_CHUNKS_ROUTED, r.chunks_routed),
        (counters::INGEST_BACKPRESSURE_STALLS, r.backpressure_stalls),
        (counters::INGEST_WATERMARK_LAG_HOURS, r.watermark_lag_hours),
        (counters::INGEST_CONSUMERS_SEALED, r.consumers_sealed),
        (counters::INGEST_ALERTS, alerts.len() as u64),
        (
            counters::INGEST_WAL_RECORDS_REPLAYED,
            r.wal_records_replayed,
        ),
        (counters::FAULTS_INJECTED_NODE_CRASH, r.crashes_injected),
        (counters::FAULTS_RECOVERED_NODE_CRASH, r.crashes_recovered),
        (counters::FAULTS_INJECTED_TASK_FAILURE, r.failures_injected),
    ] {
        m.incr(counter, value);
    }
    m.add_phase(&["ingest"], run_started.elapsed());
    m.add_phase(&["ingest", "route"], route_time);
    m.add_phase(&["ingest", "shard"], shard_busy);
    m.add_phase(&["ingest", "seal"], seal_time);

    Ok(IngestOutcome {
        snapshot,
        published_epoch,
        report,
        alerts,
        dead_letters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{replay_events, ReplayConfig};
    use smda_types::{ConsumerId, ConsumerSeries, Dataset, DirtyDataPolicy};

    fn tiny_dataset(n: u32) -> Dataset {
        let consumers = (0..n)
            .map(|i| {
                ConsumerSeries::new(
                    ConsumerId(i * 5 + 1),
                    (0..HOURS_PER_YEAR)
                        .map(|h| 0.1 + ((h as u32 + i * 31) % 50) as f64 * 0.07)
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        let temps =
            TemperatureSeries::new((0..HOURS_PER_YEAR).map(|h| (h % 30) as f64).collect()).unwrap();
        Dataset::new(consumers, temps).unwrap()
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 8] {
            for id in 0..100u32 {
                let s = shard_of(ConsumerId(id), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(ConsumerId(id), shards));
            }
        }
    }

    #[test]
    fn pipeline_rebuilds_the_dataset_exactly() {
        let ds = tiny_dataset(6);
        let events = replay_events(&ds, &ReplayConfig::default());
        for shards in [1usize, 3] {
            let cfg = IngestConfig::new().with_shards(shards);
            let out = run_pipeline(events.clone(), &cfg).unwrap();
            assert_eq!(out.report.readings_in, 6 * HOURS_PER_YEAR as u64);
            assert_eq!(out.report.readings_late, 0);
            assert_eq!(out.report.consumers_sealed, 6);
            assert!(out.dead_letters.is_empty());
            let sealed = out.snapshot.dataset();
            assert_eq!(sealed.consumers(), ds.consumers());
            assert_eq!(sealed.temperature().values(), ds.temperature().values());
        }
    }

    #[test]
    fn dirty_readings_follow_the_policy() {
        let ds = tiny_dataset(2);
        let mut events = replay_events(
            &ds,
            &ReplayConfig {
                jitter_hours: 0,
                seed: 1,
            },
        );
        events.insert(
            100,
            Reading {
                consumer: ConsumerId(1),
                hour: 0,
                temperature: 5.0,
                kwh: f64::NAN,
            },
        );
        let cfg = IngestConfig::new().with_shards(2);
        assert!(run_pipeline(events.clone(), &cfg).is_err());

        let cfg = cfg.with_policy(DirtyDataPolicy::SkipAndCount);
        let out = run_pipeline(events, &cfg).unwrap();
        assert_eq!(out.report.readings_dirty, 1);
        assert_eq!(out.dead_letters.len(), 1);
        assert_eq!(out.report.consumers_sealed, 2);
    }

    fn reading(consumer: u32, hour: u32) -> Reading {
        Reading {
            consumer: ConsumerId(consumer),
            hour,
            temperature: 0.0,
            kwh: consumer as f64,
        }
    }

    fn queued(cell: &ShardCell) -> Vec<Reading> {
        let q = lock(&cell.queue);
        let flat: Vec<Reading> = q.chunks.iter().flatten().copied().collect();
        assert_eq!(
            flat.len(),
            q.readings,
            "the running count tracks the chunks"
        );
        flat
    }

    #[test]
    fn full_queue_counts_a_stall_then_delivers() {
        // (capacity, readings already queued, chunk handed off): capacity
        // 1, and a capacity below the chunk length that the chunk would
        // overshoot. Either way the hand-off must stall exactly once,
        // then be admitted by the drained — empty — queue.
        for (capacity, held, chunk) in [(1usize, 1u32, 1u32), (7, 5, 3)] {
            let cell = ShardCell::new(capacity);
            let control = Control::default();
            {
                let mut q = lock(&cell.queue);
                q.chunks
                    .push_back((0..held).map(|h| reading(1, h)).collect());
                q.readings = held as usize;
            }
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    std::thread::sleep(Duration::from_millis(20));
                    let mut q = lock(&cell.queue);
                    let popped = q.chunks.pop_front().unwrap();
                    q.readings -= popped.len();
                    drop(q);
                    cell.space.notify_all();
                });
                let mut stalls = 0;
                let next = hand_off(
                    &cell,
                    &control,
                    (0..chunk).map(|h| reading(2, h)).collect(),
                    &mut stalls,
                );
                assert!(next.is_some(), "capacity {capacity}: delivered");
                assert_eq!(stalls, 1, "capacity {capacity}");
            });
            let left = queued(&cell);
            assert_eq!(left.len(), chunk as usize, "capacity {capacity}");
            assert!(left.iter().all(|r| r.consumer == ConsumerId(2)));
        }
    }

    #[test]
    fn a_stalled_router_resumes_at_half_capacity_after_one_wake() {
        // A full queue of short chunks; the router's chunk is as long as
        // the router ever cuts one. A helper plays the worker one pop at
        // a time, through the worker's own `Queue::pop`, and notes the
        // level each pop leaves; the router's chunk showing up in the
        // queue tells it the hand-off went through at the level its
        // previous pop left.
        for capacity in [1usize, 7, 512, 4096] {
            let cell = ShardCell::new(capacity);
            let control = Control::default();
            let step = (capacity / 8).max(1);
            {
                let mut q = lock(&cell.queue);
                for start in (0..capacity).step_by(step) {
                    let len = step.min(capacity - start);
                    q.chunks
                        .push_back((0..len as u32).map(|h| reading(1, h)).collect());
                    q.readings += len;
                }
            }
            let chunk_len = DRAIN_BATCH.min(capacity);
            let (released_at, wakes) = std::thread::scope(|scope| {
                let worker = scope.spawn(|| {
                    let (mut level, mut wakes) = (capacity, 0);
                    loop {
                        let wake = {
                            let mut q = lock(&cell.queue);
                            if q.chunks
                                .back()
                                .is_some_and(|c| c[0].consumer == ConsumerId(2))
                            {
                                return (level, wakes);
                            }
                            // Pop once the router has stalled, a chunk a
                            // millisecond, so it can go on between pops.
                            let stalled = q.resume_at.is_some() || wakes > 0;
                            match stalled.then(|| q.pop()).flatten() {
                                Some((_, wake)) => {
                                    level = q.readings;
                                    wake
                                }
                                None => false,
                            }
                        };
                        if wake {
                            wakes += 1;
                            cell.space.notify_all();
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                });
                let mut stalls = 0;
                let chunk = (0..chunk_len as u32).map(|h| reading(2, h)).collect();
                assert!(hand_off(&cell, &control, chunk, &mut stalls).is_some());
                assert_eq!(stalls, 1, "capacity {capacity}");
                worker.join().unwrap()
            });
            assert!(
                released_at <= capacity / 2 && released_at + chunk_len <= capacity,
                "capacity {capacity}: the router went on at {released_at} readings"
            );
            assert_eq!(wakes, 1, "capacity {capacity}: one wake per stall");
            assert_eq!(lock(&cell.queue).resume_at, None);
        }
    }

    #[test]
    fn an_empty_queue_admits_a_chunk_longer_than_its_capacity() {
        // Not a state the router produces (its chunks are capped at the
        // capacity), but the rule that makes capacity 1 deadlock-free.
        let cell = ShardCell::new(1);
        let mut stalls = 0;
        let chunk = (0..5).map(|h| reading(1, h)).collect();
        assert!(hand_off(&cell, &Control::default(), chunk, &mut stalls).is_some());
        assert_eq!(stalls, 0);
        assert_eq!(queued(&cell).len(), 5);
    }

    #[test]
    fn a_newer_hour_hands_over_every_earlier_reading() {
        let cfg = IngestConfig::new().with_shards(3);
        let cells: Vec<ShardCell> = (0..3).map(|_| ShardCell::new(cfg.queue_capacity)).collect();
        let control = Control::default();
        let mut router = Router::new(&cells, &control, cfg.queue_capacity);
        let hour4: Vec<Reading> = (1..=10).map(|c| reading(c, 4)).collect();
        for r in &hour4 {
            assert!(router.route(*r));
        }
        // Fewer than a chunk per shard and no newer hour yet: held.
        assert!(cells.iter().all(|cell| queued(cell).is_empty()));
        assert_eq!(router.chunks, 0);

        // The first reading of a newer hour — what a paced stream
        // delivers after its sleep — pushes everything before it out.
        assert!(router.route(reading(1, 5)));
        for (shard, cell) in cells.iter().enumerate() {
            let want: Vec<Reading> = hour4
                .iter()
                .copied()
                .filter(|r| shard_of(r.consumer, 3) == shard)
                .collect();
            assert_eq!(queued(cell), want, "shard {shard}: router order kept");
        }
        let pending: Vec<Reading> = router.pending.iter().flatten().copied().collect();
        assert_eq!(pending, [reading(1, 5)], "only the newer reading is held");
        // The gauge covers what was handed over, not what is still held.
        assert_eq!(control.routed_hour.load(Ordering::Acquire), 4);
        let occupied = cells.iter().filter(|c| !queued(c).is_empty()).count();
        assert_eq!(router.chunks, occupied as u64);
    }

    #[test]
    fn a_stream_that_ends_mid_chunk_seals_complete() {
        // One hour, so only full chunks and the end-of-stream flush hand
        // anything over; four consumers, so all but four readings are
        // duplicates and the run stays cheap.
        let n = DRAIN_BATCH as u32 + 4;
        let events: Vec<Reading> = (0..n).map(|i| reading(i % 4 + 1, 0)).collect();
        for (capacity, chunks) in [(4096usize, 2u64), (7, 38), (1, n as u64)] {
            let cfg = IngestConfig {
                queue_capacity: capacity,
                ..IngestConfig::new()
                    .with_shards(1)
                    .with_policy(DirtyDataPolicy::SkipAndCount)
            };
            let out = run_pipeline(events.clone(), &cfg).unwrap();
            assert_eq!(out.report.readings_in, n as u64, "capacity {capacity}");
            assert_eq!(out.report.readings_duplicate, n as u64 - 4);
            assert_eq!(out.dead_letters, events[4..], "capacity {capacity}");
            assert_eq!(out.report.chunks_routed, chunks, "capacity {capacity}");
        }
    }

    #[test]
    fn empty_stream_seals_an_empty_snapshot() {
        let out = run_pipeline(Vec::new(), &IngestConfig::new()).unwrap();
        assert_eq!(out.report.readings_in, 0);
        assert_eq!(out.report.consumers_sealed, 0);
        assert!(out.snapshot.dataset().consumers().is_empty());
    }
}
