//! Real multi-process execution: live workers, socket shuffle,
//! SIGKILL fault injection, and WAL-backed recovery.
//!
//! [`RealCluster`] forks N copies of the `smda` binary in worker mode,
//! drives the same map/shuffle/reduce phase plan the virtual scheduler
//! models over them, and spills every checksum-validated shuffle
//! partition through a [`FrameLog`] write-ahead log before the reduce
//! phase replays it. A worker killed mid-phase — by a [`FaultPlan`]
//! crash delivered as an actual SIGKILL, or by anything else — is
//! detected by heartbeat loss or an in-flight RPC failure; its tasks
//! are re-queued onto survivors and its partitions come back from the
//! WAL: zero lost, zero duplicated, enforced by a typed ledger check
//! at replay time.
//!
//! The deterministic twin stays in-tree beside it:
//! [`run_virtual_twin`] pushes the identical decomposition through the
//! identical pure executors in-process, so the two sides agree bit for
//! bit ([`task_output_bits_eq`]) on every task output.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io::BufRead as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use smda_core::tasks::collect_consumer_results;
use smda_core::{consumer_matches, Task, TaskOutput, SIMILARITY_TOP_K};
use smda_obs::{counters, MetricsSink};
use smda_stats::{merge_partials, TileConfig};
use smda_storage::wal::{replay_frames, FrameLog};
use smda_types::{BitEq, Dataset, Error, Result};

use crate::faults::FaultPlan;
use crate::transport::{put_bytes, put_u32, Endpoint, TransportConfig, WireCursor};
use crate::worker::{
    decode_partial, decode_results, execute_map, execute_merge, execute_similarity_partial,
    Request, Response, LISTENING_PREFIX,
};

/// Configuration for a real multi-process run.
#[derive(Debug, Clone, PartialEq)]
pub struct RealClusterConfig {
    /// Worker processes to fork.
    pub workers: usize,
    /// Consumers per map task.
    pub map_chunk: usize,
    /// Shuffle partitions (and reduce tasks).
    pub reduce_tasks: usize,
    /// Socket timeouts, retry budget, heartbeat cadence.
    pub transport: TransportConfig,
    /// Crash schedule: each [`crate::faults::NodeCrash`] is delivered
    /// as an actual SIGKILL to the worker process, at the first task
    /// handed to the victim after the job clock passes `at` and the
    /// victim has completed at least one task — so the kill lands
    /// mid-phase with that task in flight, however short tasks are.
    pub fault_plan: Option<FaultPlan>,
    /// Directory for shuffle-partition WALs; a per-run temp directory
    /// (removed on drop) when `None`.
    pub wal_dir: Option<PathBuf>,
}

impl Default for RealClusterConfig {
    fn default() -> Self {
        RealClusterConfig {
            workers: 4,
            map_chunk: 8,
            reduce_tasks: 8,
            transport: TransportConfig::default(),
            fault_plan: None,
            wal_dir: None,
        }
    }
}

/// Outcome of one real-transport task run.
#[derive(Debug, Clone)]
pub struct RealRunReport {
    /// The task output — bit-identical to the virtual twin's.
    pub output: TaskOutput,
    /// Real wall-clock of the run.
    pub elapsed: Duration,
    /// Map tasks dispatched (similarity: 0).
    pub map_tasks: usize,
    /// Reduce tasks dispatched (similarity: partition count).
    pub reduce_tasks: usize,
    /// Shuffle-partition records spilled to the WAL.
    pub partitions_spilled: u64,
    /// Shuffle-partition records replayed from the WAL.
    pub partitions_replayed: u64,
    /// Workers still alive after the run.
    pub live_workers: usize,
}

/// Locate the `smda` binary to re-exec as a worker: the
/// `SMDA_WORKER_BIN` override, the current executable when it *is*
/// `smda`, a sibling of the running (test) binary, or the workspace
/// target directory as a last resort.
fn worker_binary() -> Result<PathBuf> {
    if let Ok(path) = std::env::var("SMDA_WORKER_BIN") {
        return Ok(PathBuf::from(path));
    }
    let exe =
        std::env::current_exe().map_err(|e| Error::io("locating the current executable", e))?;
    if exe.file_stem().is_some_and(|s| s == "smda") {
        return Ok(exe);
    }
    if let Some(mut dir) = exe.parent().map(Path::to_path_buf) {
        if dir.ends_with("deps") {
            dir.pop();
        }
        let sibling = dir.join("smda");
        if sibling.is_file() {
            return Ok(sibling);
        }
    }
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for profile in ["debug", "release"] {
        let candidate = workspace.join("target").join(profile).join("smda");
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(Error::Invalid(
        "cannot locate the `smda` worker binary; build it (`cargo build -p smda-cli`) \
         or set SMDA_WORKER_BIN"
            .into(),
    ))
}

/// Everything the coordinator knows about one worker process. The
/// record owns the process: dropping it kills and reaps the worker.
struct WorkerHandle {
    index: usize,
    endpoint: Endpoint,
    child: Mutex<Child>,
    alive: AtomicBool,
    /// Tasks this worker has completed.
    completed: AtomicU64,
    /// When the fault plan crashes this worker, from job start.
    crash_at: Option<Duration>,
}

impl WorkerHandle {
    fn alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Whether the scheduled crash strikes at a hand-off at job clock
    /// `clock`: past the crash time, and the worker has completed a task
    /// — so the kill lands with the handed-off task in flight, however
    /// short tasks are.
    fn crash_due(&self, clock: Duration) -> bool {
        self.crash_at.is_some_and(|at| clock >= at) && self.completed.load(Ordering::SeqCst) > 0
    }

    /// Mark the worker dead and make sure the process really is.
    /// Returns `true` only for the caller that performed the
    /// transition, so a death is counted exactly once.
    fn declare_dead(&self) -> bool {
        let first = self.alive.swap(false, Ordering::SeqCst);
        let mut child = self.child.lock();
        let _ = child.kill();
        let _ = child.wait();
        first
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        let child = self.child.get_mut();
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Each worker's crash time: the earliest `at` of the plan's crashes
/// naming it. A crash naming a node the cluster does not have is
/// ignored.
fn crash_times(plan: Option<&FaultPlan>, workers: usize) -> Vec<Option<Duration>> {
    let mut times = vec![None; workers];
    for crash in plan.into_iter().flat_map(|p| &p.crashes) {
        if let Some(slot) = times.get_mut(crash.node) {
            *slot = Some(slot.map_or(crash.at, |t: Duration| t.min(crash.at)));
        }
    }
    times
}

fn await_listening(child: &mut Child, deadline: Duration) -> Result<SocketAddr> {
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| Error::Invalid("worker child has no captured stdout".into()))?;
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut reader = std::io::BufReader::new(stdout);
        let mut line = String::new();
        let outcome = match reader.read_line(&mut line) {
            Ok(0) => Err("worker exited before announcing its address".to_string()),
            Ok(_) => line
                .trim()
                .strip_prefix(LISTENING_PREFIX)
                .ok_or_else(|| format!("unexpected worker announcement: {}", line.trim()))
                .and_then(|addr| {
                    addr.parse::<SocketAddr>()
                        .map_err(|e| format!("unparsable worker address `{addr}`: {e}"))
                }),
            Err(e) => Err(format!("reading worker announcement: {e}")),
        };
        let _ = tx.send(outcome);
        // Keep draining stdout so the worker never blocks on a full pipe.
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    // Timed wait: the announcement deadline, so a worker that hangs
    // before it binds fails the spawn instead of stalling it.
    match rx.recv_timeout(deadline) {
        Ok(Ok(addr)) => Ok(addr),
        Ok(Err(msg)) => Err(Error::Invalid(msg)),
        Err(_) => Err(Error::Invalid(format!(
            "worker did not announce its address within {deadline:?}"
        ))),
    }
}

/// A live multi-process cluster: N forked `smda` workers, one record
/// each, and a heartbeat monitor per worker.
pub struct RealCluster {
    config: RealClusterConfig,
    metrics: MetricsSink,
    workers: Vec<Arc<WorkerHandle>>,
    started: Instant,
    wal_dir: PathBuf,
    own_wal_dir: bool,
    stop: Arc<AtomicBool>,
    heartbeats: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl RealCluster {
    /// Fork `config.workers` worker processes and start the heartbeat
    /// monitors. On an error, the workers already forked are killed.
    pub fn spawn(config: RealClusterConfig, metrics: MetricsSink) -> Result<RealCluster> {
        if config.workers == 0 {
            return Err(Error::Invalid(
                "a real cluster needs at least 1 worker".into(),
            ));
        }
        if config.reduce_tasks == 0 || config.map_chunk == 0 {
            return Err(Error::Invalid(
                "map_chunk and reduce_tasks must be at least 1".into(),
            ));
        }
        let binary = worker_binary()?;
        let crash_at = crash_times(config.fault_plan.as_ref(), config.workers);
        let mut workers = Vec::with_capacity(config.workers);
        for (index, crash_at) in crash_at.into_iter().enumerate() {
            let mut child = Command::new(&binary)
                .arg("worker")
                .arg("--bind")
                .arg("127.0.0.1:0")
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .stdin(Stdio::null())
                .spawn()
                .map_err(|e| {
                    Error::io(
                        format!("forking worker {index} from {}", binary.display()),
                        e,
                    )
                })?;
            let addr = match await_listening(&mut child, Duration::from_secs(10)) {
                Ok(addr) => addr,
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(e);
                }
            };
            metrics.incr(counters::REAL_WORKERS_SPAWNED, 1);
            workers.push(Arc::new(WorkerHandle {
                index,
                endpoint: Endpoint::new(addr, config.transport, metrics.clone()),
                child: Mutex::new(child),
                alive: AtomicBool::new(true),
                completed: AtomicU64::new(0),
                crash_at,
            }));
        }
        let (wal_dir, own_wal_dir) = match &config.wal_dir {
            Some(dir) => (dir.clone(), false),
            None => {
                let nanos = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos())
                    .unwrap_or(0);
                (
                    std::env::temp_dir()
                        .join(format!("smda-real-{}-{nanos:x}", std::process::id())),
                    true,
                )
            }
        };
        std::fs::create_dir_all(&wal_dir)
            .map_err(|e| Error::io(format!("creating WAL directory {}", wal_dir.display()), e))?;
        let cluster = RealCluster {
            config,
            metrics,
            workers,
            started: Instant::now(),
            wal_dir,
            own_wal_dir,
            stop: Arc::new(AtomicBool::new(false)),
            heartbeats: Mutex::new(Vec::new()),
        };
        cluster.start_heartbeats();
        Ok(cluster)
    }

    /// Workers currently believed alive.
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.alive()).count()
    }

    fn start_heartbeats(&self) {
        let ping = Request::Ping.encode();
        for worker in &self.workers {
            let worker = Arc::clone(worker);
            let stop = Arc::clone(&self.stop);
            let metrics = self.metrics.clone();
            let interval = self.config.transport.heartbeat_interval;
            let budget = self.config.transport.heartbeat_misses.max(1);
            let ping = ping.clone();
            let handle = std::thread::spawn(move || {
                let mut misses = 0u32;
                while !stop.load(Ordering::SeqCst) && worker.alive() {
                    // Timed wait: the heartbeat cadence.
                    std::thread::sleep(interval);
                    if stop.load(Ordering::SeqCst) || !worker.alive() {
                        break;
                    }
                    match worker.endpoint.probe(&ping) {
                        Ok(_) => misses = 0,
                        Err(_) => {
                            misses += 1;
                            if misses >= budget && worker.declare_dead() {
                                metrics.incr(counters::TRANSPORT_HEARTBEAT_LOSSES, 1);
                            }
                        }
                    }
                }
            });
            self.heartbeats.lock().push(handle);
        }
    }

    /// Run one phase of `items` over the live workers: a shared work
    /// queue, one dispatcher per worker, re-queue on worker death, and
    /// exactly-once completion (`on_complete` runs under the phase
    /// lock, once per item, before the item counts as done). A worker
    /// whose crash is due when it is handed a task is SIGKILLed then,
    /// with that task in flight.
    fn run_queue<T: Sync>(
        &self,
        items: &[T],
        make_request: impl Fn(&T) -> Request + Sync,
        on_complete: impl FnMut(usize, &Response) -> Result<()> + Send,
    ) -> Result<BTreeMap<usize, Response>> {
        /// A phase's state, behind one lock. An item is queued (with
        /// whether it is being recovered from a crash), in flight, or
        /// in `results`.
        struct Phase<C> {
            queue: VecDeque<(usize, bool)>,
            results: BTreeMap<usize, Response>,
            on_complete: C,
            error: Option<Error>,
        }
        let total = items.len();
        let phase = Mutex::new(Phase {
            queue: (0..total).map(|i| (i, false)).collect(),
            results: BTreeMap::new(),
            on_complete,
            error: None,
        });
        // The stub `parking_lot::Mutex` hands out std guards, so std's
        // condvar pairs with it directly. A dispatcher waits only while
        // the queue is empty and items are in flight, and every way an
        // in-flight item ends that can release it — a requeue, the last
        // completion, an error — calls `notify_all` under the lock, so
        // the wait needs no timeout. A waiter whose worker the heartbeat
        // declares dead leaves at the next of those.
        let cv = std::sync::Condvar::new();
        std::thread::scope(|scope| {
            for worker in &self.workers {
                let (phase, cv, make_request) = (&phase, &cv, &make_request);
                scope.spawn(move || loop {
                    let entry = {
                        let mut state = phase.lock();
                        loop {
                            if state.results.len() == total
                                || state.error.is_some()
                                || !worker.alive()
                            {
                                break None;
                            }
                            if let Some(e) = state.queue.pop_front() {
                                break Some(e);
                            }
                            state = cv
                                .wait(state)
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                        }
                    };
                    let Some((index, was_crashed)) = entry else {
                        return;
                    };
                    self.metrics.incr(counters::TASKS_SCHEDULED, 1);
                    if worker.crash_due(self.started.elapsed()) && worker.declare_dead() {
                        // The scheduled crash strikes now, this task in
                        // the victim's hands: the call below finds the
                        // process gone and the task is recovered on a
                        // survivor.
                        self.metrics.incr(counters::FAULTS_INJECTED_NODE_CRASH, 1);
                    }
                    let request = make_request(&items[index]).encode();
                    match worker
                        .endpoint
                        .call(&request)
                        .and_then(|bytes| Response::decode(&bytes))
                    {
                        Ok(Response::Err(msg)) => {
                            let mut state = phase.lock();
                            state.error.get_or_insert(Error::Invalid(format!(
                                "worker {}: {msg}",
                                worker.index
                            )));
                            cv.notify_all();
                            return;
                        }
                        Ok(response) => {
                            let mut state = phase.lock();
                            let state = &mut *state;
                            if state.results.contains_key(&index) {
                                continue;
                            }
                            if let Err(e) = (state.on_complete)(index, &response) {
                                state.error.get_or_insert(e);
                                cv.notify_all();
                                return;
                            }
                            state.results.insert(index, response);
                            worker.completed.fetch_add(1, Ordering::SeqCst);
                            if was_crashed {
                                self.metrics.incr(counters::FAULTS_RECOVERED_NODE_CRASH, 1);
                            }
                            if state.results.len() == total {
                                cv.notify_all();
                            }
                        }
                        Err(_transport) => {
                            // The worker is unreachable after retries:
                            // treat it as dead and give its task to a
                            // survivor, flagged as crash recovery.
                            worker.declare_dead();
                            let mut state = phase.lock();
                            state.queue.push_back((index, true));
                            if self.live_workers() == 0 {
                                state.error.get_or_insert(Error::NoHealthyNodes);
                            }
                            cv.notify_all();
                            return;
                        }
                    }
                });
            }
        });
        let phase = phase.into_inner();
        if let Some(e) = phase.error {
            return Err(e);
        }
        if phase.results.len() < total {
            // Every dispatcher exited with work pending: no healthy
            // node is left to run it. Graceful degradation has a floor.
            return Err(Error::NoHealthyNodes);
        }
        Ok(phase.results)
    }

    fn partition_log_path(&self, task: Task, partition: u32) -> PathBuf {
        self.wal_dir
            .join(format!("{}-part-{partition}.flog", task.name()))
    }

    /// Run one task end to end over the live cluster.
    pub fn run_task(&self, task: Task, ds: &Dataset) -> Result<RealRunReport> {
        let run_started = Instant::now();
        let (output, map_tasks, reduce_tasks, spilled, replayed) = match task {
            Task::Similarity => self.run_similarity(ds)?,
            _ => self.run_per_consumer(task, ds)?,
        };
        Ok(RealRunReport {
            output,
            elapsed: run_started.elapsed(),
            map_tasks,
            reduce_tasks,
            partitions_spilled: spilled,
            partitions_replayed: replayed,
            live_workers: self.live_workers(),
        })
    }

    #[allow(clippy::type_complexity)]
    fn run_per_consumer(
        &self,
        task: Task,
        ds: &Dataset,
    ) -> Result<(TaskOutput, usize, usize, u64, u64)> {
        let temps = ds.temperature().values().to_vec();
        let chunks: Vec<Vec<(u32, Vec<f64>)>> = ds
            .consumers()
            .chunks(self.config.map_chunk)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|c| (c.id.raw(), c.readings().to_vec()))
                    .collect()
            })
            .collect();
        let reduce_parts = self.config.reduce_tasks as u32;

        // Map phase: run chunks on live workers, spill every validated
        // partition to the per-partition WAL under the completion lock
        // (exactly once per map task — a killed worker's abandoned RPC
        // spills nothing).
        let mut logs: BTreeMap<u32, FrameLog> = BTreeMap::new();
        let mut spilled_ledger: BTreeMap<u32, HashSet<u32>> = BTreeMap::new();
        let mut spilled = 0u64;
        {
            let logs = &mut logs;
            let ledger = &mut spilled_ledger;
            let spilled = &mut spilled;
            let metrics = &self.metrics;
            self.run_queue(
                &chunks,
                |chunk| Request::MapConsumers {
                    task,
                    reduce_parts,
                    temps: temps.clone(),
                    chunk: chunk.clone(),
                },
                |map_index, response| {
                    let Response::MapOut(partitions) = response else {
                        return Err(Error::Invalid(format!(
                            "map task {map_index} returned a non-map response"
                        )));
                    };
                    for (partition, payload) in partitions {
                        let log = match logs.entry(*partition) {
                            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                            std::collections::btree_map::Entry::Vacant(e) => e.insert(
                                FrameLog::create(self.partition_log_path(task, *partition))?,
                            ),
                        };
                        let mut record = Vec::with_capacity(payload.len() + 8);
                        put_u32(&mut record, map_index as u32);
                        put_bytes(&mut record, payload);
                        log.append(&record)?;
                        log.flush()?;
                        if !ledger
                            .entry(*partition)
                            .or_default()
                            .insert(map_index as u32)
                        {
                            return Err(Error::Invalid(format!(
                                "map task {map_index} spilled partition {partition} twice"
                            )));
                        }
                        *spilled += 1;
                        metrics.incr(counters::REAL_PARTITIONS_SPILLED, 1);
                        metrics.incr(counters::BYTES_SHUFFLED, payload.len() as u64);
                    }
                    Ok(())
                },
            )?;
        }
        drop(logs); // close the spill files before replay

        // Replay the WAL into reduce inputs, checking the ledger:
        // every spilled (map task, partition) record must come back
        // exactly once — zero lost, zero duplicated.
        let mut reduce_inputs: Vec<(u32, Vec<Vec<u8>>)> = Vec::new();
        let mut replayed = 0u64;
        for (&partition, expected) in &spilled_ledger {
            let records = replay_frames(&self.partition_log_path(task, partition))?;
            let mut by_map: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
            for record in &records {
                let mut c = WireCursor::new(record, "shuffle spill record");
                let map_index = c.u32("map task")?;
                let payload = c.bytes("partition payload")?.to_vec();
                c.finish()?;
                if by_map.insert(map_index, payload).is_some() {
                    return Err(Error::Invalid(format!(
                        "partition {partition} replayed map task {map_index} twice"
                    )));
                }
            }
            let got: HashSet<u32> = by_map.keys().copied().collect();
            if &got != expected {
                return Err(Error::Invalid(format!(
                    "partition {partition} lost {} spilled record(s) in replay",
                    expected.len().saturating_sub(got.len())
                )));
            }
            replayed += by_map.len() as u64;
            self.metrics
                .incr(counters::REAL_PARTITIONS_REPLAYED, by_map.len() as u64);
            reduce_inputs.push((partition, by_map.into_values().collect()));
        }

        // Reduce phase: merge each partition's replayed payloads on a
        // live worker (decode → sort by consumer → re-encode).
        let merged = self.run_queue(
            &reduce_inputs,
            |(_, payloads)| Request::MergeConsumers {
                task,
                payloads: payloads.clone(),
            },
            |_, _| Ok(()),
        )?;
        let mut all = Vec::new();
        for (slot, response) in &merged {
            let Response::Merged(payload) = response else {
                return Err(Error::Invalid(format!(
                    "reduce task {slot} returned a non-merge response"
                )));
            };
            all.extend(decode_results(payload)?);
        }
        let map_tasks = chunks.len();
        let reduce_tasks = reduce_inputs.len();
        Ok((
            collect_consumer_results(task, all),
            map_tasks,
            reduce_tasks,
            spilled,
            replayed,
        ))
    }

    #[allow(clippy::type_complexity)]
    fn run_similarity(&self, ds: &Dataset) -> Result<(TaskOutput, usize, usize, u64, u64)> {
        let (ids, rows) = similarity_rows(ds);
        let tiles = TileConfig::default().tile_rows(rows.len()).max(1);
        let parts = self.config.reduce_tasks.min(tiles) as u32;
        let items: Vec<u32> = (0..parts).collect();

        // One distributed phase: each partition scores its stripe of
        // tile rows over the full shipped matrix, and the validated
        // partial spills to that partition's WAL.
        let mut spilled = 0u64;
        {
            let spilled = &mut spilled;
            let metrics = &self.metrics;
            self.run_queue(
                &items,
                |&part| Request::SimilarityPartial {
                    k: SIMILARITY_TOP_K as u32,
                    parts,
                    part,
                    rows: rows.clone(),
                },
                |index, response| {
                    let Response::Partial(payload) = response else {
                        return Err(Error::Invalid(format!(
                            "similarity task {index} returned a non-partial response"
                        )));
                    };
                    let mut log =
                        FrameLog::create(self.partition_log_path(Task::Similarity, index as u32))?;
                    log.append(payload)?;
                    log.flush()?;
                    *spilled += 1;
                    metrics.incr(counters::REAL_PARTITIONS_SPILLED, 1);
                    metrics.incr(counters::BYTES_SHUFFLED, payload.len() as u64);
                    Ok(())
                },
            )?;
        }

        // Replay every partial from the WAL and merge exactly.
        let mut partials = Vec::with_capacity(parts as usize);
        let mut replayed = 0u64;
        for part in 0..parts {
            let records = replay_frames(&self.partition_log_path(Task::Similarity, part))?;
            if records.len() != 1 {
                return Err(Error::Invalid(format!(
                    "similarity partition {part} replayed {} record(s), expected 1",
                    records.len()
                )));
            }
            let (rows_part, _pairs) = decode_partial(&records[0])?;
            partials.push(rows_part);
            replayed += 1;
            self.metrics.incr(counters::REAL_PARTITIONS_REPLAYED, 1);
        }
        let merged = merge_partials(rows.len(), partials, SIMILARITY_TOP_K);
        let output = TaskOutput::Similarity(consumer_matches(&ids, merged));
        Ok((output, 0, parts as usize, spilled, replayed))
    }

    /// Politely stop the worker processes. [`Drop`] also cleans up, so
    /// calling this is optional but avoids relying on SIGKILL.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let bye = Request::Shutdown.encode();
        for worker in &self.workers {
            if worker.alive() {
                let _ = worker.endpoint.probe(&bye);
            }
            worker.declare_dead();
        }
        for handle in self.heartbeats.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for RealCluster {
    fn drop(&mut self) {
        self.shutdown();
        if self.own_wal_dir {
            let _ = std::fs::remove_dir_all(&self.wal_dir);
        }
    }
}

/// The consumer ids and raw yearly rows the coordinator ships for
/// similarity; each worker normalizes them as [`smda_core::unit_matrix`]
/// does, so its matrix is the one [`smda_core::similarity_search`]
/// scores.
fn similarity_rows(ds: &Dataset) -> (Vec<smda_types::ConsumerId>, Vec<Vec<f64>>) {
    ds.consumers()
        .iter()
        .map(|c| (c.id, c.readings().to_vec()))
        .unzip()
}

/// Spawn a cluster, run one task, shut down.
pub fn run_real(
    task: Task,
    ds: &Dataset,
    config: &RealClusterConfig,
    metrics: &MetricsSink,
) -> Result<RealRunReport> {
    let cluster = RealCluster::spawn(config.clone(), metrics.clone())?;
    let report = cluster.run_task(task, ds);
    cluster.shutdown();
    report
}

/// The deterministic twin: the identical phase decomposition pushed
/// through the identical pure executors, in-process — the reference the
/// real cluster is compared against. Its output is bit-identical to
/// [`RealCluster::run_task`]'s.
pub fn run_virtual_twin(
    task: Task,
    ds: &Dataset,
    config: &RealClusterConfig,
) -> Result<TaskOutput> {
    match task {
        Task::Similarity => {
            let (ids, rows) = similarity_rows(ds);
            let tiles = TileConfig::default().tile_rows(rows.len()).max(1);
            let parts = config.reduce_tasks.min(tiles) as u32;
            let mut partials = Vec::with_capacity(parts as usize);
            for part in 0..parts {
                let payload =
                    execute_similarity_partial(SIMILARITY_TOP_K as u32, parts, part, &rows)?;
                let (rows_part, _pairs) = decode_partial(&payload)?;
                partials.push(rows_part);
            }
            let merged = merge_partials(rows.len(), partials, SIMILARITY_TOP_K);
            Ok(TaskOutput::Similarity(consumer_matches(&ids, merged)))
        }
        _ => {
            let temps = ds.temperature().values();
            let reduce_parts = config.reduce_tasks as u32;
            let mut spill: BTreeMap<u32, Vec<(usize, Vec<u8>)>> = BTreeMap::new();
            for (map_index, chunk) in ds.consumers().chunks(config.map_chunk).enumerate() {
                let chunk: Vec<(u32, Vec<f64>)> = chunk
                    .iter()
                    .map(|c| (c.id.raw(), c.readings().to_vec()))
                    .collect();
                for (partition, payload) in execute_map(task, reduce_parts, temps, &chunk)? {
                    spill
                        .entry(partition)
                        .or_default()
                        .push((map_index, payload));
                }
            }
            let mut all = Vec::new();
            for (_, mut records) in spill {
                records.sort_by_key(|(map_index, _)| *map_index);
                let payloads: Vec<Vec<u8>> =
                    records.into_iter().map(|(_, payload)| payload).collect();
                all.extend(decode_results(&execute_merge(&payloads)?)?);
            }
            Ok(collect_consumer_results(task, all))
        }
    }
}

/// Exact comparison of two task outputs: [`BitEq::bits_eq`]. Kept at
/// this path for the callers that learned it here.
pub fn task_output_bits_eq(a: &TaskOutput, b: &TaskOutput) -> bool {
    BitEq::bits_eq(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_core::tasks::run_reference;
    use smda_types::{ConsumerSeries, TemperatureSeries, HOURS_PER_YEAR};

    fn dataset(n: u32) -> Dataset {
        let temp =
            TemperatureSeries::new((0..HOURS_PER_YEAR).map(|h| (h % 37) as f64 - 5.0).collect())
                .unwrap();
        let consumers = (0..n)
            .map(|id| {
                ConsumerSeries::new(
                    smda_types::ConsumerId(id),
                    (0..HOURS_PER_YEAR)
                        .map(|h| 0.3 + ((h * (id as usize + 3)) % 29) as f64 * 0.04)
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        Dataset::new(consumers, temp).unwrap()
    }

    #[test]
    fn virtual_twin_matches_the_reference_on_all_tasks() {
        let ds = dataset(10);
        let config = RealClusterConfig {
            workers: 3,
            map_chunk: 3,
            reduce_tasks: 4,
            ..RealClusterConfig::default()
        };
        for task in Task::ALL {
            let twin = run_virtual_twin(task, &ds, &config).unwrap();
            let reference = run_reference(task, &ds);
            assert!(
                task_output_bits_eq(&twin, &reference),
                "twin must be bit-identical to the reference for {task:?}"
            );
        }
    }

    #[test]
    fn bits_eq_rejects_differences() {
        let ds = dataset(4);
        let a = run_reference(Task::Histogram, &ds);
        let b = run_reference(Task::Histogram, &dataset(5));
        assert!(task_output_bits_eq(&a, &a));
        assert!(!task_output_bits_eq(&a, &b));
        let x = run_reference(Task::ThreeLine, &ds);
        assert!(!task_output_bits_eq(&a, &x), "different variants differ");
    }

    #[test]
    fn a_workers_crash_time_is_the_earliest_naming_it() {
        use crate::faults::NodeCrash;
        let crash = |node, ms| NodeCrash {
            node,
            at: Duration::from_millis(ms),
        };
        let plan = FaultPlan {
            crashes: vec![crash(1, 30), crash(3, 5), crash(1, 10), crash(1, 20)],
            ..FaultPlan::seeded(7)
        };
        assert_eq!(
            crash_times(Some(&plan), 3),
            [None, Some(Duration::from_millis(10)), None],
            "the earliest `at` per node wins; node 3 is not in a 3-worker cluster"
        );
        assert_eq!(crash_times(None, 2), [None, None]);
    }

    #[test]
    fn worker_binary_lookup_reports_a_typed_error_or_a_path() {
        // Whatever the environment, the lookup must not panic.
        match worker_binary() {
            Ok(path) => assert!(!path.as_os_str().is_empty()),
            Err(e) => assert!(e.to_string().contains("SMDA_WORKER_BIN"), "{e}"),
        }
    }
}
