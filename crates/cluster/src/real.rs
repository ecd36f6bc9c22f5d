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
//! The virtual scheduler stays in-tree as the deterministic twin:
//! [`run_virtual_twin`] pushes the identical decomposition through the
//! identical pure executors in-process, so the two sides agree bit for
//! bit ([`task_output_bits_eq`]) on every task output.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io::BufRead as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use smda_core::tasks::collect_consumer_results;
use smda_core::{ConsumerMatches, Task, TaskOutput, SIMILARITY_TOP_K};
use smda_obs::{counters, MetricsSink};
use smda_stats::{merge_partials, SeriesMatrixBuilder, TileConfig};
use smda_storage::wal::{replay_frames, FrameLog};
use smda_types::{Dataset, Error, Result, HOURS_PER_YEAR};

use crate::faults::FaultPlan;
use crate::scheduler::{ClusterTopology, SimTask, VirtualScheduler};
use crate::transport::{put_bytes, put_u32, Endpoint, TransportConfig, WireCursor};
use crate::worker::{
    decode_partial, decode_results, execute_map, execute_merge, execute_similarity_partial,
    Request, Response, LISTENING_PREFIX,
};
use crate::CostModel;

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
pub fn worker_binary() -> Result<PathBuf> {
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

struct WorkerHandle {
    index: usize,
    endpoint: Endpoint,
    child: Mutex<Child>,
    alive: AtomicBool,
    /// Tasks this worker has completed (the crash trigger watches it).
    completed: AtomicU64,
    /// Set by the crash trigger once its conditions hold; the dispatcher
    /// that next hands this worker a task delivers the SIGKILL.
    kill_armed: AtomicBool,
}

impl WorkerHandle {
    fn alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Mark the worker dead and make sure the process really is.
    /// Returns `true` only for the caller that performed the
    /// transition, so liveness accounting happens exactly once.
    fn declare_dead(&self) -> bool {
        let first = self.alive.swap(false, Ordering::SeqCst);
        let mut child = self.child.lock();
        let _ = child.kill();
        let _ = child.wait();
        first
    }
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
    match rx.recv_timeout(deadline) {
        Ok(Ok(addr)) => Ok(addr),
        Ok(Err(msg)) => Err(Error::Invalid(msg)),
        Err(_) => Err(Error::Invalid(format!(
            "worker did not announce its address within {deadline:?}"
        ))),
    }
}

/// A live multi-process cluster: N forked `smda` workers, heartbeat
/// monitors, and (when a fault plan schedules crashes) killer threads
/// delivering real SIGKILLs.
pub struct RealCluster {
    config: RealClusterConfig,
    metrics: MetricsSink,
    workers: Vec<Arc<WorkerHandle>>,
    live: Arc<AtomicUsize>,
    started: Instant,
    wal_dir: PathBuf,
    own_wal_dir: bool,
    stop: Arc<AtomicBool>,
    monitors: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl RealCluster {
    /// Fork `config.workers` worker processes and start the heartbeat
    /// monitors and crash killers.
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
        let mut workers = Vec::with_capacity(config.workers);
        for index in 0..config.workers {
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
                kill_armed: AtomicBool::new(false),
            }));
        }
        let cluster = RealCluster {
            live: Arc::new(AtomicUsize::new(workers.len())),
            config,
            metrics,
            workers,
            started: Instant::now(),
            wal_dir,
            own_wal_dir,
            stop: Arc::new(AtomicBool::new(false)),
            monitors: Mutex::new(Vec::new()),
        };
        cluster.start_heartbeats();
        cluster.start_killers();
        Ok(cluster)
    }

    /// Workers currently believed alive.
    pub fn live_workers(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// The shuffle WAL directory for this cluster.
    pub fn wal_dir(&self) -> &Path {
        &self.wal_dir
    }

    fn mark_dead(&self, worker: &WorkerHandle, counter: Option<&'static str>) {
        if worker.declare_dead() {
            self.live.fetch_sub(1, Ordering::SeqCst);
            if let Some(name) = counter {
                self.metrics.incr(name, 1);
            }
        }
    }

    fn start_heartbeats(&self) {
        let ping = Request::Ping.encode();
        for worker in &self.workers {
            let worker = Arc::clone(worker);
            let stop = Arc::clone(&self.stop);
            let live = Arc::clone(&self.live);
            let metrics = self.metrics.clone();
            let interval = self.config.transport.heartbeat_interval;
            let budget = self.config.transport.heartbeat_misses.max(1);
            let ping = ping.clone();
            let handle = std::thread::spawn(move || {
                let mut misses = 0u32;
                while !stop.load(Ordering::SeqCst) && worker.alive() {
                    std::thread::sleep(interval);
                    if stop.load(Ordering::SeqCst) || !worker.alive() {
                        break;
                    }
                    match worker.endpoint.probe(&ping) {
                        Ok(_) => misses = 0,
                        Err(_) => {
                            misses += 1;
                            if misses >= budget && worker.declare_dead() {
                                live.fetch_sub(1, Ordering::SeqCst);
                                metrics.incr(counters::TRANSPORT_HEARTBEAT_LOSSES, 1);
                            }
                        }
                    }
                }
            });
            self.monitors.lock().push(handle);
        }
    }

    fn start_killers(&self) {
        let Some(plan) = &self.config.fault_plan else {
            return;
        };
        for crash in &plan.crashes {
            let Some(worker) = self.workers.get(crash.node).map(Arc::clone) else {
                continue; // the plan names a node this cluster doesn't have
            };
            let stop = Arc::clone(&self.stop);
            let started = self.started;
            let at = crash.at;
            let handle = std::thread::spawn(move || {
                // Arm the SIGKILL once the job clock passes `at` AND the
                // victim has completed at least one task; `run_queue`
                // delivers it with the victim's next task in hand. A kill
                // fired from here, on wall time, can land between two
                // tasks — the shorter the tasks, the likelier — and then
                // nothing is in flight to recover.
                loop {
                    if stop.load(Ordering::SeqCst) || !worker.alive() {
                        return;
                    }
                    if started.elapsed() >= at && worker.completed.load(Ordering::SeqCst) > 0 {
                        worker.kill_armed.store(true, Ordering::SeqCst);
                        return;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
            self.monitors.lock().push(handle);
        }
    }

    /// Run one phase of `items` over the live workers: a shared work
    /// queue, one dispatcher per worker, re-queue on worker death, and
    /// exactly-once completion (`on_complete` runs under the state
    /// lock, once per item, before the item counts as done).
    fn run_queue<T: Sync>(
        &self,
        items: &[T],
        make_request: impl Fn(&T) -> Request + Sync,
        mut on_complete: impl FnMut(usize, &Response) -> Result<()> + Send,
    ) -> Result<BTreeMap<usize, Response>> {
        struct Inner {
            queue: VecDeque<(usize, bool)>,
            done: usize,
            finished: bool,
            error: Option<Error>,
        }
        let state = Mutex::new(Inner {
            queue: (0..items.len()).map(|i| (i, false)).collect(),
            done: 0,
            finished: items.is_empty(),
            error: None,
        });
        let results = Mutex::new(BTreeMap::new());
        let on_complete = Mutex::new(&mut on_complete);
        // The stub `parking_lot::Mutex` hands out std guards, so std's
        // condvar pairs with it directly.
        let cv = std::sync::Condvar::new();
        let total = items.len();
        std::thread::scope(|scope| {
            for worker in &self.workers {
                let state = &state;
                let results = &results;
                let on_complete = &on_complete;
                let cv = &cv;
                let make_request = &make_request;
                scope.spawn(move || loop {
                    let entry = {
                        let mut inner = state.lock();
                        loop {
                            if inner.finished || inner.error.is_some() || !worker.alive() {
                                break None;
                            }
                            if let Some(e) = inner.queue.pop_front() {
                                break Some(e);
                            }
                            inner = cv
                                .wait_timeout(inner, Duration::from_millis(5))
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .0;
                        }
                    };
                    let Some((index, was_crashed)) = entry else {
                        return;
                    };
                    self.metrics.incr(counters::TASKS_SCHEDULED, 1);
                    if worker.kill_armed.swap(false, Ordering::SeqCst) {
                        // The scheduled crash strikes now, this task in
                        // the victim's hands: the call below finds the
                        // process gone and the task is recovered on a
                        // survivor.
                        self.mark_dead(worker, Some(counters::FAULTS_INJECTED_NODE_CRASH));
                    }
                    let request = make_request(&items[index]).encode();
                    match worker
                        .endpoint
                        .call(&request)
                        .and_then(|bytes| Response::decode(&bytes))
                    {
                        Ok(Response::Err(msg)) => {
                            let mut inner = state.lock();
                            inner.error.get_or_insert(Error::Invalid(format!(
                                "worker {}: {msg}",
                                worker.index
                            )));
                            cv.notify_all();
                            return;
                        }
                        Ok(response) => {
                            let mut inner = state.lock();
                            let mut results = results.lock();
                            if let std::collections::btree_map::Entry::Vacant(slot) =
                                results.entry(index)
                            {
                                if let Err(e) = on_complete.lock()(index, &response) {
                                    inner.error.get_or_insert(e);
                                    cv.notify_all();
                                    return;
                                }
                                slot.insert(response);
                                inner.done += 1;
                                worker.completed.fetch_add(1, Ordering::SeqCst);
                                if was_crashed {
                                    self.metrics.incr(counters::FAULTS_RECOVERED_NODE_CRASH, 1);
                                }
                                if inner.done == total {
                                    inner.finished = true;
                                    cv.notify_all();
                                }
                            }
                        }
                        Err(_transport) => {
                            // The worker is unreachable after retries:
                            // treat it as dead and give its task to a
                            // survivor, flagged as crash recovery.
                            self.mark_dead(worker, None);
                            let mut inner = state.lock();
                            inner.queue.push_back((index, true));
                            if self.live.load(Ordering::SeqCst) == 0 {
                                inner.error.get_or_insert(Error::NoHealthyNodes);
                            }
                            cv.notify_all();
                            return;
                        }
                    }
                });
            }
        });
        let mut inner = state.into_inner();
        if let Some(e) = inner.error.take() {
            return Err(e);
        }
        if !inner.finished {
            // Every dispatcher exited with work pending: no healthy
            // node is left to run it. Graceful degradation has a floor.
            return Err(Error::NoHealthyNodes);
        }
        Ok(results.into_inner())
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
        let (ids, rows) = normalized_rows(ds);
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
        let output = TaskOutput::Similarity(matches_from(ids, merged));
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
            self.mark_dead(worker, None);
        }
        for handle in self.monitors.lock().drain(..) {
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

/// The consumer ids and normalized rows the coordinator ships — built
/// exactly as [`smda_core::similarity_search`] builds its matrix, so
/// worker-side verbatim reassembly is bit-exact.
fn normalized_rows(ds: &Dataset) -> (Vec<smda_types::ConsumerId>, Vec<Vec<f64>>) {
    let ids: Vec<smda_types::ConsumerId> = ds.consumers().iter().map(|c| c.id).collect();
    let builder = SeriesMatrixBuilder::new(ids.len(), HOURS_PER_YEAR);
    for (row, c) in ds.consumers().iter().enumerate() {
        builder.set_row_normalized(row, c.readings());
    }
    let matrix = builder.finish();
    let rows = (0..matrix.rows()).map(|i| matrix.row(i).to_vec()).collect();
    (ids, rows)
}

fn matches_from(
    ids: Vec<smda_types::ConsumerId>,
    merged: Vec<Vec<smda_stats::SimilarityMatch>>,
) -> Vec<ConsumerMatches> {
    merged
        .into_iter()
        .enumerate()
        .map(|(q, hits)| ConsumerMatches {
            consumer: ids[q],
            matches: hits.into_iter().map(|h| (ids[h.index], h.score)).collect(),
        })
        .collect()
}

/// Spawn a cluster, run one task, shut down. The one-call entry point
/// the engines' real-backend toggle uses.
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
/// through the identical pure executors, in-process, with the phase
/// plan also driven through the [`VirtualScheduler`] so the virtual
/// cost model sees the same task counts. Its output is bit-identical
/// to [`RealCluster::run_task`]'s.
pub fn run_virtual_twin(
    task: Task,
    ds: &Dataset,
    config: &RealClusterConfig,
    metrics: &MetricsSink,
) -> Result<TaskOutput> {
    let topology = ClusterTopology {
        workers: config.workers.max(1),
        slots_per_worker: 2,
        cost: CostModel::default(),
    };
    let mut scheduler = VirtualScheduler::new(topology).with_metrics(metrics.clone());
    let sim_task = |bytes: u64| SimTask {
        input_bytes: bytes,
        locality: Vec::new(),
        compute: Duration::from_millis(1),
        output_bytes: bytes,
        shuffle_bytes: 0,
    };
    match task {
        Task::Similarity => {
            let (ids, rows) = normalized_rows(ds);
            let tiles = TileConfig::default().tile_rows(rows.len()).max(1);
            let parts = config.reduce_tasks.min(tiles) as u32;
            let row_bytes = (rows.len() * HOURS_PER_YEAR * 8) as u64;
            let plan: Vec<SimTask> = (0..parts).map(|_| sim_task(row_bytes)).collect();
            scheduler.try_run_phase(&plan, Duration::ZERO)?;
            let mut partials = Vec::with_capacity(parts as usize);
            for part in 0..parts {
                let payload =
                    execute_similarity_partial(SIMILARITY_TOP_K as u32, parts, part, &rows)?;
                let (rows_part, _pairs) = decode_partial(&payload)?;
                partials.push(rows_part);
            }
            let merged = merge_partials(rows.len(), partials, SIMILARITY_TOP_K);
            Ok(TaskOutput::Similarity(matches_from(ids, merged)))
        }
        _ => {
            let temps = ds.temperature().values();
            let reduce_parts = config.reduce_tasks as u32;
            let mut spill: BTreeMap<u32, Vec<(usize, Vec<u8>)>> = BTreeMap::new();
            let mut plan = Vec::new();
            for (map_index, chunk) in ds.consumers().chunks(config.map_chunk).enumerate() {
                let chunk: Vec<(u32, Vec<f64>)> = chunk
                    .iter()
                    .map(|c| (c.id.raw(), c.readings().to_vec()))
                    .collect();
                let bytes = (chunk.len() * HOURS_PER_YEAR * 8) as u64;
                plan.push(sim_task(bytes));
                for (partition, payload) in execute_map(task, reduce_parts, temps, &chunk)? {
                    spill
                        .entry(partition)
                        .or_default()
                        .push((map_index, payload));
                }
            }
            scheduler.try_run_phase(&plan, Duration::ZERO)?;
            let reduce_plan: Vec<SimTask> = spill
                .values()
                .map(|v| sim_task(v.iter().map(|(_, p)| p.len() as u64).sum()))
                .collect();
            scheduler.try_run_phase(&reduce_plan, Duration::ZERO)?;
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

/// Exact comparison of two task outputs, `f64`s by bit pattern:
/// [`TaskOutput::bits_eq`], where the result types define their own
/// bits. Kept at this path for the callers that learned it here.
pub fn task_output_bits_eq(a: &TaskOutput, b: &TaskOutput) -> bool {
    a.bits_eq(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_core::tasks::run_reference;
    use smda_types::{ConsumerSeries, TemperatureSeries};

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
            let twin = run_virtual_twin(task, &ds, &config, &MetricsSink::disabled()).unwrap();
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
    fn worker_binary_lookup_reports_a_typed_error_or_a_path() {
        // Whatever the environment, the lookup must not panic.
        match worker_binary() {
            Ok(path) => assert!(!path.as_os_str().is_empty()),
            Err(e) => assert!(e.to_string().contains("SMDA_WORKER_BIN"), "{e}"),
        }
    }
}
