//! The deterministic list scheduler producing virtual makespans.
//!
//! Each [`SimTask`] carries a measured compute duration plus modeled I/O
//! quantities; the scheduler places tasks on node slots (locality-aware,
//! earliest-slot-first) and reports when each phase of a job finishes on
//! the configured topology. Barriers between phases (map → reduce) are
//! expressed by starting the next phase at the previous phase's end.
//!
//! # Fault tolerance
//!
//! With a [`FaultPlan`] attached (see [`VirtualScheduler::with_fault_plan`])
//! the scheduler becomes a fault-tolerant one, in the MapReduce mold:
//!
//! - **Task retry.** An attempt that the plan fails is re-queued (after
//!   the failed attempt's slot time is paid) up to
//!   [`FaultPlan::max_attempts`]; exhaustion surfaces as
//!   [`Error::TaskFailed`] naming the phase and task.
//! - **Crash rescheduling.** A [`NodeCrash`] kills every attempt running
//!   on the node at crash time; victims are re-queued onto surviving
//!   nodes (locality recomputed against the new placement), and the node
//!   receives no further work — in this phase or any later one. Crashes
//!   whose time falls beyond the current phase stay pending and apply in
//!   a later phase.
//! - **Stragglers and speculation.** Slow-node factors stretch every
//!   attempt placed on the degraded node. When speculation is enabled, a
//!   task finishing later than `threshold × median` gets a backup copy
//!   on a different node; whichever copy finishes first wins and the
//!   loser is killed (its slot time up to the kill is still paid).
//!
//! Everything is deterministic: failure draws are counter-based hashes
//! from the plan seed, and all tie-breaks follow index order, so one plan
//! yields one schedule, bit for bit.

use std::collections::BTreeSet;
use std::time::Duration;

use smda_obs::{counters, MetricsSink};
use smda_types::{Error, Result};

use crate::cost::CostModel;
use crate::faults::{FaultPlan, NodeCrash};

/// The modeled cluster: `workers` nodes with `slots_per_worker` parallel
/// task slots each (the paper used 12 per node — the physical cores).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterTopology {
    /// Number of worker nodes.
    pub workers: usize,
    /// Task slots per worker.
    pub slots_per_worker: usize,
    /// The cost model converting bytes to time.
    pub cost: CostModel,
}

impl ClusterTopology {
    /// Total slots.
    fn total_slots(&self) -> usize {
        self.workers * self.slots_per_worker
    }
}

/// One schedulable task.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTask {
    /// Bytes read as input.
    pub input_bytes: u64,
    /// Nodes on which the input is local (empty = remote everywhere,
    /// e.g. a reducer pulling from all mappers).
    pub locality: Vec<usize>,
    /// Measured compute time for this task (scaled by the cost model).
    pub compute: Duration,
    /// Bytes written as output (locally).
    pub output_bytes: u64,
    /// Extra bytes pulled over the network regardless of placement
    /// (shuffle input, broadcast variables).
    pub shuffle_bytes: u64,
}

/// Outcome of scheduling one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseResult {
    /// Virtual time at which the phase's last task finished.
    pub end: Duration,
    /// Fraction of tasks that ran data-local.
    pub locality_fraction: f64,
    /// Total bytes moved across the network during the phase.
    pub network_bytes: u64,
    /// Per-node busy time (for utilization reports).
    pub node_busy: Vec<Duration>,
    /// Task attempts re-run after a failure or crash.
    pub retries: u64,
    /// Speculative backup copies launched for stragglers.
    pub speculative: u64,
}

/// Why an attempt was re-queued (determines the recovery counter its
/// eventual success lands in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RetryCause {
    Crash,
    Injected,
}

/// A task attempt waiting to be placed.
#[derive(Debug)]
struct PendingEntry {
    task: usize,
    attempt: usize,
    /// Earliest virtual time the attempt may start (the barrier, a
    /// failed predecessor's finish, or a crash time).
    not_before: Duration,
    cause: Option<RetryCause>,
}

/// A task attempt placed on a slot.
#[derive(Debug)]
struct Placement {
    task: usize,
    attempt: usize,
    node: usize,
    slot: usize,
    start: Duration,
    /// Effective completion (shortened when a speculative copy wins).
    finish: Duration,
    /// Had locality and ran data-local.
    counts_local: bool,
    /// The plan failed this attempt at `finish`.
    failed: bool,
    /// This is a speculative backup copy.
    speculative: bool,
    cause: Option<RetryCause>,
}

/// Fault-injection state carried across phases.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    /// Phase ordinal, part of the failure-draw key.
    phase: u64,
    /// Nodes that have crashed so far.
    dead: BTreeSet<usize>,
    /// Crashes not yet reached by the schedule.
    pending_crashes: Vec<NodeCrash>,
}

/// A scheduler instance carrying slot availability across phases.
#[derive(Debug)]
pub struct VirtualScheduler {
    topology: ClusterTopology,
    /// Virtual time at which each slot becomes free.
    slot_free: Vec<Duration>,
    metrics: MetricsSink,
    faults: Option<FaultState>,
}

impl VirtualScheduler {
    /// A scheduler over `topology` with all slots free at time zero.
    ///
    /// # Panics
    /// Panics if the topology has no slots.
    pub fn new(topology: ClusterTopology) -> Self {
        assert!(
            topology.total_slots() > 0,
            "cluster needs at least one slot"
        );
        VirtualScheduler {
            topology,
            slot_free: vec![Duration::ZERO; topology.total_slots()],
            metrics: MetricsSink::disabled(),
            faults: None,
        }
    }

    /// Route scheduling counters (`tasks_scheduled`, `bytes_shuffled`,
    /// and the `faults.*` family) into `sink`. The scheduler is the
    /// single source of truth for all of them: every placed task counts
    /// once, and every byte that crosses the modeled network (remote
    /// reads and shuffle pulls) counts once.
    ///
    /// Construction-time configuration: chain off [`VirtualScheduler::new`]
    /// so a scheduler is fully configured before it runs a phase.
    #[must_use]
    pub fn with_metrics(mut self, sink: MetricsSink) -> Self {
        self.metrics = sink;
        self
    }

    /// The sink scheduling counters go to (disabled by default).
    pub fn metrics(&self) -> &MetricsSink {
        &self.metrics
    }

    /// Inject faults from `plan` into every phase. Crash and dead-node
    /// state persists across phases of the same job.
    ///
    /// Construction-time configuration: chain off [`VirtualScheduler::new`]
    /// so a scheduler is fully configured before it runs a phase.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        let pending_crashes = plan.crashes.clone();
        self.faults = Some(FaultState {
            plan,
            phase: 0,
            dead: BTreeSet::new(),
            pending_crashes,
        });
        self
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| &f.plan)
    }

    /// Nodes that have crashed so far (empty without a fault plan).
    pub fn dead_nodes(&self) -> Vec<usize> {
        self.faults
            .as_ref()
            .map(|f| f.dead.iter().copied().collect())
            .unwrap_or_default()
    }

    fn node_of_slot(&self, slot: usize) -> usize {
        slot / self.topology.slots_per_worker
    }

    /// Earliest free time over slots on surviving nodes.
    fn healthy_frontier(&self, dead: &BTreeSet<usize>) -> Option<Duration> {
        let mut best: Option<Duration> = None;
        for (s, &free) in self.slot_free.iter().enumerate() {
            if dead.contains(&self.node_of_slot(s)) {
                continue;
            }
            best = Some(best.map_or(free, |b| b.min(free)));
        }
        best
    }

    fn store_fault_state(&mut self, dead: BTreeSet<usize>, pending_crashes: Vec<NodeCrash>) {
        if let Some(f) = self.faults.as_mut() {
            f.dead = dead;
            f.pending_crashes = pending_crashes;
        }
    }

    /// Schedule one phase of tasks; none may start before `barrier`.
    ///
    /// Convenience wrapper over [`VirtualScheduler::try_run_phase`] for
    /// fault-free scheduling.
    ///
    /// # Panics
    /// Panics if fault injection makes the phase fail (retry exhaustion
    /// or a cluster-wide outage); fault-injecting callers should use
    /// [`VirtualScheduler::try_run_phase`].
    pub fn run_phase(&mut self, tasks: &[SimTask], barrier: Duration) -> PhaseResult {
        match self.try_run_phase(tasks, barrier) {
            Ok(r) => r,
            Err(e) => panic!("phase failed under fault injection ({e}); use try_run_phase"),
        }
    }

    /// Schedule one phase of tasks; none may start before `barrier`.
    ///
    /// Locality-aware greedy placement: repeatedly take the earliest-free
    /// slot on a surviving node and give it a pending attempt local to
    /// that slot's node when one exists, otherwise the first ready
    /// attempt (paying a remote read). Under a fault plan this also
    /// applies crashes, retries failed attempts, and launches speculative
    /// backups (see the module docs).
    ///
    /// # Errors
    /// [`Error::TaskFailed`] when an attempt exhausts the retry budget;
    /// [`Error::NoHealthyNodes`] when every node has crashed while work
    /// remains.
    pub fn try_run_phase(&mut self, tasks: &[SimTask], barrier: Duration) -> Result<PhaseResult> {
        let cost = self.topology.cost;
        let plan = self.faults.as_ref().map(|f| f.plan.clone());
        let mut dead = self
            .faults
            .as_ref()
            .map(|f| f.dead.clone())
            .unwrap_or_default();
        let mut crashes = self
            .faults
            .as_ref()
            .map(|f| f.pending_crashes.clone())
            .unwrap_or_default();
        let phase_idx = match self.faults.as_mut() {
            Some(f) => {
                let p = f.phase;
                f.phase += 1;
                p
            }
            None => 0,
        };
        let max_attempts = plan.as_ref().map_or(1, |p| p.max_attempts.max(1));

        // Respect the barrier.
        for slot in self.slot_free.iter_mut() {
            if *slot < barrier {
                *slot = barrier;
            }
        }

        let mut pending: Vec<PendingEntry> = (0..tasks.len())
            .map(|t| PendingEntry {
                task: t,
                attempt: 0,
                not_before: barrier,
                cause: None,
            })
            .collect();
        let mut placements: Vec<Placement> = Vec::new();
        let mut network_bytes = 0u64;
        let mut retries = 0u64;
        let mut injected_failures = 0u64;
        let mut applied_crashes = 0u64;

        let mut end;
        loop {
            while !pending.is_empty() {
                let Some(frontier) = self.healthy_frontier(&dead) else {
                    self.store_fault_state(dead, crashes);
                    return Err(Error::NoHealthyNodes);
                };
                // Earliest virtual time any remaining attempt can start:
                // the schedule's frontier, or later if every pending
                // attempt is still held back by `not_before`.
                let min_nb = pending
                    .iter()
                    .map(|p| p.not_before)
                    .min()
                    .unwrap_or(barrier);
                let t0 = frontier.max(min_nb);

                // The schedule has reached `t0`: apply every crash at or
                // before it (earliest first) before placing more work.
                if let Some(pos) = next_crash_at_or_before(&crashes, t0) {
                    let crash = crashes.remove(pos);
                    applied_crashes += 1;
                    apply_crash(
                        crash,
                        &mut dead,
                        &mut placements,
                        &mut pending,
                        &mut retries,
                    );
                    continue;
                }

                // Delay-scheduling approximation: among slots free at
                // `t0`, prefer a (slot, attempt) pair where the attempt's
                // data is local to the slot's node.
                let mut slot = usize::MAX;
                let mut choice = None;
                for (s, &free) in self.slot_free.iter().enumerate() {
                    let node = self.node_of_slot(s);
                    if dead.contains(&node) || free > t0 {
                        continue;
                    }
                    if slot == usize::MAX {
                        slot = s; // fallback: first available slot
                    }
                    if let Some(c) = pending
                        .iter()
                        .position(|p| p.not_before <= t0 && tasks[p.task].locality.contains(&node))
                    {
                        slot = s;
                        choice = Some(c);
                        break;
                    }
                }
                let choice = match choice {
                    Some(c) => c,
                    // `None` is unreachable: min_nb <= t0 by construction.
                    None => pending.iter().position(|p| p.not_before <= t0).unwrap_or(0),
                };
                let entry = pending.swap_remove(choice);
                let node = self.node_of_slot(slot);
                let task = &tasks[entry.task];

                let has_locality = !task.locality.is_empty();
                let local = !has_locality || task.locality.contains(&node);
                let read = if local {
                    cost.disk_read(task.input_bytes)
                } else {
                    network_bytes += task.input_bytes;
                    cost.remote_read(task.input_bytes)
                };
                let shuffle = if task.shuffle_bytes > 0 {
                    network_bytes += task.shuffle_bytes;
                    cost.network(task.shuffle_bytes)
                } else {
                    Duration::ZERO
                };
                let mut duration = cost.task_startup
                    + read
                    + shuffle
                    + cost.scale_compute(task.compute)
                    + cost.disk_write(task.output_bytes);
                if let Some(plan) = &plan {
                    let factor = plan.slow_factor(node);
                    if factor > 1.0 {
                        duration = duration.mul_f64(factor);
                    }
                }
                let start = self.slot_free[slot].max(entry.not_before);
                let finish = start + duration;
                self.slot_free[slot] = finish;

                let failed = plan.as_ref().is_some_and(|p| {
                    p.attempt_fails(phase_idx, entry.task as u64, entry.attempt as u64)
                });
                if failed {
                    injected_failures += 1;
                    if entry.attempt + 1 >= max_attempts {
                        self.store_fault_state(dead, crashes);
                        return Err(Error::TaskFailed {
                            task: format!("phase {phase_idx} task {}", entry.task),
                            attempts: entry.attempt + 1,
                        });
                    }
                    retries += 1;
                    pending.push(PendingEntry {
                        task: entry.task,
                        attempt: entry.attempt + 1,
                        not_before: finish,
                        cause: Some(RetryCause::Injected),
                    });
                }
                placements.push(Placement {
                    task: entry.task,
                    attempt: entry.attempt,
                    node,
                    slot,
                    start,
                    finish,
                    counts_local: has_locality && local,
                    failed,
                    speculative: false,
                    cause: entry.cause,
                });
            }

            // All attempts placed. Tasks may still be *running* when a
            // pending crash strikes: apply any crash the phase is
            // exposed to, which can re-queue victims and resume the
            // placement loop above.
            end = placements
                .iter()
                .map(|p| p.finish)
                .fold(barrier, Duration::max);
            match next_crash_at_or_before(&crashes, end) {
                Some(pos) => {
                    let crash = crashes.remove(pos);
                    applied_crashes += 1;
                    apply_crash(
                        crash,
                        &mut dead,
                        &mut placements,
                        &mut pending,
                        &mut retries,
                    );
                }
                None => break,
            }
        }

        // Speculative execution: back up stragglers onto other nodes;
        // the first copy to finish wins and the loser is killed (its
        // slot time up to the kill is still paid). Backups run after the
        // crash fixed point and are not themselves subject to crashes.
        let mut speculative = 0u64;
        if let Some(plan) = &plan {
            let threshold = plan.speculation_threshold;
            if threshold > 1.0 {
                let mut finishes: Vec<Duration> = placements
                    .iter()
                    .filter(|p| !p.failed)
                    .map(|p| p.finish)
                    .collect();
                finishes.sort();
                if !finishes.is_empty() {
                    let median = finishes[finishes.len() / 2];
                    let cutoff = median.mul_f64(threshold);
                    let stragglers: Vec<usize> = (0..placements.len())
                        .filter(|&i| !placements[i].failed && placements[i].finish > cutoff)
                        .collect();
                    let mut backups = Vec::new();
                    for i in stragglers {
                        let mut bslot = usize::MAX;
                        let mut bfree = Duration::MAX;
                        for (s, &free) in self.slot_free.iter().enumerate() {
                            let node = self.node_of_slot(s);
                            if dead.contains(&node) || node == placements[i].node {
                                continue;
                            }
                            if free < bfree {
                                bfree = free;
                                bslot = s;
                            }
                        }
                        if bslot == usize::MAX {
                            continue; // nowhere else to run a backup
                        }
                        let bnode = self.node_of_slot(bslot);
                        let task = &tasks[placements[i].task];
                        let has_locality = !task.locality.is_empty();
                        let local = !has_locality || task.locality.contains(&bnode);
                        let read = if local {
                            cost.disk_read(task.input_bytes)
                        } else {
                            network_bytes += task.input_bytes;
                            cost.remote_read(task.input_bytes)
                        };
                        let shuffle = if task.shuffle_bytes > 0 {
                            network_bytes += task.shuffle_bytes;
                            cost.network(task.shuffle_bytes)
                        } else {
                            Duration::ZERO
                        };
                        let mut duration = cost.task_startup
                            + read
                            + shuffle
                            + cost.scale_compute(task.compute)
                            + cost.disk_write(task.output_bytes);
                        let factor = plan.slow_factor(bnode);
                        if factor > 1.0 {
                            duration = duration.mul_f64(factor);
                        }
                        let bstart = self.slot_free[bslot].max(cutoff);
                        let bfinish = bstart + duration;
                        let effective = placements[i].finish.min(bfinish);
                        // The loser is killed when the winner finishes.
                        let brelease = bfinish.min(placements[i].finish).max(bstart);
                        self.slot_free[bslot] = brelease;
                        if self.slot_free[placements[i].slot] == placements[i].finish {
                            self.slot_free[placements[i].slot] = effective;
                        }
                        placements[i].finish = effective;
                        speculative += 1;
                        backups.push(Placement {
                            task: placements[i].task,
                            attempt: placements[i].attempt,
                            node: bnode,
                            slot: bslot,
                            start: bstart,
                            finish: brelease,
                            counts_local: false,
                            failed: false,
                            speculative: true,
                            cause: None,
                        });
                    }
                    placements.extend(backups);
                    end = placements
                        .iter()
                        .map(|p| p.finish)
                        .fold(barrier, Duration::max);
                }
            }
        }

        let local_hits = placements
            .iter()
            .filter(|p| !p.failed && !p.speculative && p.counts_local)
            .count();
        let mut node_busy = vec![Duration::ZERO; self.topology.workers];
        for p in &placements {
            node_busy[p.node] += p.finish.saturating_sub(p.start);
        }
        let recovered_crash = placements
            .iter()
            .filter(|p| !p.failed && !p.speculative && p.cause == Some(RetryCause::Crash))
            .count() as u64;
        let recovered_injected = placements
            .iter()
            .filter(|p| !p.failed && !p.speculative && p.cause == Some(RetryCause::Injected))
            .count() as u64;
        let slow_nodes_used = plan
            .as_ref()
            .map(|pl| {
                placements
                    .iter()
                    .map(|p| p.node)
                    .filter(|&n| pl.slow_factor(n) > 1.0)
                    .collect::<BTreeSet<usize>>()
                    .len() as u64
            })
            .unwrap_or(0);

        self.metrics
            .incr(counters::TASKS_SCHEDULED, tasks.len() as u64);
        self.metrics.incr(counters::BYTES_SHUFFLED, network_bytes);
        // Fault counters appear only when faults actually occurred, so
        // fault-free exports are unchanged.
        for (name, value) in [
            (counters::TASKS_RETRIED, retries),
            (counters::TASKS_SPECULATIVE, speculative),
            (counters::FAULTS_INJECTED_TASK_FAILURE, injected_failures),
            (counters::FAULTS_INJECTED_NODE_CRASH, applied_crashes),
            (counters::FAULTS_INJECTED_SLOW_NODE, slow_nodes_used),
            (counters::FAULTS_RECOVERED_NODE_CRASH, recovered_crash),
            (counters::FAULTS_RECOVERED_TASK_FAILURE, recovered_injected),
        ] {
            if value > 0 {
                self.metrics.incr(name, value);
            }
        }
        self.store_fault_state(dead, crashes);

        let with_locality = tasks.iter().filter(|t| !t.locality.is_empty()).count();
        Ok(PhaseResult {
            end,
            locality_fraction: if with_locality == 0 {
                1.0
            } else {
                local_hits as f64 / with_locality as f64
            },
            network_bytes,
            node_busy,
            retries,
            speculative,
        })
    }

    /// Reset all slots to free-at-zero (a fresh job). Fault state — dead
    /// nodes, pending crashes, the phase counter — is *not* reset; build
    /// a new scheduler via [`VirtualScheduler::with_fault_plan`] for a
    /// fresh plan.
    pub fn reset(&mut self) {
        self.slot_free.iter_mut().for_each(|s| *s = Duration::ZERO);
    }
}

/// Index of the earliest pending crash at or before `t`, if any.
fn next_crash_at_or_before(crashes: &[NodeCrash], t: Duration) -> Option<usize> {
    crashes
        .iter()
        .enumerate()
        .filter(|(_, c)| c.at <= t)
        .min_by_key(|(_, c)| c.at)
        .map(|(i, _)| i)
}

/// Kill the node: every attempt running on it at `crash.at` dies.
/// Successful attempts are re-queued (a crash retry); failed attempts
/// already queued their retry when placed, so they are just discarded.
fn apply_crash(
    crash: NodeCrash,
    dead: &mut BTreeSet<usize>,
    placements: &mut Vec<Placement>,
    pending: &mut Vec<PendingEntry>,
    retries: &mut u64,
) {
    dead.insert(crash.node);
    let mut i = 0;
    while i < placements.len() {
        let victim = placements[i].node == crash.node && placements[i].finish > crash.at;
        if victim {
            let p = placements.swap_remove(i);
            if !p.failed && !p.speculative {
                *retries += 1;
                pending.push(PendingEntry {
                    task: p.task,
                    attempt: p.attempt,
                    not_before: crash.at,
                    cause: Some(RetryCause::Crash),
                });
            }
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::SlowNode;

    /// A pure-compute task.
    fn compute_only(compute: Duration) -> SimTask {
        SimTask {
            input_bytes: 0,
            locality: Vec::new(),
            compute,
            output_bytes: 0,
            shuffle_bytes: 0,
        }
    }

    fn topo(workers: usize, slots: usize) -> ClusterTopology {
        ClusterTopology {
            workers,
            slots_per_worker: slots,
            cost: CostModel {
                task_startup: Duration::from_millis(10),
                ..CostModel::default()
            },
        }
    }

    #[test]
    fn parallel_tasks_overlap() {
        let mut sched = VirtualScheduler::new(topo(4, 1));
        let tasks: Vec<SimTask> = (0..4)
            .map(|_| compute_only(Duration::from_secs(1)))
            .collect();
        let result = sched.run_phase(&tasks, Duration::ZERO);
        // 4 tasks on 4 slots: makespan ≈ 1 task, not 4.
        assert!(result.end < Duration::from_secs(2), "end {:?}", result.end);
    }

    #[test]
    fn more_workers_reduce_makespan() {
        let tasks: Vec<SimTask> = (0..32)
            .map(|_| compute_only(Duration::from_secs(1)))
            .collect();
        let t4 = VirtualScheduler::new(topo(4, 1))
            .run_phase(&tasks, Duration::ZERO)
            .end;
        let t16 = VirtualScheduler::new(topo(16, 1))
            .run_phase(&tasks, Duration::ZERO)
            .end;
        assert!(t16 < t4);
        let speedup = t4.as_secs_f64() / t16.as_secs_f64();
        assert!(speedup > 3.0 && speedup <= 4.2, "speedup {speedup}");
    }

    #[test]
    fn locality_preferred_when_available() {
        let mut sched = VirtualScheduler::new(topo(2, 1));
        let mb = 50 * 1024 * 1024;
        let tasks = vec![
            SimTask {
                input_bytes: mb,
                locality: vec![0],
                compute: Duration::from_millis(100),
                output_bytes: 0,
                shuffle_bytes: 0,
            },
            SimTask {
                input_bytes: mb,
                locality: vec![1],
                compute: Duration::from_millis(100),
                output_bytes: 0,
                shuffle_bytes: 0,
            },
        ];
        let result = sched.run_phase(&tasks, Duration::ZERO);
        assert_eq!(result.locality_fraction, 1.0);
        assert_eq!(result.network_bytes, 0);
    }

    #[test]
    fn remote_reads_cost_network() {
        let mut sched = VirtualScheduler::new(topo(1, 1));
        let mb = 50 * 1024 * 1024;
        // Only node 0 exists but data is "on node 5" — impossible
        // locality forces a remote read.
        let tasks = vec![SimTask {
            input_bytes: mb,
            locality: vec![5],
            compute: Duration::ZERO,
            output_bytes: 0,
            shuffle_bytes: 0,
        }];
        let result = sched.run_phase(&tasks, Duration::ZERO);
        assert_eq!(result.network_bytes, mb);
        assert_eq!(result.locality_fraction, 0.0);
    }

    #[test]
    fn barrier_delays_phase() {
        let mut sched = VirtualScheduler::new(topo(2, 1));
        let tasks = vec![compute_only(Duration::from_secs(1))];
        let result = sched.run_phase(&tasks, Duration::from_secs(10));
        assert!(result.end >= Duration::from_secs(11));
    }

    #[test]
    fn phases_accumulate_across_run_calls() {
        let mut sched = VirtualScheduler::new(topo(1, 1));
        let t1 = sched.run_phase(&[compute_only(Duration::from_secs(1))], Duration::ZERO);
        let t2 = sched.run_phase(&[compute_only(Duration::from_secs(1))], t1.end);
        assert!(t2.end > t1.end + Duration::from_secs(1) - Duration::from_millis(100));
        sched.reset();
        let t3 = sched.run_phase(&[compute_only(Duration::from_secs(1))], Duration::ZERO);
        assert!(t3.end < t2.end);
    }

    #[test]
    fn node_busy_accounts_all_work() {
        let mut sched = VirtualScheduler::new(topo(3, 2));
        let tasks: Vec<SimTask> = (0..12)
            .map(|_| compute_only(Duration::from_millis(500)))
            .collect();
        let result = sched.run_phase(&tasks, Duration::ZERO);
        let busy: Duration = result.node_busy.iter().sum();
        // 12 tasks × (10ms startup + 500ms) ≈ 6.12 s of busy time.
        assert!((busy.as_secs_f64() - 6.12).abs() < 0.1, "busy {busy:?}");
    }

    // ---- fault injection ----

    fn long_phase() -> Vec<SimTask> {
        (0..16)
            .map(|_| compute_only(Duration::from_secs(1)))
            .collect()
    }

    #[test]
    fn crash_mid_phase_completes_on_survivors() {
        let tasks = long_phase();
        let mut healthy = VirtualScheduler::new(topo(4, 1));
        let baseline = healthy.run_phase(&tasks, Duration::ZERO);

        let mut plan = FaultPlan::default();
        plan.crashes.push(NodeCrash {
            node: 1,
            at: Duration::from_millis(1500),
        });
        let mut sched = VirtualScheduler::new(topo(4, 1)).with_fault_plan(plan);
        let result = sched.try_run_phase(&tasks, Duration::ZERO).unwrap();

        assert!(result.retries >= 1, "the crash must kill a running attempt");
        assert!(
            result.end > baseline.end,
            "losing a node must lengthen the makespan"
        );
        assert!(
            result.end < Duration::from_secs(60),
            "makespan must stay finite"
        );
        assert_eq!(sched.dead_nodes(), vec![1]);
        // The dead node did no work after the crash.
        assert!(result.node_busy[1] <= Duration::from_millis(1500) + Duration::from_millis(50));
    }

    #[test]
    fn crash_persists_into_later_phases() {
        let mut plan = FaultPlan::default();
        plan.crashes.push(NodeCrash {
            node: 0,
            at: Duration::from_millis(100),
        });
        let mut sched = VirtualScheduler::new(topo(2, 1)).with_fault_plan(plan);
        let p1 = sched.try_run_phase(&long_phase(), Duration::ZERO).unwrap();
        let p2 = sched.try_run_phase(&long_phase(), p1.end).unwrap();
        assert_eq!(
            p2.node_busy[0],
            Duration::ZERO,
            "crashed node must stay dead"
        );
        assert!(p2.node_busy[1] > Duration::ZERO);
    }

    #[test]
    fn all_nodes_dead_is_a_typed_error() {
        let mut plan = FaultPlan::default();
        plan.crashes.push(NodeCrash {
            node: 0,
            at: Duration::from_millis(10),
        });
        let mut sched = VirtualScheduler::new(topo(1, 2)).with_fault_plan(plan);
        match sched.try_run_phase(&long_phase(), Duration::ZERO) {
            Err(Error::NoHealthyNodes) => {}
            other => panic!("expected NoHealthyNodes, got {other:?}"),
        }
    }

    #[test]
    fn injected_failures_are_retried() {
        let mut sched = VirtualScheduler::new(topo(4, 2)).with_fault_plan(FaultPlan {
            task_failure_rate: 0.3,
            max_attempts: 10,
            ..FaultPlan::seeded(11)
        });
        let result = sched.try_run_phase(&long_phase(), Duration::ZERO).unwrap();
        assert!(
            result.retries >= 1,
            "rate 0.3 over 16 tasks must fail something"
        );
        assert!(result.end > Duration::ZERO);
    }

    #[test]
    fn retry_exhaustion_names_the_task() {
        // Certain failure (rate just under 1) with a budget of 2.
        let mut sched = VirtualScheduler::new(topo(2, 1)).with_fault_plan(FaultPlan {
            task_failure_rate: 0.999_999,
            max_attempts: 2,
            ..FaultPlan::seeded(3)
        });
        match sched.try_run_phase(&long_phase(), Duration::ZERO) {
            Err(Error::TaskFailed { task, attempts }) => {
                assert!(task.starts_with("phase 0 task "), "{task}");
                assert_eq!(attempts, 2);
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn slow_node_stretches_and_speculation_recovers() {
        let tasks = long_phase();
        let slow = SlowNode {
            node: 0,
            factor: 8.0,
        };

        let mut dragged = VirtualScheduler::new(topo(4, 1)).with_fault_plan(FaultPlan {
            slow_nodes: vec![slow],
            ..FaultPlan::default()
        });
        let without = dragged.try_run_phase(&tasks, Duration::ZERO).unwrap();

        let mut speculating = VirtualScheduler::new(topo(4, 1)).with_fault_plan(FaultPlan {
            slow_nodes: vec![slow],
            speculation_threshold: 1.5,
            ..FaultPlan::default()
        });
        let with = speculating.try_run_phase(&tasks, Duration::ZERO).unwrap();

        let mut healthy = VirtualScheduler::new(topo(4, 1));
        let baseline = healthy.run_phase(&tasks, Duration::ZERO);

        assert!(
            without.end > baseline.end,
            "a straggler must hurt the makespan"
        );
        assert!(with.speculative >= 1, "stragglers must get backup copies");
        assert!(with.end < without.end, "speculation must claw time back");
    }

    #[test]
    fn same_plan_schedules_identically() {
        let plan = FaultPlan {
            task_failure_rate: 0.2,
            max_attempts: 16,
            crashes: vec![NodeCrash {
                node: 2,
                at: Duration::from_millis(700),
            }],
            slow_nodes: vec![SlowNode {
                node: 1,
                factor: 3.0,
            }],
            speculation_threshold: 1.5,
            ..FaultPlan::seeded(77)
        };
        let run = |p: FaultPlan| {
            let mut sched = VirtualScheduler::new(topo(4, 2)).with_fault_plan(p);
            let a = sched.try_run_phase(&long_phase(), Duration::ZERO).unwrap();
            let b = sched.try_run_phase(&long_phase(), a.end).unwrap();
            (a, b)
        };
        let (a1, b1) = run(plan.clone());
        let (a2, b2) = run(plan);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn without_faults_try_run_phase_never_fails() {
        let mut sched = VirtualScheduler::new(topo(2, 2));
        let r = sched.try_run_phase(&long_phase(), Duration::ZERO).unwrap();
        assert_eq!(r.retries, 0);
        assert_eq!(r.speculative, 0);
    }
}
