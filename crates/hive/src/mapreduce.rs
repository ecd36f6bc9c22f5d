//! A generic MapReduce runner on the cluster simulator.
//!
//! Mappers and reducers execute **really** on the process's persistent
//! worker pool; the virtual scheduler turns measured compute plus modeled
//! I/O into the job's virtual makespan. Map output is spilled to disk
//! (write cost), shuffled (network cost) and re-read by reducers (read
//! cost), the Hadoop way.
//!
//! Execution is fault-tolerant end to end: pool tasks run under panic
//! containment with a retry budget (taken from the scheduler's
//! [`smda_cluster::FaultPlan`] when one is attached), and the virtual
//! phases go through [`VirtualScheduler::try_run_phase`], so injected
//! task failures, node crashes and stragglers surface as typed errors or
//! longer — but finite — makespans instead of panics.
//!
//! Mappers and reducers borrow their input and return `Result`. A task
//! that panics is re-run on the same input; one that returns `Err` is
//! not — bad input stays bad — and the job fails with the error of its
//! lowest-indexed failing task, whichever thread ran what.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Duration;

use smda_cluster::{SimTask, VirtualScheduler};
use smda_engines::WorkerPool;
use smda_types::Result;

/// One map input: real data plus modeled size and placement.
#[derive(Debug, Clone)]
pub struct JobInput<I> {
    /// The split's payload.
    pub data: I,
    /// Modeled size in bytes.
    pub bytes: u64,
    /// Nodes holding the split locally.
    pub hosts: Vec<usize>,
}

/// Accounting for one job.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JobStats {
    /// Virtual wall-clock of the whole job.
    pub virtual_elapsed: Duration,
    /// Number of map tasks.
    pub map_tasks: usize,
    /// Number of reduce tasks (0 for map-only jobs).
    pub reduce_tasks: usize,
    /// Bytes shuffled from mappers to reducers.
    pub shuffle_bytes: u64,
    /// Total bytes that crossed the network (remote reads + shuffle).
    pub network_bytes: u64,
    /// Fraction of map tasks that ran data-local.
    pub map_locality: f64,
    /// Map output records (pre-shuffle).
    pub map_output_records: usize,
    /// Scheduler-level task attempts re-run after a failure or crash.
    pub retries: u64,
    /// Speculative backup copies launched for stragglers.
    pub speculative: u64,
}

/// A map task: one split in, records out (`(K, V)` pairs ahead of a
/// shuffle, output rows in a map-only job).
pub type Mapper<'a, I, P> = dyn Fn(&I, &mut Vec<P>) -> Result<()> + Sync + 'a;

/// A reduce task's inner step: one key group in, output rows out.
pub type Reducer<'a, K, V, O> = dyn Fn(&K, &[V]) -> Result<Vec<O>> + Sync + 'a;

fn partition_of<K: Hash>(key: &K, parts: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % parts as u64) as usize
}

/// Retry budget for real pool execution, from the scheduler's plan.
fn pool_attempts(scheduler: &VirtualScheduler) -> usize {
    scheduler.fault_plan().map_or(1, |p| p.max_attempts.max(1))
}

/// Run a full map/shuffle/reduce job with the default hash partitioner.
///
/// * `mapper` — consumes one split, emitting `(K, V)` pairs;
/// * `pair_bytes` — modeled serialized size of one pair (drives spill and
///   shuffle volume);
/// * `reducer` — consumes one key group, emitting output records;
/// * `reduce_tasks` — number of reduce partitions (≥ 1);
/// * `parallelism` — how many tasks run at once on the pool.
///
/// Outputs are returned partition-by-partition, keys ascending within
/// each partition — deterministic for a fixed `reduce_tasks`.
///
/// # Errors
/// The lowest-indexed failing task's own error, or typed failures from
/// the pool (a task panicking past its retry budget) or the scheduler
/// (retry exhaustion, cluster-wide outage).
pub fn run_map_reduce<I, K, V, O>(
    inputs: Vec<JobInput<I>>,
    mapper: &Mapper<I, (K, V)>,
    pair_bytes: &(dyn Fn(&K, &V) -> u64 + Sync),
    reducer: &Reducer<K, V, O>,
    reduce_tasks: usize,
    scheduler: &mut VirtualScheduler,
    parallelism: usize,
) -> Result<(Vec<O>, JobStats)>
where
    I: Sync,
    K: Ord + Hash + Send + Sync,
    V: Send + Sync,
    O: Send,
{
    run_map_reduce_partitioned(
        inputs,
        mapper,
        pair_bytes,
        reducer,
        reduce_tasks,
        &partition_of::<K>,
        scheduler,
        parallelism,
    )
}

/// [`run_map_reduce`] with an explicit partitioner (`(key, parts) →
/// partition`) — the similarity self-join needs round-robin partitions.
///
/// # Errors
/// As [`run_map_reduce`].
#[allow(clippy::too_many_arguments)]
pub fn run_map_reduce_partitioned<I, K, V, O>(
    inputs: Vec<JobInput<I>>,
    mapper: &Mapper<I, (K, V)>,
    pair_bytes: &(dyn Fn(&K, &V) -> u64 + Sync),
    reducer: &Reducer<K, V, O>,
    reduce_tasks: usize,
    partitioner: &(dyn Fn(&K, usize) -> usize + Sync),
    scheduler: &mut VirtualScheduler,
    parallelism: usize,
) -> Result<(Vec<O>, JobStats)>
where
    I: Sync,
    K: Ord + Hash + Send + Sync,
    V: Send + Sync,
    O: Send,
{
    assert!(
        reduce_tasks > 0,
        "a map/reduce job needs at least one reducer"
    );
    scheduler.reset();
    let pool = WorkerPool::global();
    let attempts = pool_attempts(scheduler);
    let map_tasks = inputs.len();

    // ---- map phase (real execution, measured) --------------------------
    let map_results = pool.run_contained(
        parallelism,
        map_tasks,
        attempts,
        scheduler.metrics(),
        &|i| {
            let mut pairs = Vec::new();
            mapper(&inputs[i].data, &mut pairs).map(|()| pairs)
        },
    )?;

    let mut map_sim = Vec::with_capacity(map_tasks);
    let mut partitions: Vec<BTreeMap<K, Vec<V>>> =
        (0..reduce_tasks).map(|_| BTreeMap::new()).collect();
    let mut partition_bytes = vec![0u64; reduce_tasks];
    let mut map_output_records = 0usize;
    for ((pairs, compute), input) in map_results.into_iter().zip(inputs) {
        let pairs = pairs?;
        let mut spill = 0u64;
        map_output_records += pairs.len();
        for (k, v) in pairs {
            let b = pair_bytes(&k, &v);
            spill += b;
            let p = partitioner(&k, reduce_tasks).min(reduce_tasks - 1);
            partition_bytes[p] += b;
            partitions[p].entry(k).or_default().push(v);
        }
        map_sim.push(SimTask {
            input_bytes: input.bytes,
            locality: input.hosts,
            compute,
            output_bytes: spill,
            shuffle_bytes: 0,
        });
    }
    let map_phase = scheduler.try_run_phase(&map_sim, Duration::ZERO)?;
    let shuffle_bytes: u64 = partition_bytes.iter().sum();

    // ---- reduce phase --------------------------------------------------
    let reduce_results = pool.run_contained(
        parallelism,
        reduce_tasks,
        attempts,
        scheduler.metrics(),
        &|p| {
            let mut out = Vec::new();
            for (k, vs) in &partitions[p] {
                out.extend(reducer(k, vs)?);
            }
            Ok(out)
        },
    )?;
    let mut reduce_sim = Vec::with_capacity(reduce_tasks);
    let mut outputs = Vec::new();
    for ((out, compute), bytes) in reduce_results.into_iter().zip(&partition_bytes) {
        reduce_sim.push(SimTask {
            // Reducers read the spilled map output from disk...
            input_bytes: *bytes,
            locality: Vec::new(),
            compute,
            output_bytes: 0,
            // ...after pulling it across the network.
            shuffle_bytes: *bytes,
        });
        outputs.extend(out?);
    }
    let reduce_phase = scheduler.try_run_phase(&reduce_sim, map_phase.end)?;

    let stats = JobStats {
        virtual_elapsed: reduce_phase.end,
        map_tasks,
        reduce_tasks,
        shuffle_bytes,
        network_bytes: map_phase.network_bytes + reduce_phase.network_bytes,
        map_locality: map_phase.locality_fraction,
        map_output_records,
        retries: map_phase.retries + reduce_phase.retries,
        speculative: map_phase.speculative + reduce_phase.speculative,
    };
    Ok((outputs, stats))
}

/// Run a map-only job (formats 2 and 3: no shuffle, no reduce).
///
/// # Errors
/// As [`run_map_reduce`].
pub fn run_map_only<I, O>(
    inputs: Vec<JobInput<I>>,
    mapper: &Mapper<I, O>,
    output_bytes_per_record: u64,
    scheduler: &mut VirtualScheduler,
    parallelism: usize,
) -> Result<(Vec<O>, JobStats)>
where
    I: Sync,
    O: Send,
{
    scheduler.reset();
    let map_tasks = inputs.len();
    let results = WorkerPool::global().run_contained(
        parallelism,
        map_tasks,
        pool_attempts(scheduler),
        scheduler.metrics(),
        &|i| {
            let mut out = Vec::new();
            mapper(&inputs[i].data, &mut out).map(|()| out)
        },
    )?;
    let mut sim = Vec::with_capacity(map_tasks);
    let mut outputs = Vec::new();
    let mut map_output_records = 0usize;
    for ((out, compute), input) in results.into_iter().zip(inputs) {
        let out = out?;
        sim.push(SimTask {
            input_bytes: input.bytes,
            locality: input.hosts,
            compute,
            output_bytes: out.len() as u64 * output_bytes_per_record,
            shuffle_bytes: 0,
        });
        map_output_records += out.len();
        outputs.extend(out);
    }
    let phase = scheduler.try_run_phase(&sim, Duration::ZERO)?;
    let stats = JobStats {
        virtual_elapsed: phase.end,
        map_tasks,
        reduce_tasks: 0,
        shuffle_bytes: 0,
        network_bytes: phase.network_bytes,
        map_locality: phase.locality_fraction,
        map_output_records,
        retries: phase.retries,
        speculative: phase.speculative,
    };
    Ok((outputs, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_cluster::{ClusterTopology, CostModel, FaultPlan, NodeCrash};

    fn sched(workers: usize) -> VirtualScheduler {
        VirtualScheduler::new(ClusterTopology {
            workers,
            slots_per_worker: 2,
            cost: CostModel::mapreduce(),
        })
    }

    fn word_count_inputs() -> Vec<JobInput<Vec<String>>> {
        vec![
            JobInput {
                data: vec!["a b a".into(), "c".into()],
                bytes: 10,
                hosts: vec![0],
            },
            JobInput {
                data: vec!["b b".into()],
                bytes: 4,
                hosts: vec![1],
            },
        ]
    }

    fn word_count(scheduler: &mut VirtualScheduler) -> (Vec<(String, u64)>, JobStats) {
        run_map_reduce(
            word_count_inputs(),
            &|lines: &Vec<String>, emit: &mut Vec<(String, u64)>| {
                for line in lines {
                    for w in line.split_whitespace() {
                        emit.push((w.to_string(), 1));
                    }
                }
                Ok(())
            },
            &|k, _| k.len() as u64 + 8,
            &|k, vs| Ok(vec![(k.clone(), vs.iter().sum::<u64>())]),
            2,
            scheduler,
            2,
        )
        .unwrap()
    }

    #[test]
    fn word_count_is_correct() {
        let mut scheduler = sched(2);
        let (mut out, stats) = word_count(&mut scheduler);
        out.sort();
        assert_eq!(
            out,
            vec![
                ("a".to_string(), 2),
                ("b".to_string(), 3),
                ("c".to_string(), 1)
            ]
        );
        assert_eq!(stats.map_tasks, 2);
        assert_eq!(stats.reduce_tasks, 2);
        assert_eq!(stats.map_output_records, 6);
        assert!(stats.shuffle_bytes > 0);
        assert!(stats.virtual_elapsed > Duration::ZERO);
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn word_count_survives_a_node_crash() {
        let mut plan = FaultPlan::default();
        plan.crashes.push(NodeCrash {
            node: 1,
            at: Duration::ZERO,
        });
        let mut scheduler = sched(2).with_fault_plan(plan);
        let (mut out, stats) = word_count(&mut scheduler);
        out.sort();
        assert_eq!(
            out,
            vec![
                ("a".to_string(), 2),
                ("b".to_string(), 3),
                ("c".to_string(), 1)
            ],
            "results must be exact even with a dead node"
        );
        assert!(stats.virtual_elapsed > Duration::ZERO);
        assert_eq!(scheduler.dead_nodes(), vec![1]);
    }

    #[test]
    fn map_only_has_no_shuffle() {
        let mut scheduler = sched(2);
        let inputs = vec![
            JobInput {
                data: vec![1u64, 2, 3],
                bytes: 24,
                hosts: vec![0],
            },
            JobInput {
                data: vec![4u64],
                bytes: 8,
                hosts: vec![1],
            },
        ];
        let (mut out, stats) = run_map_only(
            inputs,
            &|xs: &Vec<u64>, emit: &mut Vec<u64>| {
                emit.extend(xs.iter().map(|x| x * 10));
                Ok(())
            },
            8,
            &mut scheduler,
            2,
        )
        .unwrap();
        out.sort();
        assert_eq!(out, vec![10, 20, 30, 40]);
        assert_eq!(stats.shuffle_bytes, 0);
        assert_eq!(stats.reduce_tasks, 0);
        assert_eq!(stats.map_locality, 1.0);
    }

    #[test]
    fn map_only_is_faster_than_map_reduce_for_same_work() {
        // The Figure 16-vs-13 effect: skipping the shuffle wins.
        let inputs: Vec<JobInput<Vec<u64>>> = (0..8)
            .map(|i| JobInput {
                data: vec![i; 1000],
                bytes: 8 * 1024 * 1024,
                hosts: vec![(i % 4) as usize],
            })
            .collect();
        let mut s1 = sched(4);
        let (_, mr) = run_map_reduce(
            inputs.clone(),
            &|xs: &Vec<u64>, emit: &mut Vec<(u64, u64)>| {
                emit.extend(xs.iter().map(|&x| (x, 1)));
                Ok(())
            },
            &|_, _| 16,
            &|k, vs| Ok(vec![(*k, vs.len() as u64)]),
            4,
            &mut s1,
            2,
        )
        .unwrap();
        let mut s2 = sched(4);
        let (_, mo) = run_map_only(
            inputs,
            &|xs: &Vec<u64>, emit: &mut Vec<(u64, u64)>| {
                let mut count = 0;
                let mut key = 0;
                for &x in xs {
                    key = x;
                    count += 1;
                }
                emit.push((key, count));
                Ok(())
            },
            16,
            &mut s2,
            2,
        )
        .unwrap();
        assert!(
            mo.virtual_elapsed < mr.virtual_elapsed,
            "map-only {:?} should beat map/reduce {:?}",
            mo.virtual_elapsed,
            mr.virtual_elapsed
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut scheduler = sched(2);
            word_count(&mut scheduler).0
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "at least one reducer")]
    fn zero_reducers_panics() {
        let mut scheduler = sched(1);
        let _ = run_map_reduce::<Vec<String>, String, u64, ()>(
            vec![],
            &|_, _| Ok(()),
            &|_, _| 0,
            &|_, _| Ok(vec![]),
            0,
            &mut scheduler,
            1,
        );
    }
}
