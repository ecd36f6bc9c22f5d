//! Hive's phases and Spark's stages run on the process's one persistent
//! pool — witnessed without a clock: across 128 stages the tasks meet
//! no more threads than the pool holds (plus the caller), and every one
//! of them that is not the caller carries a pool worker's name. A
//! thread spawned per stage would mint a fresh, unnamed `ThreadId` each
//! time.
//!
//! One test, alone in its binary, so the only threads in the process
//! are the caller's and the pool's.
#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::sync::{Arc, Barrier, Mutex};
use std::thread::{self, ThreadId};

use smda_cluster::{ClusterTopology, CostModel, VirtualScheduler};
use smda_engines::WorkerPool;
use smda_hive::{run_map_only, JobInput};
use smda_obs::MetricsSink;
use smda_spark::SparkContext;

const STAGES: u64 = 64;

/// Every thread a task ran on, with its name.
type Seen = Arc<Mutex<HashMap<ThreadId, Option<String>>>>;

fn note(seen: &Seen) {
    let me = thread::current();
    seen.lock()
        .expect("no task panics holding the map")
        .insert(me.id(), me.name().map(str::to_owned));
}

#[test]
fn hive_and_spark_stages_run_on_the_persistent_pool() {
    let seen = Seen::default();
    let topology = ClusterTopology {
        workers: 4,
        slots_per_worker: 2,
        cost: CostModel::mapreduce(),
    };

    for stage in 0..STAGES {
        let inputs: Vec<JobInput<u64>> = (0..4)
            .map(|split| JobInput {
                data: split,
                bytes: 8,
                hosts: vec![split as usize],
            })
            .collect();
        // Splits 0 and 1 wait for each other, so every stage really runs
        // on two threads at once: the caller and one more.
        let both = Barrier::new(2);
        let mut scheduler = VirtualScheduler::new(topology);
        let (mut out, _) = run_map_only(
            inputs,
            &|split: &u64, emit: &mut Vec<u64>| {
                note(&seen);
                if *split < 2 {
                    both.wait();
                }
                emit.push(split + 10 * stage);
                Ok(())
            },
            8,
            &mut scheduler,
            2,
        )
        .expect("a clean map-only job");
        out.sort_unstable();
        assert_eq!(out, (0..4).map(|s| s + 10 * stage).collect::<Vec<_>>());
    }
    let after_hive = seen.lock().expect("map").len();
    assert!(after_hive >= 2, "the barrier needs two threads");

    let sc = SparkContext::configured(topology, MetricsSink::disabled(), None);
    for stage in 0..STAGES {
        let seen = seen.clone();
        let out = sc
            .parallelize((0..16u64).collect(), 4)
            .map(move |x| {
                note(&seen);
                x + stage
            })
            .collect();
        assert_eq!(out, (0..16).map(|x| x + stage).collect::<Vec<_>>());
    }
    assert!(sc.take_error().is_none());

    let seen = seen.lock().expect("map");
    let pool = WorkerPool::global().size();
    assert!(
        seen.len() <= pool + 1,
        "{} stages ran on {} threads; the pool holds {pool}",
        2 * STAGES,
        seen.len()
    );
    let caller = thread::current().id();
    for (id, name) in seen.iter() {
        assert!(
            *id == caller || name.as_deref().is_some_and(|n| n.starts_with("smda-pool-")),
            "a task ran on {id:?} ({name:?}): neither the caller nor a pool worker"
        );
    }
}
