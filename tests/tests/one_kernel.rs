//! One kernel: a per-consumer task is one function of *(one consumer's
//! year, the temperature year)*, and every platform is a way of driving
//! it. Driven directly, through `run_reference`, through `execute_task` at
//! one and four threads, through the cluster's map → merge → collect, and
//! through the serving layer, it gives the same bits — and where a year
//! supports no model, every driver gives *no* result, not an empty one.

use std::sync::Arc;

use smda_cluster::worker::{decode_results, execute_map, execute_merge};
use smda_core::queries::lookup;
use smda_core::tasks::{collect_consumer_results, run_reference, ConsumerResult};
use smda_core::{ConsumerTask, Task, TaskOutput};
use smda_engines::parallel::{execute_task, ConsumerSource, MemorySource};
use smda_ingest::{replay_events, run_pipeline, IngestConfig, ReplayConfig, SnapshotHandle};
use smda_integration::fixture_dataset;
use smda_obs::MetricsSink;
use smda_serve::{ServeConfig, ServeError, Server};
use smda_stats::FitScratch;
use smda_types::{ConsumerId, Dataset, Query, TemperatureSeries, HOURS_PER_YEAR};

const PER_CONSUMER: [Task; 3] = [Task::Histogram, Task::ThreeLine, Task::Par];

/// The kernel with nothing around it: one arena, one loop.
fn direct(task: Task, ds: &Dataset) -> TaskOutput {
    let kernel = ConsumerTask::new(task, ds.temperature().values()).expect("a valid year binds");
    let mut scratch = FitScratch::new();
    let results: Vec<ConsumerResult> = ds
        .consumers()
        .iter()
        .filter_map(|c| {
            kernel
                .run(c.id, c.readings(), &mut scratch)
                .expect("a valid year passes the door")
        })
        .collect();
    TaskOutput::from_results(task, results)
}

fn batch(task: Task, ds: &Arc<Dataset>, threads: usize) -> TaskOutput {
    let data = ds.clone();
    execute_task(
        &move || Ok(Box::new(MemorySource::new(data.clone())) as Box<dyn ConsumerSource>),
        task,
        threads,
        smda_core::SIMILARITY_TOP_K,
        &MetricsSink::disabled(),
    )
    .expect("batch run succeeds")
}

/// Map in chunks of two, shuffle into three partitions, merge each,
/// collect — the cluster's decomposition, in process.
fn cluster(task: Task, ds: &Dataset) -> TaskOutput {
    let temps = ds.temperature().values();
    let mut spill: Vec<Vec<Vec<u8>>> = vec![Vec::new(); 3];
    for chunk in ds.consumers().chunks(2) {
        let chunk: Vec<(u32, Vec<f64>)> = chunk
            .iter()
            .map(|c| (c.id.raw(), c.readings().to_vec()))
            .collect();
        for (partition, payload) in execute_map(task, 3, temps, &chunk).expect("map runs") {
            spill[partition as usize].push(payload);
        }
    }
    let mut all = Vec::new();
    for payloads in &spill {
        let merged = execute_merge(payloads).expect("merge runs");
        all.extend(decode_results(&merged).expect("merged payload decodes"));
    }
    collect_consumer_results(task, all)
}

/// Seal `ds` through the streaming pipeline and serve it.
fn serve(ds: &Dataset) -> Server {
    let events = replay_events(
        ds,
        &ReplayConfig {
            jitter_hours: 0,
            seed: 5,
        },
    );
    let out = run_pipeline(events, &IngestConfig::new().with_shards(2)).expect("pipeline seals");
    let handle = Arc::new(SnapshotHandle::new());
    handle.publish(out.snapshot, HOURS_PER_YEAR as u32, Arc::new(out.alerts));
    Server::start(handle, ServeConfig::default())
}

fn query_for(task: Task, consumer: ConsumerId) -> Query {
    match task {
        Task::Histogram => Query::Histogram { consumer },
        Task::ThreeLine => Query::ThreeLineFeatures { consumer },
        Task::Par => Query::ParCoefficients { consumer },
        Task::Similarity => unreachable!("per-consumer tasks only"),
    }
}

#[test]
fn every_driver_of_the_kernel_gives_the_same_bits() {
    let ds = Arc::new(fixture_dataset(7));
    let server = serve(&ds);
    for task in PER_CONSUMER {
        let want = direct(task, &ds);
        assert_eq!(want.len(), ds.len(), "{task}");
        for (driver, got) in [
            ("run_reference", run_reference(task, &ds)),
            ("execute_task, 1 thread", batch(task, &ds, 1)),
            ("execute_task, 4 threads", batch(task, &ds, 4)),
            ("map → merge → collect", cluster(task, &ds)),
        ] {
            assert!(got.bits_eq(&want), "{task}: {driver} left the kernel");
        }
        for c in ds.consumers() {
            let query = query_for(task, c.id);
            let served = server.query(query).expect("served");
            let batch = lookup(&want, &query).expect("the kernel fitted every consumer");
            assert!(served.bits_eq(&batch), "{task}: served {query}");
        }
    }
}

#[test]
fn a_year_that_supports_no_model_has_no_result_from_any_driver() {
    // Constant weather: no two percentile points, so no 3-line model.
    let flat = TemperatureSeries::new(vec![11.5; HOURS_PER_YEAR]).expect("finite");
    let ds = Arc::new(
        Dataset::new(fixture_dataset(4).consumers().to_vec(), flat).expect("ids are unique"),
    );
    for (driver, got) in [
        ("the kernel", direct(Task::ThreeLine, &ds)),
        ("run_reference", run_reference(Task::ThreeLine, &ds)),
        ("execute_task, 1 thread", batch(Task::ThreeLine, &ds, 1)),
        ("execute_task, 4 threads", batch(Task::ThreeLine, &ds, 4)),
        ("map → merge → collect", cluster(Task::ThreeLine, &ds)),
    ] {
        assert!(got.is_empty(), "{driver} made up a model");
        assert_eq!(got.task(), Task::ThreeLine, "{driver}");
    }
    // Absent on the wire — no partition, no payload, no presence byte.
    let chunk: Vec<(u32, Vec<f64>)> = ds
        .consumers()
        .iter()
        .map(|c| (c.id.raw(), c.readings().to_vec()))
        .collect();
    let mapped = execute_map(Task::ThreeLine, 3, ds.temperature().values(), &chunk).unwrap();
    assert!(mapped.is_empty());
    // Typed online, and only for the task whose model is missing.
    let server = serve(&ds);
    for c in ds.consumers() {
        assert_eq!(
            server.query(query_for(Task::ThreeLine, c.id)),
            Err(ServeError::NoModel(c.id))
        );
        assert!(server.query(query_for(Task::Par, c.id)).is_ok());
    }
    // The other two tasks fit the same years, and agree as ever.
    for task in [Task::Histogram, Task::Par] {
        let want = direct(task, &ds);
        assert_eq!(want.len(), ds.len());
        assert!(batch(task, &ds, 4).bits_eq(&want), "{task}");
        assert!(cluster(task, &ds).bits_eq(&want), "{task}");
    }
}
