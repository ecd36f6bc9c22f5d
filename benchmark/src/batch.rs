//! Group `batch`: the paper's cold-start per-consumer tasks.
//!
//! Histogram, 3-line and PAR run over a **packed** `.smc` through a
//! fresh `BinaryStore::open` + `parallel::execute_task` over
//! `BinarySource` — process-cold (nothing decoded, no state kept between
//! rounds) with the file in the OS page cache, which the sandbox cannot
//! drop. In traced runs the cold 3-line run (load + run) on the four
//! platform twins follows; it feeds per-layer metrics only, because the
//! modeled clusters run a dozen threads on two CPUs and their times do
//! not repeat. Per-consumer fits (`core`) and block decode (`format`)
//! do the work here and the similarity kernels none; the twins are the
//! only guard on the other `ConsumerSource` implementations.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use smda_cluster::real::task_output_bits_eq;
use smda_cluster::{ClusterTopology, CostModel};
use smda_core::tasks::run_reference;
use smda_core::{Task, TaskOutput};
use smda_engines::parallel::{execute_task, ConsumerSource};
use smda_engines::{
    BinarySource, ColumnarEngine, Platform, RelationalEngine, RelationalLayout, RunSpec,
};
use smda_hive::HiveEngine;
use smda_obs::MetricsSink;
use smda_spark::SparkEngine;
use smda_storage::{BinaryEncoding, BinaryStore};
use smda_types::{ConsumerId, Dataset, Error, Result};

use crate::catalog::{Sizes, THREADS};
use crate::data;
use crate::harness::{Ctx, Group, Lap, Tally};
use crate::rng::{sub_seed, TOP_K};
use crate::trace::{Tracer, BENCH_LAYER};

const TASKS: [(Task, &str); 3] = [
    (Task::Histogram, "histogram_cold_s"),
    (Task::ThreeLine, "three_line_cold_s"),
    (Task::Par, "par_cold_s"),
];

/// One platform twin: display name, the layer its spans are charged to,
/// and the per-layer metrics its load and run times feed (a twin with
/// no separate load metric reports load + run under `run_metric`).
struct Twin {
    name: &'static str,
    layer: &'static str,
    load_metric: Option<&'static str>,
    run_metric: &'static str,
    build: fn(&Path) -> Box<dyn Platform>,
}

/// DFS block size of the two modeled-cluster twins.
const CLUSTER_BLOCK_BYTES: u64 = 1 << 20;

fn cluster(cost: CostModel) -> ClusterTopology {
    ClusterTopology {
        workers: 4,
        slots_per_worker: 12,
        cost,
    }
}

const TWINS: [Twin; 4] = [
    Twin {
        name: "relational",
        layer: "engines",
        load_metric: Some("engines.relational_load_s"),
        run_metric: "engines.relational_three_line_s",
        build: |dir| {
            Box::new(RelationalEngine::new(
                dir.join("relational"),
                RelationalLayout::ReadingPerRow,
            ))
        },
    },
    Twin {
        name: "columnar",
        layer: "engines",
        load_metric: Some("engines.columnar_load_s"),
        run_metric: "engines.columnar_three_line_s",
        build: |dir| Box::new(ColumnarEngine::new(dir.join("columnar"))),
    },
    Twin {
        name: "hive",
        layer: "hive",
        load_metric: None,
        run_metric: "hive.three_line_s",
        build: |_| {
            Box::new(HiveEngine::new(
                cluster(CostModel::mapreduce()),
                CLUSTER_BLOCK_BYTES,
            ))
        },
    },
    Twin {
        name: "spark",
        layer: "spark",
        load_metric: None,
        run_metric: "spark.three_line_s",
        build: |_| {
            Box::new(SparkEngine::new(
                cluster(CostModel::spark()),
                CLUSTER_BLOCK_BYTES,
            ))
        },
    },
];

/// One worker's `BinarySource`, with its block reads recorded as
/// `format` spans and the gaps between them — validation and the fit of
/// the consumer just read — as `core` spans, all under the
/// `execute_task` span that caused them.
struct TracedConsumers {
    inner: BinarySource,
    tracer: Arc<Tracer>,
    parent: u32,
    /// When the previous read returned, if one did.
    last_read_end: Option<u64>,
}

impl TracedConsumers {
    fn close_gap(&mut self) {
        if let Some(start) = self.last_read_end.take() {
            let now = self.tracer.now_ns();
            self.tracer
                .record("per_consumer_work", "core", self.parent, start, now);
        }
    }
}

impl Drop for TracedConsumers {
    fn drop(&mut self) {
        self.close_gap();
    }
}

impl ConsumerSource for TracedConsumers {
    fn consumer_ids(&mut self) -> Result<Vec<ConsumerId>> {
        self.inner.consumer_ids()
    }

    fn consumer_kwh(&mut self, id: ConsumerId) -> Result<&[f64]> {
        self.close_gap();
        let span = self.tracer.span("consumer_kwh", "format", self.parent);
        let kwh = self.inner.consumer_kwh(id);
        drop(span);
        self.last_read_end = Some(self.tracer.now_ns());
        kwh
    }

    fn temperature_year(&mut self) -> Result<&[f64]> {
        self.inner.temperature_year()
    }
}

pub struct Batch {
    n: usize,
    data_seed: u64,
    twins_data: Dataset,
    smc: PathBuf,
    twins_dir: PathBuf,
    /// Every round's task outputs, checked after the timing.
    outputs: Vec<(Task, TaskOutput)>,
    twin_outputs: Vec<(&'static str, TaskOutput)>,
}

impl Batch {
    /// Generate the consumers, write the packed file, and build the
    /// twins' dataset.
    pub fn setup(sizes: &Sizes, seed: u64, dir: &Path) -> Result<Batch> {
        let data_seed = sub_seed(seed, "batch");
        let smc = dir.join("batch.smc");
        data::write_smc(sizes.batch_n, data_seed, &[(&smc, BinaryEncoding::Packed)])?;
        Ok(Batch {
            n: sizes.batch_n,
            data_seed,
            twins_data: data::dataset(sizes.twins_n, sub_seed(seed, "twins"))?,
            smc,
            twins_dir: dir.join("twins"),
            outputs: Vec::new(),
            twin_outputs: Vec::new(),
        })
    }

    fn cold_task(&self, ctx: &Ctx, task: Task, traced: bool, parent: u32) -> Result<TaskOutput> {
        let store = {
            let _span = ctx.tracer.span("BinaryStore::open", "format", parent);
            Arc::new(BinaryStore::open(&self.smc)?)
        };
        // Reads and fits are child spans recorded per worker, so what
        // is left of this span is the engine's planning and fan-out.
        let span = ctx.tracer.span("execute_task", "engines", parent);
        let (tracer, parent) = (ctx.tracer.clone(), span.id());
        let make = move || -> Result<Box<dyn ConsumerSource>> {
            let inner = BinarySource::new(store.clone());
            Ok(if traced {
                Box::new(TracedConsumers {
                    inner,
                    tracer: tracer.clone(),
                    parent,
                    last_read_end: None,
                })
            } else {
                Box::new(inner)
            })
        };
        execute_task(&make, task, THREADS, TOP_K, &MetricsSink::disabled())
    }

    fn twins(&mut self, ctx: &Ctx, parent: u32, lap: &mut Lap) -> Result<()> {
        let spec = RunSpec::builder(Task::ThreeLine).threads(THREADS).build();
        let mut total = 0.0;
        for twin in &TWINS {
            std::fs::create_dir_all(&self.twins_dir)
                .map_err(|e| Error::io("create twins directory", e))?;
            let mut engine = (twin.build)(&self.twins_dir);
            let start = Instant::now();
            {
                let _span = ctx.tracer.span("Platform::load", twin.layer, parent);
                engine.load(&self.twins_data)?;
            }
            let load_s = start.elapsed().as_secs_f64();
            engine.make_cold();
            let start = Instant::now();
            let result = {
                let _span = ctx.tracer.span("Platform::run", twin.layer, parent);
                engine.run(&spec)?
            };
            let run_s = start.elapsed().as_secs_f64();
            total += load_s + run_s;
            match twin.load_metric {
                Some(load_metric) => {
                    lap.push(load_metric, load_s);
                    lap.push(twin.run_metric, run_s);
                }
                None => lap.push(twin.run_metric, load_s + run_s),
            }
            self.twin_outputs.push((twin.name, result.output));
            drop(engine);
            std::fs::remove_dir_all(&self.twins_dir)
                .map_err(|e| Error::io("remove twins directory", e))?;
        }
        lap.push("engines.twins_three_line_s", total);
        Ok(())
    }
}

impl Group for Batch {
    fn round_key(&self) -> &'static str {
        "round_s.batch"
    }

    fn round(&mut self, ctx: &Ctx, traced: bool, parent: u32, lap: &mut Lap) -> Result<()> {
        for (task, metric) in TASKS {
            let span = ctx.tracer.span(metric, BENCH_LAYER, parent);
            let output = lap.time(metric, || self.cold_task(ctx, task, traced, span.id()))?;
            self.outputs.push((task, output));
        }
        if !ctx.trace_mode {
            // The twins feed per-layer metrics only.
            return Ok(());
        }
        let span = ctx.tracer.span("twins_three_line", BENCH_LAYER, parent);
        self.twins(ctx, span.id(), lap)
    }

    /// Every round's outputs (the warm-up's too) against the single-threaded in-memory
    /// reference, bit for bit. The reference dataset comes straight from
    /// the generator, so a decode fault cannot cancel out.
    fn verify(&self, tally: &mut Tally) -> Result<()> {
        let reference = data::dataset(self.n, self.data_seed)?;
        for (task, _) in TASKS {
            let want = run_reference(task, &reference);
            for (_, got) in self.outputs.iter().filter(|(t, _)| *t == task) {
                tally.check(task_output_bits_eq(got, &want), || {
                    format!("{task} off the packed .smc differs from the reference")
                });
            }
        }
        let want = run_reference(Task::ThreeLine, &self.twins_data);
        for (name, got) in &self.twin_outputs {
            tally.check(task_output_bits_eq(got, &want), || {
                format!("3-line on the {name} twin differs from the reference")
            });
        }
        Ok(())
    }
}
