//! `smda`: command-line interface to the smart meter analytics benchmark.
//!
//! ```text
//! smda generate --consumers 200 --out data/           # seed dataset (Format 1)
//! smda amplify  --seed 50 --consumers 5000 --out big/ # paper's generator
//! smda run histogram --data data/                     # run one task
//! smda convert --in data/ --out data.smc --verify     # CSV <-> SMC1 binary
//! smda bench fig7                                     # run an experiment
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use std::sync::Arc;

use smda_bench::EXPERIMENT_IDS;
use smda_core::queries::task_output_results;
use smda_core::tasks::run_reference;
use smda_core::{DataGenerator, GeneratorConfig, SeedConfig, Task, TaskOutput};
use smda_ingest::SnapshotHandle;
use smda_serve::{ServeConfig, Server};
use smda_types::{
    BitEq, ConsumerId, DataFormat, Dataset, FormatReader, FormatWriter, Query, QueryKind, Result,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let checked = |run: fn(&[String]) -> Result<()>| {
        check_flags(command, &args[1..]).and_then(|()| run(&args[1..]))
    };
    let result = match command.as_str() {
        "generate" => checked(generate),
        "amplify" => checked(amplify),
        "run" => checked(run_task_cmd),
        "convert" => checked(convert),
        "cut" => checked(cut),
        "merge" => checked(merge),
        "ingest" => checked(ingest),
        "serve" => checked(serve),
        "worker" => checked(worker),
        "bench" => bench(&args[1..]),
        "--help" | "-h" | "help" => {
            eprintln!("{}", usage());
            Ok(())
        }
        other => {
            eprintln!("unknown command `{other}`");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if let smda_types::Error::BadFormat {
                defect: smda_types::FormatDefect::UnsupportedVersion { supported, .. },
                ..
            } = e
            {
                eprintln!(
                    "hint: this build reads .smc version {supported} only; re-create the file \
                     with `smda convert` (or `smda generate --smc`)"
                );
            }
            ExitCode::FAILURE
        }
    }
}

/// The flags each subcommand reads — those that take a value, then the
/// bare switches. [`check_flags`] refuses any other `--flag`: a misspelled
/// flag is an error, not a default. (`bench` is not here: `BenchArgs` parses
/// it, under the same rule.)
const FLAGS: &[(&str, &str, &str)] = &[
    ("generate", "--consumers --seed --out --smc --encoding", ""),
    ("amplify", "--seed --consumers --out", ""),
    ("run", "--data --format", ""),
    ("convert", "--in --out --encoding --format", "--verify"),
    ("cut", "--in --shards --consumers --out", ""),
    ("merge", "--out", ""),
    (
        "ingest",
        "--consumers --shards --lateness --jitter --seed --speedup --wal --faults --smc --encoding",
        "--skip-dirty --serve",
    ),
    (
        "serve",
        "--consumers --seed --data --format --query",
        "--json",
    ),
    ("worker", "--bind", ""),
];

fn invalid(msg: String) -> smda_types::Error {
    smda_types::Error::Invalid(msg)
}

/// Every `--flag` among `args` is one `command` reads, and has its value
/// if it takes one.
fn check_flags(command: &str, args: &[String]) -> Result<()> {
    let Some(&(_, valued, switches)) = FLAGS.iter().find(|(name, ..)| *name == command) else {
        return Err(invalid(format!("`smda {command}` has no flag table")));
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            continue;
        }
        if valued.split(' ').any(|flag| flag == arg) {
            if args.next().is_none() {
                return Err(invalid(format!("`{arg}` needs a value")));
            }
        } else if !switches.split(' ').any(|flag| flag == arg) {
            let known = format!("{valued} {switches}");
            return Err(invalid(format!(
                "unknown flag `{arg}` for `smda {command}`; it reads: {}",
                known.trim_end()
            )));
        }
    }
    Ok(())
}

fn usage() -> String {
    format!(
        "smda — smart meter data analytics benchmark (EDBT 2015 reproduction)

commands:
  generate [--consumers N] [--seed S] [--out DIR]  synthesize a seed dataset
           [--smc FILE.smc [--encoding raw|packed]]
                                                   (--smc streams rows straight into an
                                                   SMC1 file: no CSV, O(1) memory in N)
  amplify [--seed N] [--consumers M] [--out DIR]   amplify via the paper's generator
  run TASK [--data DIR] [--format f1|f2]           run histogram|three-line|par|similarity
                                                   (--data also accepts an .smc file)
  convert --in SRC --out DST [--encoding raw|packed] [--format f1|f2] [--verify]
                                                   CSV dir -> .smc file or .smc -> CSV dir
                                                   (--verify re-reads and bit-compares)
  cut --in FILE.smc (--shards N | --consumers IDS) [--out PREFIX]
                                                   re-shard: round-robin into N files, or
                                                   extract the comma-separated ids
  merge --out FILE.smc SHARD.smc...                join disjoint shards into one file
  ingest [--consumers N] [--shards N] [--lateness H] [--jitter H] [--seed S]
         [--speedup X] [--wal DIR] [--faults SPEC] [--skip-dirty] [--serve]
         [--smc PATH [--encoding raw|packed]]      replay a generated year through the
                                                   streaming pipeline, then run all tasks
                                                   (--smc seals the snapshot to an SMC1
                                                   binary file after the replay; --serve
                                                   answers live queries from the published
                                                   snapshot afterwards)
  serve [--consumers N] [--seed S | --data DIR [--format f1|f2]] [--json]
        [--query KIND:CONSUMER[:K]]...             seal a year, publish it, and answer
                                                   typed queries (top_k_similar|histogram|
                                                   three_line|par|anomaly)
  worker [--bind ADDR]                             serve map/shuffle/reduce RPCs for a
                                                   real-transport coordinator (prints the
                                                   bound address, runs until Shutdown)
  bench [--smoke|--small|--full] [--json PATH] [--faults SPEC]
        [EXPERIMENT...]                            regenerate tables/figures ({})",
        EXPERIMENT_IDS.join(" ")
    )
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The value of flag `name`, or `default` when the flag is absent. A value
/// that does not parse is an error naming the flag and the text — never
/// the default.
fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T> {
    flag(args, name).map_or(Ok(default), |text| {
        let refused = |_| invalid(format!("`{name} {text}`: `{text}` is not a valid number"));
        text.parse().map_err(refused)
    })
}

fn out_dir(args: &[String]) -> PathBuf {
    flag(args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("data"))
}

fn generate(args: &[String]) -> Result<()> {
    let consumers = parse_flag(args, "--consumers", 100usize)?;
    let seed = parse_flag(args, "--seed", 2014u64)?;
    let config = SeedConfig {
        consumers,
        seed,
        ..Default::default()
    };
    if let Some(path) = flag(args, "--smc") {
        // Streaming fast path: each generated household-year goes
        // straight into the SMC1 writer and is dropped — no CSV, no
        // in-memory dataset — so the output size is bounded by disk,
        // not RAM. Rows are bit-identical to the materialized path.
        let encoding = parse_encoding(args)?;
        let start = Instant::now();
        let mut writer = smda_format::SmcWriter::create_with(
            &path,
            consumers,
            smda_types::HOURS_PER_YEAR,
            encoding.into(),
        )?;
        let temp = smda_core::generator::generate_seed_streaming(&config, &mut |id, readings| {
            writer.append_consumer(id, readings)
        })?;
        writer.temperature(temp.values())?;
        let summary = writer.finish()?;
        println!(
            "streamed {} consumers ({} readings, {encoding:?}) to {path} ({} bytes) in {:.3}s",
            summary.consumers,
            summary.consumers * smda_types::HOURS_PER_YEAR,
            summary.file_bytes,
            start.elapsed().as_secs_f64()
        );
        return Ok(());
    }
    let dir = out_dir(args);
    let ds = smda_core::generator::generate_seed(&config)?;
    FormatWriter::new(&dir)?.write(&ds, DataFormat::ReadingPerLine)?;
    let stats = ds.stats();
    println!(
        "wrote {} consumers ({} readings, mean annual {:.0} kWh) to {}",
        stats.consumers,
        stats.readings,
        stats.mean_annual_kwh,
        dir.display()
    );
    Ok(())
}

fn amplify(args: &[String]) -> Result<()> {
    let seed_consumers = parse_flag(args, "--seed", 50usize)?;
    let consumers = parse_flag(args, "--consumers", 1000usize)?;
    let dir = out_dir(args);
    let seed = smda_core::generator::generate_seed(&SeedConfig {
        consumers: seed_consumers,
        ..Default::default()
    })?;
    let generator = DataGenerator::train(&seed, GeneratorConfig::default())?;
    let ds = generator.generate(consumers, seed.temperature(), 0)?;
    FormatWriter::new(&dir)?.write(&ds, DataFormat::ReadingPerLine)?;
    println!(
        "amplified {seed_consumers}-consumer seed to {consumers} consumers at {}",
        dir.display()
    );
    Ok(())
}

/// True when `path` names an `SMC1` binary file rather than a CSV dir.
fn is_smc(path: &std::path::Path) -> bool {
    path.extension()
        .is_some_and(|e| e.eq_ignore_ascii_case(smda_format::SMC_EXTENSION))
}

fn load_dataset(args: &[String]) -> Result<Dataset> {
    let dir = flag(args, "--data")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("data"));
    if is_smc(&dir) {
        // Binary path: every platform runs off the same .smc file.
        return smda_storage::BinaryStore::open(dir)?.read_all();
    }
    let format = match flag(args, "--format").as_deref() {
        Some("f2") => DataFormat::ConsumerPerLine,
        _ => DataFormat::ReadingPerLine,
    };
    FormatReader::new(dir).read(format)
}

fn parse_encoding(args: &[String]) -> Result<smda_storage::BinaryEncoding> {
    match flag(args, "--encoding").as_deref() {
        Some("raw") => Ok(smda_storage::BinaryEncoding::Raw),
        Some("packed") | None => Ok(smda_storage::BinaryEncoding::Packed),
        Some(other) => Err(smda_types::Error::Invalid(format!(
            "unknown encoding `{other}`; expected raw|packed"
        ))),
    }
}

fn read_any(path: &std::path::Path, format: DataFormat) -> Result<Dataset> {
    if is_smc(path) {
        smda_storage::BinaryStore::open(path)?.read_all()
    } else {
        FormatReader::new(path).read(format)
    }
}

fn convert(args: &[String]) -> Result<()> {
    let src = flag(args, "--in")
        .map(PathBuf::from)
        .ok_or_else(|| smda_types::Error::Invalid("convert needs --in SRC".into()))?;
    let dst = flag(args, "--out")
        .map(PathBuf::from)
        .ok_or_else(|| smda_types::Error::Invalid("convert needs --out DST".into()))?;
    let format = match flag(args, "--format").as_deref() {
        Some("f2") => DataFormat::ConsumerPerLine,
        _ => DataFormat::ReadingPerLine,
    };
    let ds = read_any(&src, format)?;
    let start = Instant::now();
    if is_smc(&dst) {
        let encoding = parse_encoding(args)?;
        let store = smda_storage::BinaryStore::create(&dst, &ds, encoding)?;
        let summary = store.verify()?;
        println!(
            "wrote {} consumers to {} ({} bytes, {} raw / {} packed blocks) in {:.3}s",
            summary.consumers,
            dst.display(),
            summary.file_bytes,
            summary.raw_blocks,
            summary.packed_blocks,
            start.elapsed().as_secs_f64()
        );
    } else {
        FormatWriter::new(&dst)?.write(&ds, format)?;
        println!(
            "wrote {} consumers to {} in {:.3}s",
            ds.len(),
            dst.display(),
            start.elapsed().as_secs_f64()
        );
    }
    if args.iter().any(|a| a == "--verify") {
        let back = read_any(&dst, format)?;
        if !ds.bits_eq(&back) {
            return Err(smda_types::Error::Invalid(format!(
                "verify failed: {} does not reproduce the input bit-for-bit",
                dst.display()
            )));
        }
        println!("verify: {} reproduces the input bit-for-bit", dst.display());
    }
    Ok(())
}

fn cut(args: &[String]) -> Result<()> {
    let src = flag(args, "--in")
        .map(PathBuf::from)
        .ok_or_else(|| smda_types::Error::Invalid("cut needs --in FILE.smc".into()))?;
    if let Some(shards) = flag(args, "--shards") {
        let shards: usize = shards
            .parse()
            .map_err(|_| smda_types::Error::Invalid("--shards needs a number".into()))?;
        if shards == 0 {
            return Err(smda_types::Error::Invalid("--shards must be > 0".into()));
        }
        let prefix = flag(args, "--out")
            .unwrap_or_else(|| src.with_extension("").to_string_lossy().into_owned());
        let ids = smda_storage::BinaryStore::open(&src)?.consumer_ids()?;
        for s in 0..shards {
            let keep: Vec<ConsumerId> = ids.iter().copied().skip(s).step_by(shards).collect();
            let out = PathBuf::from(format!("{prefix}-{s}.smc"));
            let summary = smda_format::ops::cut(&src, &out, &keep)?;
            println!(
                "shard {s}: {} consumers, {} bytes -> {}",
                summary.consumers,
                summary.file_bytes,
                out.display()
            );
        }
    } else {
        let spec = flag(args, "--consumers").ok_or_else(|| {
            smda_types::Error::Invalid("cut needs --shards N or --consumers ID,ID,...".into())
        })?;
        let keep: Vec<ConsumerId> = spec
            .split(',')
            .map(|v| {
                v.trim()
                    .parse()
                    .map(ConsumerId)
                    .map_err(|_| smda_types::Error::Invalid(format!("bad consumer id `{v}`")))
            })
            .collect::<Result<_>>()?;
        let out = flag(args, "--out")
            .map(PathBuf::from)
            .ok_or_else(|| smda_types::Error::Invalid("cut --consumers needs --out".into()))?;
        let summary = smda_format::ops::cut(&src, &out, &keep)?;
        println!(
            "cut {} consumers ({} bytes) -> {}",
            summary.consumers,
            summary.file_bytes,
            out.display()
        );
    }
    Ok(())
}

fn merge(args: &[String]) -> Result<()> {
    let out = flag(args, "--out")
        .map(PathBuf::from)
        .ok_or_else(|| smda_types::Error::Invalid("merge needs --out FILE.smc".into()))?;
    let mut inputs = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            it.next();
        } else if !a.starts_with("--") {
            inputs.push(PathBuf::from(a));
        }
    }
    if inputs.is_empty() {
        return Err(smda_types::Error::Invalid(
            "merge needs at least one input shard".into(),
        ));
    }
    let summary = smda_format::ops::merge(&inputs, &out)?;
    println!(
        "merged {} shards into {} ({} consumers, {} bytes)",
        inputs.len(),
        out.display(),
        summary.consumers,
        summary.file_bytes
    );
    Ok(())
}

fn run_task_cmd(args: &[String]) -> Result<()> {
    let task = match args.first().map(String::as_str) {
        Some("histogram") => Task::Histogram,
        Some("three-line") | Some("3line") => Task::ThreeLine,
        Some("par") => Task::Par,
        Some("similarity") => Task::Similarity,
        other => {
            return Err(smda_types::Error::Invalid(format!(
                "unknown task {:?}; expected histogram|three-line|par|similarity",
                other.unwrap_or("<none>")
            )));
        }
    };
    let ds = load_dataset(&args[1..])?;
    let start = Instant::now();
    let output = run_reference(task, &ds);
    let elapsed = start.elapsed();
    println!(
        "{task} over {} consumers in {:.3}s",
        ds.len(),
        elapsed.as_secs_f64()
    );
    summarize(&output);
    Ok(())
}

/// Render a batch output through the same typed [`smda_types::QueryResult`]
/// vocabulary the serving layer speaks — one stable line per consumer.
fn summarize(output: &TaskOutput) {
    for result in task_output_results(output).iter().take(3) {
        println!("  {result}");
    }
    if let TaskOutput::ThreeLine(_) = output {
        // `run_reference` fitted on this thread's arena, which kept the
        // time: what a fit cost is no part of what it returns.
        let [t1, t2, t3] = smda_core::with_fit_scratch(|scratch| scratch.take_phase_times());
        println!(
            "  phases: T1 {:.3}s T2 {:.3}s T3 {:.3}s",
            t1.as_secs_f64(),
            t2.as_secs_f64(),
            t3.as_secs_f64()
        );
    }
    println!("  ... {} results total", output.len());
}

/// Build the concrete [`Query`] for one kind against one household.
fn query_of(kind: QueryKind, consumer: ConsumerId, k: usize) -> Query {
    match kind {
        QueryKind::TopKSimilar => Query::TopKSimilar { consumer, k },
        QueryKind::Histogram => Query::Histogram { consumer },
        QueryKind::ThreeLineFeatures => Query::ThreeLineFeatures { consumer },
        QueryKind::ParCoefficients => Query::ParCoefficients { consumer },
        QueryKind::AnomalyStatus => Query::AnomalyStatus { consumer },
    }
}

/// Parse a `KIND:CONSUMER[:K]` query spec from the command line.
fn parse_query(spec: &str) -> Result<Query> {
    let mut parts = spec.split(':');
    let kind = parts
        .next()
        .and_then(QueryKind::parse)
        .ok_or_else(|| smda_types::Error::Invalid(format!("unknown query kind in `{spec}`")))?;
    let consumer = parts
        .next()
        .and_then(|v| v.parse().ok())
        .map(ConsumerId)
        .ok_or_else(|| {
            smda_types::Error::Invalid(format!("`{spec}` needs a numeric consumer id"))
        })?;
    let k = match parts.next() {
        None => smda_core::SIMILARITY_TOP_K,
        Some(v) => v
            .parse()
            .map_err(|_| smda_types::Error::Invalid(format!("`{spec}` has a non-numeric k")))?,
    };
    if parts.next().is_some() {
        return Err(smda_types::Error::Invalid(format!(
            "`{spec}` has a field past KIND:CONSUMER[:K]"
        )));
    }
    Ok(query_of(kind, consumer, k))
}

/// The epoch a pipeline configured to publish sealed its year at.
fn published(out: &smda_ingest::IngestOutcome) -> Result<u64> {
    out.published_epoch.ok_or_else(|| {
        smda_types::Error::Invalid("the pipeline sealed a year but published no epoch".into())
    })
}

/// Answer `queries` against a running server, one line per answer.
fn answer_queries(server: &Server, queries: &[Query], json: bool) {
    for &query in queries {
        match server.query(query) {
            Ok(result) if json => println!("{}", result.to_json()),
            Ok(result) => println!("  {result}"),
            Err(e) => println!("  {query}: declined ({e})"),
        }
    }
}

fn serve(args: &[String]) -> Result<()> {
    let seed = parse_flag(args, "--seed", 2014u64)?;
    let ds = if args.iter().any(|a| a == "--data") {
        load_dataset(args)?
    } else {
        let consumers = parse_flag(args, "--consumers", 100usize)?;
        smda_core::generator::generate_seed(&SeedConfig {
            consumers,
            seed,
            ..Default::default()
        })?
    };
    let handle = Arc::new(SnapshotHandle::new());
    let cfg = smda_ingest::IngestConfig::new()
        .with_detectors(Arc::new(smda_ingest::fit_detectors(&ds)))
        .with_publish(handle.clone());
    let events = smda_ingest::replay_events(
        &ds,
        &smda_ingest::ReplayConfig {
            jitter_hours: 0,
            seed,
        },
    );
    let start = Instant::now();
    let out = smda_ingest::run_pipeline(events, &cfg)?;
    let epoch = published(&out)?;
    println!(
        "sealed {} consumers and published epoch {epoch} in {:.3}s",
        ds.len(),
        start.elapsed().as_secs_f64()
    );

    let server = Server::start(handle, ServeConfig::default());
    let json = args.iter().any(|a| a == "--json");
    let mut queries = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--query" {
            let spec = it.next().ok_or_else(|| {
                smda_types::Error::Invalid("--query needs KIND:CONSUMER[:K]".into())
            })?;
            queries.push(parse_query(spec)?);
        }
    }
    if queries.is_empty() {
        // No explicit queries: demonstrate every query kind against the
        // first household.
        let first = ds.consumers()[0].id;
        queries = QueryKind::ALL
            .iter()
            .map(|&kind| query_of(kind, first, smda_core::SIMILARITY_TOP_K))
            .collect();
    }
    answer_queries(&server, &queries, json);
    Ok(())
}

fn ingest(args: &[String]) -> Result<()> {
    let consumers = parse_flag(args, "--consumers", 100usize)?;
    let seed = parse_flag(args, "--seed", 2014u64)?;
    let shards = parse_flag(args, "--shards", smda_ingest::config::DEFAULT_SHARDS)?;
    let lateness = parse_flag(
        args,
        "--lateness",
        smda_ingest::config::DEFAULT_ALLOWED_LATENESS,
    )?;
    let jitter = parse_flag(args, "--jitter", 12u32)?;
    let speedup = parse_flag(args, "--speedup", 0.0f64)?;

    let ds = smda_core::generator::generate_seed(&SeedConfig {
        consumers,
        seed,
        ..Default::default()
    })?;
    let mut cfg = smda_ingest::IngestConfig::new()
        .with_shards(shards)
        .with_allowed_lateness(lateness)
        .with_detectors(std::sync::Arc::new(smda_ingest::fit_detectors(&ds)));
    if args.iter().any(|a| a == "--skip-dirty") {
        cfg = cfg.with_policy(smda_types::DirtyDataPolicy::SkipAndCount);
    }
    if let Some(dir) = flag(args, "--wal") {
        cfg = cfg.with_wal_dir(dir);
    }
    if let Some(spec) = flag(args, "--faults") {
        cfg = cfg.with_faults(smda_cluster::FaultPlan::parse(&spec)?);
    }
    // Parsed up front, so a bad encoding fails before the replay.
    let smc_target = match flag(args, "--smc") {
        Some(path) => Some((PathBuf::from(path), parse_encoding(args)?)),
        None => None,
    };
    let handle = if args.iter().any(|a| a == "--serve") {
        let handle = Arc::new(SnapshotHandle::new());
        cfg = cfg.with_publish(handle.clone());
        Some(handle)
    } else {
        None
    };

    let events = smda_ingest::replay_events(
        &ds,
        &smda_ingest::ReplayConfig {
            jitter_hours: jitter,
            seed,
        },
    );
    println!(
        "replaying {} readings from {} consumers across {shards} shards \
         (jitter {jitter} h, lateness {lateness} h{})",
        events.len(),
        ds.len(),
        if speedup > 0.0 {
            format!(", {speedup}x speedup")
        } else {
            ", unthrottled".into()
        }
    );
    let start = Instant::now();
    let out = smda_ingest::run_pipeline(smda_ingest::throttle(events, speedup), &cfg)?;
    let elapsed = start.elapsed();
    let r = &out.report;
    println!(
        "ingested {} readings in {:.3}s ({:.0} readings/sec)",
        r.readings_in,
        elapsed.as_secs_f64(),
        r.readings_in as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    println!(
        "  late {} | duplicate {} | dirty {} | missing {} | dead-lettered {}",
        r.readings_late,
        r.readings_duplicate,
        r.readings_dirty,
        r.readings_missing,
        out.dead_letters.len()
    );
    println!(
        "  watermark lag {} h | chunks routed {} | backpressure stalls {} (hand-offs that \
         waited for a half-drained queue) | alerts {}",
        r.watermark_lag_hours,
        r.chunks_routed,
        r.backpressure_stalls,
        out.alerts.len()
    );
    if r.crashes_injected > 0 || r.failures_injected > 0 {
        println!(
            "  faults: {} crashes injected, {} recovered ({} WAL records replayed), \
             {} task failures",
            r.crashes_injected, r.crashes_recovered, r.wal_records_replayed, r.failures_injected
        );
    }
    for alert in out.alerts.iter().take(3) {
        println!(
            "  alert: {} hour {} {:?} ({:.2} kWh vs {:.2} expected, {:.1} sigma)",
            alert.consumer, alert.hour, alert.kind, alert.actual, alert.expected, alert.sigmas
        );
    }

    if let Some((path, encoding)) = &smc_target {
        let bytes = out.snapshot.write_smc(path, *encoding)?;
        println!("sealed year -> {} ({bytes} bytes)", path.display());
    }

    // The bridge: the sealed snapshot feeds the unchanged batch engines.
    let sink = smda_obs::MetricsSink::disabled();
    for task in Task::ALL {
        let start = Instant::now();
        let output = out
            .snapshot
            .run_task(task, 4, smda_core::SIMILARITY_TOP_K, &sink)?;
        println!(
            "sealed snapshot -> {task}: {} results in {:.3}s",
            output.len(),
            start.elapsed().as_secs_f64()
        );
    }

    // The online bridge: the same sealed snapshot, served live.
    if let Some(handle) = handle {
        let epoch = published(&out)?;
        println!("published epoch {epoch}; serving live queries:");
        let server = Server::start(handle, ServeConfig::default());
        let first = ds.consumers()[0].id;
        let queries: Vec<Query> = smda_types::QueryKind::ALL
            .iter()
            .map(|&kind| query_of(kind, first, smda_core::SIMILARITY_TOP_K))
            .collect();
        answer_queries(&server, &queries, false);
    }
    Ok(())
}

/// Worker mode: the other end of the real-transport wire. Forked by
/// [`smda_cluster::real::RealCluster`]; never run interactively.
fn worker(args: &[String]) -> Result<()> {
    let bind = flag(args, "--bind").unwrap_or_else(|| "127.0.0.1:0".to_string());
    smda_cluster::worker::serve(&bind)
}

fn bench(args: &[String]) -> Result<()> {
    let args = smda_bench::BenchArgs::parse(args.iter().cloned())?;
    if !args.gates.is_empty() {
        return Err(smda_types::Error::Invalid(
            "--check runs in the `smda-bench` binary: its allocation gates read that binary's \
             counting allocator"
                .into(),
        ));
    }
    args.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn message(result: Result<()>) -> String {
        match result {
            Err(smda_types::Error::Invalid(msg)) => msg,
            other => panic!("must be refused as invalid, got {other:?}"),
        }
    }

    #[test]
    fn a_value_that_does_not_parse_is_an_error_naming_flag_and_text() {
        // Each of these once ran with the default and exited 0.
        type Run = fn(&[String]) -> Result<()>;
        for (run, flag, text) in [
            (generate as Run, "--consumers", "abc"),
            (generate, "--seed", "-1"),
            (ingest, "--shards", "four"),
            (ingest, "--speedup", "fast"),
            (ingest, "--jitter", "4294967296"),
            (serve, "--consumers", "1e2"),
            (serve, "--seed", ""),
        ] {
            let msg = message(run(&args(&[flag, text])));
            assert!(
                msg.contains(flag) && msg.contains(&format!("`{text}`")),
                "{msg}"
            );
        }
    }

    #[test]
    fn a_flag_the_subcommand_does_not_read_is_an_error_listing_the_ones_it_does() {
        for (command, flag) in [
            ("generate", "--consumer"),
            ("ingest", "--shard"),
            ("ingest", "--json"),
            ("serve", "--queries"),
            ("serve", "--shards"),
        ] {
            let msg = message(check_flags(command, &args(&[flag, "3"])));
            assert!(msg.contains(&format!("unknown flag `{flag}`")), "{msg}");
            let (_, valued, switches) = FLAGS.iter().find(|(name, ..)| *name == command).unwrap();
            for known in valued.split(' ').chain(switches.split(' ')) {
                assert!(msg.contains(known), "{msg} does not list {known}");
            }
        }
        // A flag that takes a value and has none is refused too; a value
        // may look like a flag.
        let msg = message(check_flags("generate", &args(&["--consumers"])));
        assert!(msg.contains("needs a value"), "{msg}");
        let msg = message(check_flags("serve", &args(&["--json", "--query"])));
        assert!(msg.contains("needs a value"), "{msg}");
        assert!(check_flags("generate", &args(&["--out", "--odd-dir", "--seed", "7"])).is_ok());
        assert!(check_flags("merge", &args(&["a.smc", "--out", "b.smc", "c.smc"])).is_ok());
        let msg = message(check_flags("run", &args(&["par", "--dta", "data/"])));
        assert!(msg.contains("unknown flag `--dta`"), "{msg}");
    }

    #[test]
    fn every_flag_the_usage_names_is_one_its_subcommand_reads_and_the_reverse() {
        let usage = usage();
        // A subcommand's block: from the line that leads with its name to
        // the next line indented as little.
        let block = |name: &str| -> String {
            let lead = format!("  {name} ");
            let lines = usage.lines().skip_while(|l| !l.starts_with(&lead));
            let mut lines = lines.peekable();
            let first = lines
                .next()
                .unwrap_or_else(|| panic!("usage omits `{name}`"));
            let rest = lines.take_while(|l| l.starts_with("   "));
            std::iter::once(first)
                .chain(rest)
                .collect::<Vec<_>>()
                .join("\n")
        };
        for (name, valued, switches) in FLAGS {
            let text = block(name);
            let named: std::collections::BTreeSet<&str> = text
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|word| word.starts_with("--"))
                .collect();
            let read = valued.split(' ').chain(switches.split(' '));
            let read: std::collections::BTreeSet<&str> = read.filter(|f| !f.is_empty()).collect();
            assert_eq!(named, read, "smda {name}");
        }
    }

    #[test]
    fn a_query_spec_takes_three_fields_and_any_k() {
        let topk = |k| Query::TopKSimilar {
            consumer: ConsumerId(3),
            k,
        };
        assert_eq!(
            parse_query("topk:3").unwrap(),
            topk(smda_core::SIMILARITY_TOP_K)
        );
        assert_eq!(
            parse_query("topk:3:18446744073709551615").unwrap(),
            topk(usize::MAX)
        );
        // A fourth field used to be dropped without a word.
        let err = parse_query("topk:3:5:9").unwrap_err();
        assert!(matches!(err, smda_types::Error::Invalid(_)), "{err}");
    }

    mod query_spec_props {
        use super::*;
        use proptest::prelude::*;

        /// What a spec leads with: kind names and near misses.
        const KINDS: &[&str] = &[
            "topk",
            "similar",
            "histogram",
            "three_line",
            "par",
            "anomaly",
            "",
            "tpok",
            "topk\u{301}",
        ];

        /// Fields after it: numbers at and past the edges of `u32` and
        /// `usize`, and junk, multi-byte among it.
        const FIELDS: &[&str] = &[
            "0",
            "7",
            "12",
            "4294967295",
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
            "-1",
            "1e3",
            " ",
            "∞",
            "\u{0}",
        ];

        /// What joins two fields: the separator, or junk in its place.
        const JOINS: &[&str] = &[":", ":", ":", ":", ":", ":", "::", "ː", "\u{ff1a}"];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Every spec parses or is refused as `Error::Invalid`, and
            /// never panics; what parses has at most three fields.
            #[test]
            fn every_query_spec_parses_or_is_refused(
                kind in 0usize..KINDS.len(),
                rest in prop::collection::vec((0usize..JOINS.len(), 0usize..FIELDS.len()), 0..5),
            ) {
                let mut spec = KINDS[kind].to_owned();
                for &(join, field) in &rest {
                    spec.push_str(JOINS[join]);
                    spec.push_str(FIELDS[field]);
                }
                match parse_query(&spec) {
                    Ok(_) => prop_assert!(spec.split(':').count() <= 3, "{spec:?} parsed"),
                    Err(smda_types::Error::Invalid(_)) => {}
                    Err(other) => prop_assert!(false, "{spec:?}: untyped refusal {other:?}"),
                }
            }
        }
    }
}
