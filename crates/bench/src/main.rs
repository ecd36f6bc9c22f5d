//! `smda-bench`: regenerate the paper's tables and figures.
//!
//! ```text
//! smda-bench                 # run the full suite at the default scale
//! smda-bench fig7 fig9       # run selected experiments
//! smda-bench --smoke         # fastest scale (CI smoke)
//! smda-bench --full fig4     # the paper's true sizes (hours!)
//! smda-bench --json out.json --small   # instrumented matrix -> JSON export
//! smda-bench --json out.json --faults seed=7,task_fail=0.1,crash=0@0.001
//! smda-bench --smoke --check all       # every equivalence gate (ci.sh)
//! smda-bench --smoke --check simd,oooc # just the named ones
//! ```
//!
//! CSVs land in `results/`; tables are printed as markdown. With
//! `--json <path>`, the instrumented platform × task matrix runs instead
//! and its phase timings/counters land at `path` in the
//! `smda-bench/v1` format (see `smda_obs::BenchExport`). `--faults SPEC`
//! injects a deterministic fault plan into the cluster engines of that
//! matrix (see `smda_cluster::FaultPlan::parse` for the spec grammar).

use std::path::{Path, PathBuf};

use smda_bench::{
    run_all, run_experiment, run_json_bench_with, Gate, Scale, DEFAULT_HISTORY_PATH,
    EXPERIMENT_IDS, GATES, REGRESSION_THRESHOLD,
};
use smda_cluster::FaultPlan;

#[global_allocator]
static ALLOC: smda_bench::alloc::CountingAlloc = smda_bench::alloc::CountingAlloc;

fn epoch_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Seed the history with an already-recorded `BENCH_*.json` export: the
/// entry is labeled by file stem and stamped with the file's mtime so
/// the backfilled trajectory keeps its original order.
fn backfill_history(file: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(file)
        .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    let export = smda_obs::BenchExport::parse(&text)
        .map_err(|e| format!("{} is not a bench export: {e}", file.display()))?;
    let stem = file
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "backfill".into());
    let mtime_ms = std::fs::metadata(file)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let commit = smda_bench::CommitInfo {
        id: format!("backfill:{stem}"),
        message: format!("backfilled from {stem}.json"),
        timestamp: "unknown".into(),
    };
    let mut entry = smda_bench::entry_from_export(&export, commit, mtime_ms);
    // The export predates the history and does not say what hardware
    // recorded it, so it must never gate a fresh run's wall times.
    entry.machine = "unknown".into();
    smda_bench::append_history(Path::new(DEFAULT_HISTORY_PATH), entry)
}

fn gate_names() -> String {
    let names: Vec<&str> = GATES.iter().map(|(name, _)| *name).collect();
    names.join(" ")
}

/// Resolve a `--check` argument (`all` or comma-separated gate names)
/// against the registry, or name the first unknown entry.
fn parse_gates(spec: &str) -> Result<Vec<(&'static str, Gate)>, String> {
    if spec == "all" {
        return Ok(GATES.to_vec());
    }
    spec.split(',')
        .map(|name| {
            GATES
                .iter()
                .find(|(known, _)| *known == name)
                .copied()
                .ok_or_else(|| format!("unknown gate `{name}`; known: all {}", gate_names()))
        })
        .collect()
}

fn main() {
    let mut scale = Scale::default();
    let mut ids: Vec<String> = Vec::new();
    let mut json_out: Option<PathBuf> = None;
    let mut faults: Option<FaultPlan> = None;
    let mut gates: Vec<(&str, Gate)> = Vec::new();
    let mut history_check: Option<PathBuf> = None;
    let mut backfills: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" | "--small" => scale = Scale::smoke(),
            "--full" => scale = Scale::full(),
            "--check" => match args.next().as_deref().map(parse_gates) {
                Some(Ok(requested)) => gates.extend(requested),
                Some(Err(msg)) => {
                    eprintln!("{msg}");
                    std::process::exit(2);
                }
                None => {
                    eprintln!("--check needs a gate: all {}", gate_names());
                    std::process::exit(2);
                }
            },
            "--check-history" => match args.next() {
                Some(path) => history_check = Some(PathBuf::from(path)),
                None => history_check = Some(PathBuf::from(DEFAULT_HISTORY_PATH)),
            },
            "--backfill-history" => match args.next() {
                Some(path) => backfills.push(PathBuf::from(path)),
                None => {
                    eprintln!("--backfill-history needs a BENCH_*.json path");
                    std::process::exit(2);
                }
            },
            "--json" => match args.next() {
                Some(path) => json_out = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--json needs an output path");
                    std::process::exit(2);
                }
            },
            "--faults" => match args.next() {
                Some(spec) => match FaultPlan::parse(&spec) {
                    Ok(plan) => faults = Some(plan),
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                },
                None => {
                    eprintln!("--faults needs a spec, e.g. seed=7,task_fail=0.1,crash=0@0.001");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: smda-bench [--smoke|--small|--full] [--json PATH] [--faults SPEC] \
                     [--check NAME[,NAME...]|all] [--check-history PATH] \
                     [--backfill-history FILE] [EXPERIMENT...]\n\
                     gates: {}\n\
                     experiments: {}",
                    gate_names(),
                    EXPERIMENT_IDS.join(" ")
                );
                return;
            }
            id => ids.push(id.to_string()),
        }
    }

    if faults.is_some() && json_out.is_none() {
        eprintln!("--faults only applies to the instrumented --json matrix");
        std::process::exit(2);
    }

    for file in &backfills {
        match backfill_history(file) {
            Ok(total) => eprintln!(
                "backfilled {} into {} ({total} entries)",
                file.display(),
                DEFAULT_HISTORY_PATH
            ),
            Err(e) => {
                eprintln!("backfill of {} failed: {e}", file.display());
                std::process::exit(1);
            }
        }
    }
    if !backfills.is_empty()
        && json_out.is_none()
        && ids.is_empty()
        && gates.is_empty()
        && history_check.is_none()
    {
        return;
    }

    if let Some(path) = history_check {
        match smda_bench::check_history(&path, REGRESSION_THRESHOLD) {
            Ok(msg) => {
                eprintln!("{msg}");
                return;
            }
            Err(msg) => {
                eprintln!("bench history gate FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }

    if !gates.is_empty() {
        let mut failed = Vec::new();
        for (name, gate) in gates {
            match gate(scale) {
                Ok(msg) => eprintln!("{msg}"),
                Err(msg) => {
                    eprintln!("{name} check FAILED: {msg}");
                    failed.push(name);
                }
            }
        }
        if failed.is_empty() {
            return;
        }
        eprintln!("gates failed: {}", failed.join(" "));
        std::process::exit(1);
    }

    if let Some(path) = json_out {
        let export = run_json_bench_with(scale, faults);
        if let Err(e) = std::fs::write(&path, export.to_json_pretty()) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "wrote {} bench entries ({} runs) to {}",
            export.benches.len(),
            export.runs.len(),
            path.display()
        );
        // Continuous tracking: every instrumented run lands one
        // normalized entry in the history the regression gate reads.
        let entry =
            smda_bench::entry_from_export(&export, smda_bench::CommitInfo::from_git(), epoch_ms());
        let history = Path::new(DEFAULT_HISTORY_PATH);
        match smda_bench::append_history(history, entry) {
            Ok(total) => eprintln!(
                "appended entry to {} ({total} entries tracked)",
                history.display()
            ),
            Err(e) => {
                eprintln!("history append failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let out_dir = PathBuf::from("results");
    let tables = if ids.is_empty() {
        run_all(scale, &out_dir)
    } else {
        let mut all = Vec::new();
        for id in &ids {
            match run_experiment(id, scale) {
                Some(tables) => {
                    for t in &tables {
                        t.write_csv(&out_dir)
                            .expect("results directory is writable");
                    }
                    all.extend(tables);
                }
                None => {
                    eprintln!(
                        "unknown experiment `{id}`; known: {}",
                        EXPERIMENT_IDS.join(" ")
                    );
                    std::process::exit(2);
                }
            }
        }
        all
    };

    for t in &tables {
        println!("{}", t.to_markdown());
    }
    eprintln!("wrote {} tables to {}", tables.len(), out_dir.display());
}
