//! The bench command line, shared by `smda-bench` and `smda bench`.
//!
//! ```text
//! [--smoke|--small|--full] [--json PATH [--faults SPEC]]
//! [--check NAME[,NAME...]|all] [EXPERIMENT...]
//! ```
//!
//! [`BenchArgs::parse`] rejects everything it cannot run — unknown flags,
//! unknown experiment ids, `--faults` without `--json` — before any
//! experiment starts; [`BenchArgs::run`] writes the `--json` export or
//! runs the named experiments. `--check` is parsed here but run by the
//! `smda-bench` binary alone: the allocation legs of its gates read that
//! binary's counting allocator.

use std::path::{Path, PathBuf};

use smda_cluster::FaultPlan;
use smda_types::{Error, Result};

use crate::runner::{experiment, Gate, EXPERIMENT_IDS, GATES};
use crate::scale::Scale;

/// One parsed bench command line.
#[derive(Debug, Default)]
pub struct BenchArgs {
    /// Data scale (`--smoke`/`--small`, `--full`, or the default).
    pub scale: Scale,
    /// `--json PATH`: run the instrumented matrix and export it there.
    pub json_out: Option<PathBuf>,
    /// `--faults SPEC`: fault plan injected into the `--json` matrix.
    pub faults: Option<FaultPlan>,
    /// `--check`: the gates requested, in the order given.
    pub gates: Vec<(&'static str, Gate)>,
    /// Experiment ids to run; empty means the whole suite.
    pub ids: Vec<String>,
    /// `--help` was given; nothing else is kept.
    pub help: bool,
}

fn invalid(msg: impl Into<String>) -> Error {
    Error::Invalid(msg.into())
}

fn gate_names() -> String {
    let names: Vec<&str> = GATES.iter().map(|(name, _)| *name).collect();
    names.join(" ")
}

/// Resolve a `--check` argument (`all` or comma-separated gate names)
/// against the registry, or name the first unknown entry.
fn parse_gates(spec: &str) -> Result<Vec<(&'static str, Gate)>> {
    if spec == "all" {
        return Ok(GATES.to_vec());
    }
    spec.split(',')
        .map(|name| {
            GATES
                .iter()
                .find(|(known, _)| *known == name)
                .copied()
                .ok_or_else(|| {
                    invalid(format!(
                        "unknown gate `{name}`; known: all {}",
                        gate_names()
                    ))
                })
        })
        .collect()
}

/// The usage text both binaries print for `--help`.
fn usage() -> String {
    format!(
        "usage: [--smoke|--small|--full] [--json PATH [--faults SPEC]] \
         [--check NAME[,NAME...]|all] [EXPERIMENT...]\n\
         gates: {}\n\
         experiments: {}",
        gate_names(),
        EXPERIMENT_IDS.join(" ")
    )
}

impl BenchArgs {
    /// Parse the arguments after the program (or subcommand) name.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self> {
        let mut parsed = BenchArgs::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" | "--small" => parsed.scale = Scale::smoke(),
                "--full" => parsed.scale = Scale::full(),
                "--check" => {
                    let spec = args.next().ok_or_else(|| {
                        invalid(format!("--check needs a gate: all {}", gate_names()))
                    })?;
                    parsed.gates.extend(parse_gates(&spec)?);
                }
                "--json" => {
                    let path = args
                        .next()
                        .ok_or_else(|| invalid("--json needs an output path"))?;
                    parsed.json_out = Some(PathBuf::from(path));
                }
                "--faults" => {
                    let spec = args.next().ok_or_else(|| {
                        invalid("--faults needs a spec, e.g. seed=7,task_fail=0.1,crash=0@0.001")
                    })?;
                    parsed.faults = Some(FaultPlan::parse(&spec)?);
                }
                "--help" | "-h" => {
                    return Ok(BenchArgs {
                        help: true,
                        ..BenchArgs::default()
                    })
                }
                flag if flag.starts_with("--") => {
                    return Err(invalid(format!("unknown flag `{flag}`")));
                }
                id if experiment(id).is_some() => parsed.ids.push(id.to_string()),
                id => {
                    return Err(invalid(format!(
                        "unknown experiment `{id}`; known: {}",
                        EXPERIMENT_IDS.join(" ")
                    )));
                }
            }
        }
        if parsed.faults.is_some() && parsed.json_out.is_none() {
            return Err(invalid(
                "--faults only applies to the instrumented --json matrix",
            ));
        }
        Ok(parsed)
    }

    /// Do what the command line asks, `--check` aside: print the usage,
    /// write the `--json` export (that file and nothing else), or run
    /// the experiments — CSVs into `results/`, tables to stdout.
    pub fn run(&self) -> Result<()> {
        if self.help {
            eprintln!("{}", usage());
            return Ok(());
        }
        if let Some(path) = &self.json_out {
            let export = crate::run_json_bench_with(self.scale, self.faults.clone());
            std::fs::write(path, export.to_json_pretty())
                .map_err(|e| Error::io(format!("writing {}", path.display()), e))?;
            eprintln!(
                "wrote {} bench entries ({} runs) to {}",
                export.benches.len(),
                export.runs.len(),
                path.display()
            );
            return Ok(());
        }
        let ids: Vec<&str> = if self.ids.is_empty() {
            EXPERIMENT_IDS.to_vec()
        } else {
            self.ids.iter().map(String::as_str).collect()
        };
        let out_dir = Path::new("results");
        let mut written = 0;
        for id in ids {
            eprintln!("== running {id} ==");
            let run = experiment(id).expect("ids were resolved by parse");
            for t in run(self.scale) {
                t.write_csv(out_dir)?;
                println!("{}", t.to_markdown());
                written += 1;
            }
        }
        eprintln!("wrote {written} tables to {}", out_dir.display());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs> {
        BenchArgs::parse(args.iter().map(|a| a.to_string()))
    }

    fn message(args: &[&str]) -> String {
        parse(args).expect_err("must be rejected").to_string()
    }

    #[test]
    fn misspelled_flag_is_an_unknown_flag_not_an_experiment() {
        assert!(message(&["--chekc", "all"]).contains("unknown flag `--chekc`"));
    }

    #[test]
    fn faults_without_json_is_rejected() {
        assert!(message(&["--faults", "seed=7"]).contains("only applies to"));
        let ok = parse(&["--json", "x.json", "--faults", "seed=7"]).unwrap();
        assert!(ok.faults.is_some());
    }

    #[test]
    fn json_and_check_need_their_argument() {
        assert!(message(&["--json"]).contains("--json needs an output path"));
        assert!(message(&["--check"]).contains("--check needs a gate: all kernels"));
        assert!(message(&["--check", "fits,nope"]).contains("unknown gate `nope`"));
    }

    #[test]
    fn unknown_experiment_lists_the_known_ids() {
        let msg = message(&["fig7", "fig99"]);
        assert!(msg.contains("unknown experiment `fig99`"));
        assert!(msg.contains("ablations"));
    }

    #[test]
    fn ablations_aliases_and_gates_are_accepted() {
        let args = parse(&["--smoke", "ablations", "fig12", "--check", "all"]).unwrap();
        assert_eq!(args.ids, ["ablations", "fig12"]);
        assert_eq!(args.gates.len(), GATES.len());
        assert_eq!(args.scale.divisor, Scale::smoke().divisor);
    }
}
