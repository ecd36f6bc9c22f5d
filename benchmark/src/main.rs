//! `smda-benchmark --workload NAME --seed N --seconds N --trace 0|1`
//!
//! Prints the result as the last line of standard output: one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exit code
//! 0 when every answer verified, 1 when one did not (the result line is
//! still printed, with `"correct": false`), 2 on a usage or run error
//! (no result line).

use std::path::PathBuf;
use std::process::ExitCode;

use smda_benchmark::catalog::WORKLOADS;
use smda_benchmark::workload::{run, Args};

const USAGE: &str =
    "usage: smda-benchmark --workload NAME --seed N --seconds N --trace 0|1 [--out DIR]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 45.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        sizes: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err(bad("between 0 and 3600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got `{}`",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let kind = if args.trace { "-trace" } else { "" };
    let report = args
        .out
        .join(format!("report-{}{kind}.json", args.workload));
    if let Err(e) = std::fs::write(&report, format!("{}\n", outcome.report)) {
        eprintln!("warning: cannot write {report:?}: {e}");
    }
    eprintln!(
        "workload {} seed {} trace {}: {} checked, {} failed{}; report in {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.tally.attempted,
        outcome.tally.failed,
        if outcome.noisy {
            "; NOISY: the calibrations drifted more than 10 % or more than 2 % of the CPU time was stolen"
        } else {
            ""
        },
        report.display(),
    );
    for failure in &outcome.tally.failures {
        eprintln!("  failed: {failure}");
    }
    println!("{}", outcome.result_line());
    ExitCode::from(outcome.tally.exit_code() as u8)
}
