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

use smda_bench::BenchArgs;

#[global_allocator]
static ALLOC: smda_bench::alloc::CountingAlloc = smda_bench::alloc::CountingAlloc;

fn main() {
    let args = match BenchArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    if !args.gates.is_empty() {
        let mut failed = Vec::new();
        for (name, gate) in &args.gates {
            match gate(args.scale) {
                Ok(msg) => eprintln!("{msg}"),
                Err(msg) => {
                    eprintln!("{name} check FAILED: {msg}");
                    failed.push(*name);
                }
            }
        }
        if failed.is_empty() {
            return;
        }
        eprintln!("gates failed: {}", failed.join(" "));
        std::process::exit(1);
    }

    if let Err(e) = args.run() {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
