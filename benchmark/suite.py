#!/usr/bin/env python3
"""Drive the benchmark the way BENCHMARK.json describes it, from the
repository root.

    python3 benchmark/suite.py run       [--seed 1] [--trace 0|1] [--workload NAME]...
    python3 benchmark/suite.py spread    [--seeds 10] [--first-seed 101] [--workload NAME]...
    python3 benchmark/suite.py selfcheck [--seed 1] [--held-out-seed 2] [--runs 3]

run        every workload once; prints each workload's metrics.
spread     every workload once per seed; prints for each end-to-end metric
           (Q3 - Q1) / median of its values by statistics.quantiles(n=4),
           the figure the driver computes. `!` marks a spread above a third
           of the metric's bound, `!!` one above the bound (exit code 1).
selfcheck  two sets of runs of every workload with one seed on the same
           build (--runs each, the sets interleaved); prints a metric x
           workload table of both medians and their ratio, fails if a pair
           disagrees by more than the metric's bound or a check failed; then
           one run with the held-out seed, recorded beside the first so later
           claims can be tested on inputs nobody tuned to.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}


def run(workload, seed, trace=0):
    """One run; returns ({metric: value}, wall seconds)."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    start = time.time()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no result line (exit code {done.returncode})")
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} "
                 f"checks failed (exit code {done.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}, time.time() - start


def cmd_run(args):
    for workload in args.workload or WORKLOADS:
        metrics, wall = run(workload, args.seed, args.trace)
        print(f"\n{workload} (seed {args.seed}, trace {args.trace}, {wall:.1f} s)")
        for name, value in metrics.items():
            print(f"  {name:40} {value:14.6g}")
    return 0


def cmd_spread(args):
    worst = 0.0
    for workload in args.workload or WORKLOADS:
        rows, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            metrics, wall = run(workload, seed)
            rows.append(metrics)
            walls.append(wall)
        print(f"\n{workload}: {args.seeds} seeds from {args.first_seed}, "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s")
        print(f"  {'metric':28} {'median':>14} {'spread':>8} {'bound':>6}")
        for name, spec in END_TO_END.items():
            q1, med, q3 = statistics.quantiles([r[name] for r in rows], n=4)
            spread, bound = (q3 - q1) / med, spec["bound"]
            mark = "!!" if spread > bound else "!" if spread > bound / 3 else ""
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:28} {med:14.6g} {spread:8.1%} {bound:6.0%} {mark}")
    print(f"\nworst spread / bound (setup_s aside): {worst:.2f}")
    return 0 if worst <= 1.0 else 1


def cmd_selfcheck(args):
    print(f"seed {args.seed}: two sets of {args.runs} run(s), then held-out seed "
          f"{args.held_out_seed}; {SPEC['run_seconds']} s per run")
    disagreements = 0
    for workload in WORKLOADS:
        sets = ([], [])
        for _ in range(args.runs):
            for side in sets:
                side.append(run(workload, args.seed)[0])
        held_out, _ = run(workload, args.held_out_seed)
        print(f"\n{workload}")
        print(f"  {'metric':28} {'first':>12} {'second':>12} {'ratio':>7} {'bound':>6} "
              f"{'held-out':>12}")
        for name, spec in END_TO_END.items():
            a, b = (statistics.median(r[name] for r in side) for side in sets)
            ratio = b / a
            off = max(ratio, 1 / ratio) - 1 > spec["bound"]
            disagreements += off
            print(f"  {name:28} {a:12.6g} {b:12.6g} {ratio:7.3f} {spec['bound']:6.0%} "
                  f"{held_out[name]:12.6g}{'  DISAGREE' if off else ''}")
    print(f"\nseeds: first {args.seed}, held-out {args.held_out_seed}; "
          f"{disagreements} pair(s) beyond their bound; every check passed")
    return 1 if disagreements else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.set_defaults(fn=cmd_run)
    p = sub.add_parser("spread")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=101)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.set_defaults(fn=cmd_spread)
    p = sub.add_parser("selfcheck")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--held-out-seed", type=int, default=2)
    p.add_argument("--runs", type=int, default=3, help="runs per set; medians are compared")
    p.set_defaults(fn=cmd_selfcheck)
    args = ap.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
