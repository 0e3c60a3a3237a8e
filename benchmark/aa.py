#!/usr/bin/env python3
"""A/A noise report: runs the benchmark twice over on the same build.

Two sets of runs per workload, interleaved (A1 B1 A2 B2 ...) so both see
the same drift of the machine, each run with its own seed.  Per workload
and end-to-end metric it prints both medians, their relative difference
and each set's quartiles, next to the metric's bound from
BENCHMARK.json — the same comparison the driver makes between a parent
commit and a change, here between a commit and itself.

    python3 benchmark/aa.py [--runs 5] [--seconds N] [--workload NAME]...
                            [--markdown benchmark/NOISE.md]

Run from the repository root.  Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed operations")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(workload, "seed", seed, " ".join(f"{k}={v:.5g}" for k, v in values.items()),
          file=sys.stderr, flush=True)
    return values


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (>= 2)")
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--markdown", help="also write the report to this file")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    command = manifest["command"]
    seconds = args.seconds or manifest["run_seconds"]
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    metrics = manifest["end_to_end"]

    out = []
    emit = lambda line="": (print(line, flush=True), out.append(line))
    emit("# A/A noise report")
    emit()
    emit(f"Two interleaved sets of {args.runs} runs per workload on one build, "
         f"{seconds} s each, seeds 1..{2 * args.runs} "
         f"(odd seeds set A, even seeds set B); `python3 benchmark/aa.py`, "
         f"{time.strftime('%Y-%m-%d')}.")
    emit()
    emit("`diff` is (median B − median A) ÷ median A, signed so that positive is "
         "worse; `spread` is (Q3 − Q1) ÷ median of all runs of both sets, quartiles "
         "as `statistics.quantiles(values, n=4)`.  A metric is steady when its "
         "spread is under a third of its bound and |diff| under half of it.")

    worst = 0.0
    for workload in workloads:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for offset, name in enumerate("AB"):
                seed = 2 * i + 1 + offset
                sets[name].append(run_once(command, workload, seed, seconds))
        emit()
        emit(f"## {workload}")
        emit()
        emit("| metric | bound | median A | median B | diff | Q1..Q3 A | Q1..Q3 B | spread |")
        emit("|---|---|---|---|---|---|---|---|")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a = [run[name] for run in sets["A"]]
            b = [run[name] for run in sets["B"]]
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            diff = (bm - am) / am
            if metric["better"] == "higher":
                diff = -diff
            q1, q2, q3 = quartiles(a + b)
            spread = (q3 - q1) / q2
            if name != "setup_s":
                worst = max(worst, spread / bound)
            worst = max(worst, diff / bound)
            emit(f"| {name} | {bound:.2f} | {am:.5g} | {bm:.5g} | {diff:+.2%} | "
                 f"{a1:.5g}..{a3:.5g} | {b1:.5g}..{b3:.5g} | {spread:.2%} |")
    emit()
    emit(f"Worst case: {worst:.0%} of a bound used.")

    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write("\n".join(out) + "\n")
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
