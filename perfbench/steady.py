#!/usr/bin/env python3
"""Steadiness check: run each workload on several seeds, in two sets, and
compare the sets metric by metric.

    python3 perfbench/steady.py [--workloads paper-tune,wide-dag]
                                [--seeds 1-10] [--sets 2]

Run from the repository root. Each run is `perfbench/run.py --trace 0` with
the BENCHMARK.json run length. For every end-to-end metric of every workload it prints each
set's median and quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median, and how far the last set's median moved against the
first set's, next to the metric's bound. A spread above a third of the bound,
or a move against the metric's direction by more than the bound, is flagged.
Raw values go to .bench_out/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit("steady.py: %s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    raw = {}
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in seeds:
                runs.append(run_once(workload, seed, bench["run_seconds"]))
                print("%s set %d seed %d done" % (workload, s + 1, seed), flush=True)
            sets.append(runs)
        raw[workload] = sets

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w") as f:
        json.dump({"seeds": seeds, "runs": raw}, f, indent=1)

    flagged = 0
    for workload, sets in raw.items():
        print("\n== %s (%d seeds x %d sets)" % (workload, len(seeds), len(sets)))
        print("%-30s %-6s %s" % ("metric", "bound", "per set: median [Q1, Q3] spread"))
        for name, spec in specs.items():
            bound = spec["bound"]
            cells, medians = [], []
            for runs in sets:
                values = [r[name] for r in runs]
                q1, med, q3 = summarize(values)
                spread = (q3 - q1) / med
                medians.append(med)
                mark = ""
                if spread > bound / 3:
                    mark = " !"
                    flagged += 1
                cells.append("%.6g [%.6g, %.6g] %.1f%%%s" % (med, q1, q3, 100 * spread, mark))
            move = ""
            if len(medians) > 1:
                change = (medians[-1] - medians[0]) / medians[0]
                worse = change if spec["better"] == "lower" else -change
                move = " | move %+.1f%%%s" % (100 * change, " WORSE" if worse > bound else "")
                if worse > bound:
                    flagged += 1
            print("%-30s %-6s %s%s" % (name, bound, " | ".join(cells), move))
    print("\n%d flag(s)" % flagged)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
