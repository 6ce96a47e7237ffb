#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later calls
rebuild incrementally. The benchmark's report goes to stdout; its last line
is one JSON object {"correct", "attempted", "failed", "metrics"}. For the
default seeds in expected_digests.json the schedule digest must match the
committed one: a mismatch counts as one failed operation. The exit code is
0 only when every operation succeeded.

--record stores the observed digest as the expectation for this seed (use
it only after proving that a schedule change is intended).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
EXPECTED = os.path.join(HERE, "expected_digests.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--record", action="store_true",
                        help="store the observed digest as this seed's expectation")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit("run.py: benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])

    digest = None
    for line in lines[:-1]:
        print(line)
        fields = line.split()
        if len(fields) == 4 and fields[0] == "digest":
            digest = fields[3]

    expected = load_expected()
    per_workload = expected["digests"].setdefault(args.workload, {})
    want = per_workload.get(str(args.seed))
    if args.record:
        per_workload[str(args.seed)] = digest
        with open(EXPECTED, "w") as f:
            json.dump(expected, f, indent=2, sort_keys=True)
            f.write("\n")
        print("recorded digest %s for %s seed %d" % (digest, args.workload, args.seed))
    elif want is None:
        print("digest not checked: seed %d has no committed expectation" % args.seed)
    elif digest != want:
        print("DIGEST MISMATCH: %s seed %d gave %s, expected %s"
              % (args.workload, args.seed, digest, want))
        result["failed"] += 1
        result["correct"] = False
    else:
        print("digest matches the committed expectation")

    print(json.dumps(result))
    sys.exit(0 if result["correct"] and result["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
