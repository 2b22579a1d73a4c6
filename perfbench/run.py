#!/usr/bin/env python3
"""End-to-end benchmark of gter: one workload per call.

    python3 perfbench/run.py --workload batch-paper --seed 2018 \
        --seconds 20 --trace 0

Run from the root of a checkout. The first call builds the gter library,
gterd, gter_cli and the benchmark runner from source into .bench_build/
(a few minutes); later calls reuse that build. The runner's report lines
start with "# "; the last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} holding
every end-to-end metric of BENCHMARK.json with --trace 0, and every
per-layer metric with --trace 1.

Exit status: the runner's (0 = every output check passed, 1 = a check
failed); 2 when the checkout cannot be built or the run cannot start; 3
when the run overran its time limit; 4 when the result line does not match
BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then brings the three binaries up to date."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(2, "no gter sources next to perfbench/ in " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench_runner", "gterd", "gter_cli"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(2, "build failed: %s" % err)
        if done.returncode != 0:
            fail(2, "build failed: %s" % " ".join(step))


def complete(result, trace):
    """Orders the runner's metrics as BENCHMARK.json declares them.

    Every end-to-end metric must be present. A per-layer metric the runner
    did not report belongs to a layer the workload never runs and reads 0.
    Returns None when the runner's metrics do not match the declaration.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    if set(measured) - {m["name"] for m in declared}:
        return None
    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None and not trace:
            return None
        if got is not None and got.get("unit") != m["unit"]:
            return None
        metrics[m["name"]] = got or {"value": 0, "unit": m["unit"]}
    return dict(result, metrics=metrics)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail(2, "--seed must be >= 0 and --seconds > 0")

    build()
    workdir = os.path.join(BUILD, "work")
    os.makedirs(workdir, exist_ok=True)
    command = [
        os.path.join(BUILD, "perfbench_runner"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir,
        "--gterd", os.path.join(BUILD, "gter", "tools", "gterd"),
        "--gter_cli", os.path.join(BUILD, "gter", "tools", "gter_cli"),
    ]
    # The runner stops and reaps the gterd children it starts. It runs in
    # its own process group so that, should it ever hang, the timeout ends
    # it together with any child it left.
    try:
        runner = subprocess.Popen(command, stdout=subprocess.PIPE,
                                  stderr=sys.stderr, text=True,
                                  start_new_session=True)
    except OSError as err:
        fail(2, "cannot start the runner: %s" % err)
    try:
        stdout, _ = runner.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(runner.pid, signal.SIGKILL)
        runner.communicate()
        fail(3, "run exceeded %d s" % RUN_TIMEOUT_S)

    lines = stdout.rstrip("\n").split("\n")
    if runner.returncode not in (0, 1):
        sys.stdout.write(stdout)
        fail(2, "runner exited with %d" % runner.returncode)
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            result = None
        else:
            result = complete(result, args.trace)
    except (ValueError, KeyError, TypeError, AttributeError):
        result = None
    if result is None:
        fail(4, "result line does not carry the metrics BENCHMARK.json "
                "declares")
    print(json.dumps(result))
    sys.exit(runner.returncode)


if __name__ == "__main__":
    main()
