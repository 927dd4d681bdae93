#!/usr/bin/env python3
"""Smoke test of the sweep benchmark.

Every workload, shrunk to a few scenarios and one set-up, runs end to end and
traced through run.py; each run must finish within seconds, print a result
line of the benchmark's shape with finite metric values, and pass its output
checks (correct, nothing failed).  run.py's checks include the metric names
and units BENCHMARK.json lists for the mode.  Last, a directory holding only
BENCHMARK.json and sweepbench/ must make run.py exit non-zero without a
result line.

    python3 sweepbench/smoke_test.py

The first run builds the benchmark (see run.py), so it gets a longer budget.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCENARIOS = {"storm-geant": 60, "traffic-isp256-dual": 6}
FIRST_RUN_LIMIT_S = 900
RUN_LIMIT_S = 60
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def last_json_line(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def run_workload(workload, trace, limit_s):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--scenarios", str(SCENARIOS[workload]),
               "--setup-reps", "1"]
    label = "%s --trace %d" % (workload, trace)
    start = time.monotonic()
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=limit_s)
    elapsed = time.monotonic() - start
    if done.returncode != 0:
        fail("%s exited %d:\n%s" % (label, done.returncode, done.stderr[-2000:]))
    result = last_json_line(done.stdout)
    if result is None or set(result) != RESULT_KEYS:
        fail("%s: last line is not a result object" % label)
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s: output check failed:\n%s" % (label, done.stderr[-2000:]))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail("%s: metric %s is not a finite number" % (label, name))
    print("ok  %-32s %5.1f s" % (label, elapsed))


def run_without_sources():
    isolated = os.path.join(ROOT, ".bench_build", "smoke-without-sources")
    shutil.rmtree(isolated, ignore_errors=True)
    os.makedirs(isolated)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        shutil.copytree(HERE, os.path.join(isolated, "sweepbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable, "sweepbench/run.py", "--workload", "storm-geant",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=isolated, timeout=180)
    finally:
        shutil.rmtree(isolated, ignore_errors=True)
    result = last_json_line(done.stdout)
    if done.returncode == 0 or (result is not None and RESULT_KEYS <= set(result)):
        fail("run.py without library sources must fail without a result")
    print("ok  without sources: exit %d, no result" % done.returncode)


def main():
    limit = FIRST_RUN_LIMIT_S
    for workload in SCENARIOS:
        for trace in (0, 1):
            run_workload(workload, trace, limit)
            limit = RUN_LIMIT_S
    run_without_sources()
    print("smoke test passed")


if __name__ == "__main__":
    main()
