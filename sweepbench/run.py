#!/usr/bin/env python3
"""Sweep benchmark: one named workload through the library's public sweep
drivers, end to end (--trace 0) or with per-layer spans (--trace 1).

    python3 sweepbench/run.py --workload storm-geant --seed 22280 \
        --seconds 15 --trace 0

Run from the root of a checkout.  The first run builds sweepbench/ (a CMake
package compiling ../src) into .bench_build/sweepbench; later runs only
check the build.  The last line of standard output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and its
per-layer metrics for --trace 1.  The line before it carries provenance
(compiler, build type, PR_OBS_DISABLED, CPU counts, git describe) and the
host-speed probe taken before and after the benchmark process.  The full
record, and for --trace 1 the spans as chrome://tracing JSON, are written
under .bench_build/sweepbench/results/.

A run is correct when every driver call digests identically, the untimed
oracle prefix re-prices bit-identically through the full-re-route mode, the
traced replica reproduces the driver bit for bit with layer spans covering
at least 95% of cell time, the spans load as a chrome trace, the metric
names and units match BENCHMARK.json, and -- with a workload's scenario
list, at its default seed or at any seed when the seed changes nothing --
the result digest equals the one in digests.json.  An incorrect run counts
every attempted scenario as failed.

--scenarios and --setup-reps shrink a run for the smoke test (smoke_test.py);
the digest check then does not apply.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sweepbench")
RESULTS = os.path.join(BUILD, "results")
# The benchmark process must leave time for the build check and probes
# within the run's 180-second budget.
PROCESS_TIMEOUT_S = 160


def log(message):
    print("sweepbench: " + message, file=sys.stderr, flush=True)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scenarios", type=int, default=0,
                        help="scenarios per driver call (default: the workload's list)")
    parser.add_argument("--setup-reps", type=int, default=0,
                        help="set-ups per run (default: the workload's count)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.scenarios < 0 or args.setup_reps < 0:
        parser.error("--seed, --scenarios and --setup-reps must be >= 0, --seconds >= 1")
    return args


def build():
    """Configures once, then builds; all tool output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if done.returncode != 0:
            log("build failed: " + " ".join(step))
            sys.exit(2)


def probe():
    done = subprocess.run([os.path.join(BUILD, "host_probe")], capture_output=True,
                          text=True, timeout=60)
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_describe():
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                              capture_output=True, text=True, cwd=ROOT, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    out = done.stdout.strip()
    return out if done.returncode == 0 and out else "unavailable (not a git checkout)"


def expected_metrics(trace):
    """(name, unit) pairs the result must carry, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_chrome_trace(path):
    """The spans must load as chrome://tracing JSON: complete events with a
    name, a lane and non-negative times."""
    with open(path) as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    if not events:
        return "trace has no events"
    for e in events:
        if e.get("ph") != "X" or not isinstance(e.get("name"), str) or "tid" not in e:
            return "malformed trace event"
        if not (e["ts"] >= 0 and e["dur"] >= 0):
            return "negative trace time"
    return None


def check(record, trace, trace_path):
    """Every reason the run is not correct (empty when it is)."""
    if "error" in record:
        return [record["error"]]
    errors = []
    checks = record["checks"]
    if trace:
        for key in ("replica_identical", "telemetry_identical", "replica_hops_match",
                    "coverage_ok"):
            if not checks[key]:
                errors.append("traced check failed: " + key)
        trace_error = check_chrome_trace(trace_path)
        if trace_error:
            errors.append(trace_error)
    else:
        if not checks["calls_identical"]:
            errors.append("driver calls digested differently")
        if checks["oracle_prefix"] != "ok":
            errors.append(checks["oracle_prefix"])
    if record["default_list"] and (record["seed"] == record["default_seed"]
                                   or not record["seeded"]):
        with open(os.path.join(HERE, "digests.json")) as f:
            recorded = json.load(f).get(record["workload"], {})
        if (recorded.get("seed") != record["default_seed"]
                or recorded.get("digest") != record["digest"]):
            errors.append("result digest %s differs from the recorded %s"
                          % (record["digest"], recorded.get("digest")))
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in record["metrics"].items()}
    if got != want:
        errors.append("metric names or units differ from BENCHMARK.json")
    return errors


def main():
    args = parse_args()
    build()
    os.makedirs(RESULTS, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    trace_path = os.path.join(RESULTS, stem + ".chrome.json")
    command = [os.path.join(BUILD, "sweep_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.scenarios:
        command += ["--scenarios", str(args.scenarios)]
    if args.setup_reps:
        command += ["--setup-reps", str(args.setup_reps)]
    if args.trace:
        command += ["--trace-out", trace_path]

    probe_before = probe()
    started = time.monotonic()
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark process exceeded %d s" % PROCESS_TIMEOUT_S)
        sys.exit(3)
    wall_s = time.monotonic() - started
    probe_after = probe()
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("benchmark process failed with exit code %d" % done.returncode)
        sys.exit(3)
    record = json.loads(lines[-1])

    errors = check(record, args.trace, trace_path)
    attempted = max(1, int(record.get("attempted", 1)))
    record["provenance"] = dict(record.get("provenance", {}), git_describe=git_describe())
    record["host_probe"] = {"before": probe_before, "after": probe_after}
    record["process_wall_s"] = wall_s
    record["errors"] = errors
    with open(os.path.join(RESULTS, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    for e in errors:
        log("check failed: " + e)

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "provenance": record["provenance"], "host_probe": record["host_probe"]}))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": attempted if errors else 0,
                      "metrics": record.get("metrics", {})}))


if __name__ == "__main__":
    main()
