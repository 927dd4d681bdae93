#!/usr/bin/env python3
"""Validate emitted BENCH_*.json files.

Replaces the inline grep checks that used to live in .github/workflows/ci.yml:
every file must parse as JSON, carry a "bench" field, and -- for benches with
a schema registered below -- contain every required key somewhere in the
document (nested objects and arrays included).  Presence-of-key is the right
strength for this gate: the benches assert their own numeric invariants
(bit-identity, oracle convergence) and exit non-zero when they fail, so CI
only needs to catch a bench silently dropping a reporting column.

Usage: check_bench_json.py [FILE...]
Defaults to every BENCH_*.json in the current directory; fails when none
exist, when a file does not parse, or when a required key is missing.
"""

import glob
import json
import sys

REQUIRED_KEYS = {
    "route_batch": [
        "topology",
        "results",
        "batch_stats_ns_per_flow",
        "batch_full_trace_ns_per_flow",
        "speedup_stats_vs_per_packet",
        # Looping row (walks taken from the walk log until the TTL guard,
        # per packet and batched, checked against the hop-by-hop walk before
        # timing).
        "looping",
        "per_packet_ns_per_hop",
        "batch_stats_ns_per_hop",
        "batch_full_trace_ns_per_hop",
    ],
    "parallel_sweep": [
        "threads",
        "scenarios",
        "serial_ms",
        "speedup_vs_serial",
    ],
    "spf_incremental": [
        "topologies",
        "incremental_ms",
        "full_ms",
        "geomean_speedup_single_geant_or_larger",
    ],
    "traffic_sweep": [
        "topologies",
        "ms_incremental",
        "speedup_incremental",
        "affected_flow_fraction",
        "protocols",
        # Telemetry section (obs counters aggregated over the sweep executor).
        "telemetry",
        "cache_hit_rate",
        "counters",
        "per_worker",
        "utilization",
    ],
    "backbone": [
        "scales",
        "repair_speedup",
        "scenarios_per_second",
        "peak_rss_mb",
        # Per-scale attribution + telemetry section.
        "phase_ms",
        "telemetry",
        "cache_hit_rate",
        "repair_fraction",
        "counters",
        "per_worker",
        "utilization",
    ],
    "failure_storms": [
        "scenarios",
        "catalog_groups",
        "disconnecting_groups",
        "oracle",
        "sampled_mean_max_utilization",
        "threads",
        "scenarios_per_second",
        "bit_identical_across_threads",
        "protocols",
        "utilization_quantiles",
        "stretch_quantiles",
        "worst",
        # Resilience section (deadline + checkpoint/resume leg).
        "resilience",
        "stop_reason",
        "completed_units",
        "resumed",
        "bit_identical_after_resume",
        "peak_rss_mb",
        # Telemetry section (obs counters, overhead probe, bit-identity).
        "telemetry",
        "cache_hit_rate",
        "repair_fraction",
        "counters",
        "per_worker",
        "utilization",
        "telemetry_overhead_fraction",
        "telemetry_bit_identical",
    ],
}


def collect_keys(node, out):
    if isinstance(node, dict):
        for key, value in node.items():
            out.add(key)
            collect_keys(value, out)
    elif isinstance(node, list):
        for value in node:
            collect_keys(value, out)


def check(path):
    """Returns a list of problems with `path` (empty when it passes)."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        return [f"unreadable or invalid JSON: {err}"]

    bench = doc.get("bench") if isinstance(doc, dict) else None
    if not isinstance(bench, str):
        return ['missing or non-string "bench" field']

    required = REQUIRED_KEYS.get(bench)
    if required is None:
        print(f"{path}: bench '{bench}' has no registered schema; parse-checked only")
        return []

    keys = set()
    collect_keys(doc, keys)
    return [f'missing required key "{k}" (bench "{bench}")'
            for k in required if k not in keys]


def main(argv):
    files = argv[1:] or sorted(glob.glob("BENCH_*.json"))
    if not files:
        print("check_bench_json: no BENCH_*.json files found", file=sys.stderr)
        return 1

    failed = False
    for path in files:
        problems = check(path)
        if problems:
            failed = True
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
