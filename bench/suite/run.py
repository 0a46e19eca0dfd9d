#!/usr/bin/env python3
"""Builds and runs the msq benchmark (bench/suite/msq_bench).

    python3 bench/suite/run.py --workload serve --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout. The first call configures and builds
msq_bench and the msq library from source into .bench_build/ at the root
(later calls rebuild incrementally). msq_bench's last output line, which
this script checks and repeats as its own last line, is one JSON object:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1; the traced pass's Chrome trace is written to
.bench_build/trace-<workload>-<seed>.json). Any failure, including a failed
correctness gate, exits non-zero without printing a result.

    python3 bench/suite/run.py --smoke [--binary PATH]

runs every workload at smoke scale, traced and untraced, and checks only
the correctness gates, the JSON shape and the Chrome trace (the
bench_suite_smoke test).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "msq_bench"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"msq sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SUITE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "msq_bench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def check_result(line, names, units):
    """Parses and checks one result line; returns the parsed object."""
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"last line is not JSON: {line!r}")
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys: {line!r}")
    if result["correct"] is not True:
        fail("result not marked correct")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"bad {key}: {result[key]!r}")
    if result["attempted"] < 1:
        fail("nothing attempted")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(names):
        fail(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    for name, entry in metrics.items():
        if sorted(entry) != ["unit", "value"] or entry["unit"] != units[name]:
            fail(f"bad metric entry {name}: {entry!r}")
        if not isinstance(entry["value"], (int, float)):
            fail(f"non-numeric {name}: {entry!r}")
    return result


def check_trace(path):
    """The Chrome trace parses and every span has a request and a parent."""
    try:
        events = json.loads(Path(path).read_text())["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"bad Chrome trace {path}: {e}")
    if not events:
        fail(f"empty Chrome trace {path}")
    ids = set()
    for event in events:
        args = event.get("args", {})
        if event.get("ph") != "X" or not {"id", "parent", "req"} <= set(args):
            fail(f"span without id/parent/req in {path}: {event!r}")
        ids.add(args["id"])
    for event in events:
        if event["args"]["parent"] not in ids | {0}:
            fail(f"span with unknown parent in {path}: {event!r}")


def run(binary, workload, seed, seconds, trace, scale="full"):
    """Runs one workload; returns (other output lines, result object)."""
    bench = spec()
    group = bench["per_layer"] if trace else bench["end_to_end"]
    names = [m["name"] for m in group]
    units = {m["name"]: m["unit"] for m in group}
    trace_out = BUILD / f"trace-{workload}-{seed}.json"
    cmd = [str(binary), f"workload={workload}", f"seed={seed}",
           f"seconds={seconds}", f"trace={1 if trace else 0}",
           f"scale={scale}", f"work_dir={BUILD / 'work'}",
           f"trace_out={trace_out if trace else ''}"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{workload}: {e}")
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if done.returncode != 0 or not lines:
        print("\n".join(lines))
        fail(f"{workload} exited with {done.returncode}")
    result = check_result(lines[-1], names, units)
    if trace:
        check_trace(trace_out)
    return lines[:-1], result


def smoke(binary):
    for workload in [w["name"] for w in spec()["workloads"]]:
        for trace in (False, True):
            _, result = run(binary, workload, 1, 1, trace, scale="smoke")
            print(f"smoke {workload} trace={int(trace)}: ok, "
                  f"{result['attempted']} attempted")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="prebuilt msq_bench (skips the build)")
    args = parser.parse_args()
    if args.seed < 1 or not args.seconds > 0:
        fail("--seed must be >= 1 and --seconds > 0")
    binary = args.binary
    if binary is None:
        build()
        binary = BINARY
    if args.smoke:
        smoke(binary)
        return
    if args.workload not in [w["name"] for w in spec()["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    lines, result = run(binary, args.workload, args.seed, args.seconds,
                        args.trace == 1)
    print("\n".join(lines))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
