#!/usr/bin/env python3
"""Validates the observability artifacts the obs contract produces.

Checks three kinds of files:
  --prometheus FILE   Prometheus text exposition: every sample line must
                      parse, every series must be preceded by # HELP/# TYPE,
                      histogram _bucket series must be cumulative and agree
                      with _count, and every --require-metric name must be
                      present.
  --trace FILE        Chrome trace_event JSON: an object with a traceEvents
                      list of complete ("ph":"X") events carrying name/cat/
                      ts/dur/tid.
  --bench-json FILE   bench_common.h BenchJsonWriter output: a JSON array of
                      flat records, each with a bench name and, when
                      --require-key is given, those keys.

Exits non-zero with a message on the first violation.
"""

import argparse
import json
import re
import sys

SAMPLE_RE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(-?[0-9.eE+-]+|NaN|[+-]Inf)$'
)


def fail(msg):
    print(f"check_obs_output: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def base_family(name):
    """Strips histogram sample suffixes back to the family name."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def check_prometheus(path, required):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    helped, typed, seen = set(), {}, set()
    # (family, cell labels) -> list of (le, cumulative count) / count value.
    # Keyed per cell, not per family: a family like
    # msq_latency_component_seconds has one independent cumulative series
    # per component label.
    buckets, counts = {}, {}
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if parts[3] not in ("counter", "gauge", "histogram"):
                fail(f"{path}:{lineno}: unknown TYPE {parts[3]!r}")
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            fail(f"{path}:{lineno}: unparseable sample line {line!r}")
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        family = base_family(name)
        if family not in typed:
            fail(f"{path}:{lineno}: sample {name!r} has no # TYPE")
        if family not in helped:
            fail(f"{path}:{lineno}: sample {name!r} has no # HELP")
        seen.add(family)
        if name.endswith("_bucket"):
            le = re.search(r'le="([^"]*)"', labels)
            if not le:
                fail(f"{path}:{lineno}: _bucket sample without le label")
            bound = float("inf") if le.group(1) == "+Inf" else float(le.group(1))
            cell = re.sub(r',?le="[^"]*"', "", labels)
            if cell == "{}":  # le was the cell's only label
                cell = ""
            buckets.setdefault((family, cell), []).append(
                (bound, float(value))
            )
        elif name.endswith("_count"):
            counts[(family, labels)] = float(value)
    for (family, cell), series in buckets.items():
        series.sort(key=lambda pair: pair[0])
        cumulative = [count for _, count in series]
        if cumulative != sorted(cumulative):
            fail(
                f"{path}: histogram {family}{cell} buckets are not cumulative"
            )
        if series[-1][0] != float("inf"):
            fail(f"{path}: histogram {family}{cell} is missing the +Inf bucket")
        key = (family, cell)
        if key in counts and counts[key] != series[-1][1]:
            fail(f"{path}: histogram {family}{cell} +Inf bucket != _count")
    for name in required:
        if name not in seen:
            fail(f"{path}: required metric {name!r} not found")
    print(f"check_obs_output: {path}: {len(seen)} metric families OK")


def check_trace(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: not a Chrome trace object (no traceEvents)")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents empty or not a list")
    for i, event in enumerate(events):
        for key in ("name", "cat", "ph", "ts", "dur", "pid", "tid"):
            if key in ("ts", "dur") and key not in event:
                fail(f"{path}: event {i} missing {key!r}")
            if key in ("name", "cat", "ph") and key not in event:
                fail(f"{path}: event {i} missing {key!r}")
        if event["ph"] != "X":
            fail(f"{path}: event {i} is not a complete event (ph={event['ph']!r})")
        if event["dur"] < 0 or event["ts"] < 0:
            fail(f"{path}: event {i} has negative ts/dur")
    print(f"check_obs_output: {path}: {len(events)} trace events OK")


def check_bench_json(path, required_keys):
    with open(path, encoding="utf-8") as f:
        records = json.load(f)
    if not isinstance(records, list) or not records:
        fail(f"{path}: expected a non-empty JSON array of bench records")
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            fail(f"{path}: record {i} is not an object")
        if "bench" not in record:
            fail(f"{path}: record {i} has no 'bench' name")
        for key in required_keys:
            if key not in record:
                fail(f"{path}: record {i} missing required key {key!r}")
    print(f"check_obs_output: {path}: {len(records)} bench records OK")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prometheus", action="append", default=[])
    parser.add_argument("--trace", action="append", default=[])
    parser.add_argument("--bench-json", action="append", default=[])
    parser.add_argument("--require-metric", action="append", default=[],
                        help="metric family that must appear in every "
                             "--prometheus file")
    parser.add_argument("--require-key", action="append", default=[],
                        help="key that must appear in every --bench-json "
                             "record")
    args = parser.parse_args()
    if not (args.prometheus or args.trace or args.bench_json):
        fail("nothing to check (pass --prometheus/--trace/--bench-json)")
    for path in args.prometheus:
        check_prometheus(path, args.require_metric)
    for path in args.trace:
        check_trace(path)
    for path in args.bench_json:
        check_bench_json(path, args.require_key)
    print("check_obs_output: all checks passed")


if __name__ == "__main__":
    main()
