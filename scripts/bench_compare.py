#!/usr/bin/env python3
"""Compares BenchJsonWriter output with a committed baseline, record by record.

Usage:
  bench_compare.py BASELINE CURRENT [CURRENT ...] [--threshold 0.10]
      [--fields f1,f2,...] [--exact-fields g1,g2,...]

All files are JSON arrays of flat records (bench_common.h's
BenchJsonWriter); several CURRENT files are compared as one. Records are
matched by their identity: every string or integer field that is present
in both the baseline and the current records and named in neither
--fields nor --exact-fields.

For each matched record:
  --fields        numeric, lower-is-better measurements; a relative
                  regression beyond --threshold (default 10%) fails.
  --exact-fields  values that must be identical (counters such as
                  dist_computations, or 0/1 flags such as bit_identical).

Records present only in the baseline fail (coverage shrank); records
present only in the current file are reported but do not fail (new
coverage). Exits 1 on any failure with one line per violation.
"""

import argparse
import json
import sys


def load_records(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, list) or not all(isinstance(r, dict) for r in data):
        print(f"bench_compare: {path} is not a JSON array of records",
              file=sys.stderr)
        sys.exit(2)
    return data


def record_key(record, identity):
    """Identity of a record: its string and integer `identity` fields."""
    parts = []
    for k in sorted(record):
        if k not in identity:
            continue
        v = record[k]
        if isinstance(v, (str, int)) and not isinstance(v, bool):
            parts.append((k, v))
    return tuple(parts)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current", nargs="+")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="allowed relative regression on --fields")
    ap.add_argument("--fields", default="",
                    help="comma-separated lower-is-better numeric fields")
    ap.add_argument("--exact-fields", default="",
                    help="comma-separated fields that must match exactly")
    args = ap.parse_args()

    fields = [f for f in args.fields.split(",") if f]
    exact = [f for f in args.exact_fields.split(",") if f]
    if not fields and not exact:
        print("bench_compare: nothing to compare "
              "(give --fields and/or --exact-fields)", file=sys.stderr)
        return 2
    measured = set(fields) | set(exact)

    base_records = load_records(args.baseline)
    cur_records = [r for path in args.current for r in load_records(path)]
    identity = ({k for r in base_records for k in r} &
                {k for r in cur_records for k in r}) - measured
    baseline = {record_key(r, identity): r for r in base_records}
    current = {record_key(r, identity): r for r in cur_records}
    current_name = " ".join(args.current)

    failures = 0
    for key, base in sorted(baseline.items()):
        label = " ".join(f"{k}={v}" for k, v in key)
        cur = current.get(key)
        if cur is None:
            print(f"FAIL [{label}]: record missing from {current_name}")
            failures += 1
            continue
        for f in exact:
            if f not in base:
                continue
            if base[f] != cur.get(f):
                print(f"FAIL [{label}] {f}: expected {base[f]!r}, "
                      f"got {cur.get(f)!r}")
                failures += 1
        for f in fields:
            if f not in base:
                continue
            b, c = base[f], cur.get(f)
            if not isinstance(c, (int, float)) or isinstance(c, bool):
                print(f"FAIL [{label}] {f}: missing or non-numeric in "
                      f"{current_name}")
                failures += 1
                continue
            if b <= 0:
                continue  # no meaningful relative comparison
            rel = (c - b) / b
            if rel > args.threshold:
                print(f"FAIL [{label}] {f}: {b:g} -> {c:g} "
                      f"(+{rel:.1%} > {args.threshold:.0%})")
                failures += 1

    for key in sorted(set(current) - set(baseline)):
        label = " ".join(f"{k}={v}" for k, v in key)
        print(f"note [{label}]: new record (not in baseline)")

    if failures:
        print(f"bench_compare: {failures} failure(s)")
        return 1
    print(f"bench_compare: OK ({len(baseline)} record(s) compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
