#!/usr/bin/env python3
"""Checks that two sets of benchmark runs agree, within BENCHMARK.json's bounds.

    python3 bench/suite/agree.py RUNS_A [RUNS_B]

Each directory holds one file per run, named <workload>.<anything>, whose
last non-empty line is the result line run.py prints (--trace 0). For each
(workload, end-to-end metric) it prints each set's median and its spread,
the distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4), as the benchmark's acceptance uses).

Exits 1 when a metric's medians differ by more than its bound, or when a
set's spread exceeds the bound (reported as "unresolved": the runs are too
noisy to tell). setup_s's spread is printed but not judged, since set-up
time is compared by median only. With one directory only the spreads are
judged. Each set needs at least 5 runs per workload.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_RUNS = 5


def load_runs(directory, workloads):
    runs = {w: [] for w in workloads}
    for path in sorted(Path(directory).iterdir()):
        workload = path.name.split(".")[0]
        if workload not in runs:
            continue
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        try:
            runs[workload].append(json.loads(lines[-1])["metrics"])
        except (IndexError, ValueError, KeyError):
            sys.exit(f"agree.py: no result line in {path}")
    return runs


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    sets = [load_runs(d, workloads) for d in sys.argv[1:]]
    ok = True
    print(f"{'workload':8} {'metric':10} {'bound':>6} " +
          " ".join(f"{'median':>12} {'spread':>7}" for _ in sets) +
          ("  change" if len(sets) == 2 else ""))
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians, notes = [], [], []
            for runs in sets:
                values = [r[name]["value"] for r in runs[workload] if name in r]
                if len(values) < MIN_RUNS:
                    sys.exit(f"agree.py: {workload} has {len(values)} runs "
                             f"with {name}, need {MIN_RUNS}")
                median, spread = summary(values)
                medians.append(median)
                cells.append(f"{median:12.6g} {spread:7.3f}")
                if name != "setup_s" and spread > bound:
                    notes.append("unresolved")
            line = f"{workload:8} {name:10} {bound:6.3f} " + " ".join(cells)
            if len(medians) == 2:
                change = (medians[1] - medians[0]) / medians[0]
                line += f"  {change:+.3f}"
                if abs(change) > bound:
                    notes.append("medians differ")
            if notes:
                ok = False
                line += "  " + ", ".join(sorted(set(notes)))
            print(line)
    print("agree" if ok else "DISAGREE")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
