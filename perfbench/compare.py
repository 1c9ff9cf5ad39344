#!/usr/bin/env python3
"""Compares two sets of benchmark results, parent against change.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are JSON-lines files written by `perfbench/run.py --out`
(or directories of *.jsonl files). Records are grouped by workload and mode
(end-to-end or traced). For every (workload, metric) the table shows each
side's median and quartiles over its runs and the change of the median.
End-to-end metrics get a verdict against their BENCHMARK.json bound:
"worse" or "better" when the median moved by more than the bound and the
move stands out of the noise, "unresolved" otherwise. A move stands out
when it is larger than either side's spread (IQR / median), or when every
change run lies beyond every base run in the direction of the move.
Per-layer metrics have no bound and are shown for diagnosis only.

Exits 1 on any "worse" verdict, on any failed output check in CHANGE, on a
larger share of failed operations in CHANGE than in BASE, when CHANGE
lacks a workload or metric that BASE has, or when either side has fewer
than MIN_RUNS runs of a workload (too few to judge).
"""

import argparse
import collections
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_RUNS = 5


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    groups = collections.defaultdict(list)
    for file in files:
        for line in file.read_text().splitlines():
            if line.strip():
                record = json.loads(line)
                groups[(record["workload"], record["trace"])].append(record)
    if not groups:
        sys.exit(f"compare: no records in {path}")
    return groups


def numbers(records, name):
    """The metric's finite values (non-finite ones are written as strings)."""
    values = (r["metrics"].get(name, {}).get("value") for r in records)
    return [v for v in values if isinstance(v, (int, float))]


def summary(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = summary(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base_values, change_values, better, bound):
    base = statistics.median(base_values)
    change = statistics.median(change_values)
    if bound is None or base == 0:
        return "-"
    worse_by = (change - base) / abs(base)
    if better == "higher":
        worse_by = -worse_by
    if abs(worse_by) <= bound:
        return "unresolved"
    separated = (min(change_values) > max(base_values) if change > base
                 else max(change_values) < min(base_values))
    noise = max(spread(base_values), spread(change_values))
    if abs(worse_by) <= noise and not separated:
        return "unresolved"
    return "worse" if worse_by > 0 else "better"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()

    spec = json.loads(SPEC.read_text())
    metric_specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(args.base), load(args.change)
    problems = []

    for key in sorted(base):
        workload, trace = key
        mode = "per-layer" if trace else "end-to-end"
        print(f"\n{workload} ({mode}): {len(base[key])} base runs, "
              f"{len(change.get(key, []))} change runs")
        if key not in change:
            problems.append(f"{workload} {mode}: no change runs")
            continue
        if min(len(base[key]), len(change[key])) < MIN_RUNS:
            problems.append(f"{workload} {mode}: fewer than {MIN_RUNS} runs "
                            "on a side, too few to judge")
            continue
        print(f"  {'metric':30s} {'base median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'delta':>8s}  verdict")
        for name, meta in metric_specs.items():
            base_values = numbers(base[key], name)
            if len(base_values) < MIN_RUNS:
                continue
            change_values = numbers(change[key], name)
            if len(change_values) < MIN_RUNS:
                problems.append(f"{workload}: change lacks {name} or has it "
                                "non-finite")
                continue
            b1, b2, b3 = summary(base_values)
            c1, c2, c3 = summary(change_values)
            delta = (c2 - b2) / abs(b2) if b2 else float("nan")
            result = verdict(base_values, change_values, meta["better"],
                             meta.get("bound"))
            if result == "worse":
                problems.append(f"{workload}: {name} worse by {delta:+.1%} "
                                f"(bound {meta['bound']:.0%})")
            print(f"  {name:30s} {b2:12.5g} [{b1:9.4g}, {b3:9.4g}] "
                  f"{c2:12.5g} [{c1:9.4g}, {c3:9.4g}] {delta:+8.1%}  {result}")

        failed_checks = sorted({f"{c['name']} (seed {r['seed']})"
                                for r in change[key] for c in r["checks"]
                                if not c["passed"]})
        if failed_checks:
            problems.append(f"{workload}: failed checks: "
                            + ", ".join(failed_checks))

        def failed_share(records):
            return (sum(r["failed"] for r in records)
                    / max(1, sum(r["attempted"] for r in records)))

        if failed_share(change[key]) > failed_share(base[key]):
            problems.append(f"{workload}: failed share rose from "
                            f"{failed_share(base[key]):.4f} to "
                            f"{failed_share(change[key]):.4f}")

    print()
    for problem in problems:
        print(f"REGRESSION {problem}")
    print("compare: " + ("FAIL" if problems else "OK"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
