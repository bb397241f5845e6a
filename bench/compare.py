"""Summarise or compare result files written by ``run.py --record``.

    python3 bench/compare.py BASE.jsonl            # medians and spreads
    python3 bench/compare.py BASE.jsonl NEW.jsonl  # NEW against BASE

For each workload and end-to-end metric it prints the median and the
quartiles of the untraced runs in each file, and the spread: the
distance between the quartiles as a share of the median.  With two
files a metric is "worse" when NEW's median is worse than BASE's by
more than the metric's bound in BENCHMARK.json, "unresolved" when
either side's spread is wider than the bound (unless every NEW run beats
every BASE run), and "ok" otherwise.  The share of failed operations is
printed per workload, since a gain does not count if more operations fail.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{workload: {"metrics": {name: [values]}, "attempted": n, "failed": n}}"""
    runs = defaultdict(lambda: {"metrics": defaultdict(list), "attempted": 0, "failed": 0})
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"]:
                continue
            entry = runs[record["workload"]]
            result = record["result"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                entry["metrics"][name].append(metric["value"])
    return runs


def summary(values):
    """(median, first quartile, third quartile, spread)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def verdict(base, new, bound, lower_better):
    bmed, _, _, bspread = summary(base)
    nmed, _, _, nspread = summary(new)
    worse = (nmed - bmed) / bmed if lower_better else (bmed - nmed) / bmed
    if worse > bound:
        return "worse"
    beats_all = max(new) < min(base) if lower_better else min(new) > max(base)
    if max(bspread, nspread) > bound and not beats_all:
        return "unresolved"
    return "ok"


def fmt(values):
    med, q1, q3, spread = summary(values)
    return f"{med:10.4g} [{q1:.4g}, {q3:.4g}] n={len(values)} spread {spread:6.1%}"


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    files = [load(p) for p in argv]
    for workload in sorted(set().union(*files)):
        print(workload)
        for side, runs in zip(("base", "new"), files):
            entry = runs.get(workload)
            if entry:
                share = entry["failed"] / entry["attempted"] if entry["attempted"] else 0.0
                print(f"  {side}: {entry['attempted']} operations, {share:.2%} failed")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = [runs[workload]["metrics"].get(name) if workload in runs else None for runs in files]
            line = f"  {name:14s}"
            for values in sides:
                line += f" | {fmt(values)}" if values else " | (no runs)"
            if len(sides) == 2 and all(sides):
                line += f" | {verdict(sides[0], sides[1], metric['bound'], metric['better'] == 'lower')}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
