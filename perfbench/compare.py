"""Compare two sets of benchmark results, one row per workload × metric.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are each a result file written by ``run.py`` (under
``perfbench/out/``) or a directory of them.  A side with one run per
workload uses that run's own median and quartiles; a side with several
runs (several seeds) uses the median and quartiles of the run medians.

Each end-to-end row gets a verdict judged by the metric's bound in
``BENCHMARK.json``:

* ``unresolved``  either side's spread (quartile distance over median)
  exceeds the bound, so the runs cannot tell;
* ``worse``       NEW is worse than OLD by more than the bound;
* ``improved``    NEW is better than OLD by more than the bound;
* ``unchanged``   otherwise.

Per-layer rows have no bound and get no verdict.  The command exits 1
when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict

import common


def load_side(path: str) -> dict:
    """{workload: [envelope, ...]} from a file or a directory of files."""
    if os.path.isdir(path):
        files = sorted(os.path.join(path, name) for name in os.listdir(path)
                       if name.endswith(".json"))
    else:
        files = [path]
    runs = defaultdict(list)
    for name in files:
        with open(name) as fh:
            envelope = json.load(fh)
        if envelope.get("schema") == common.SCHEMA:
            runs[envelope["workload"]].append(envelope)
    if not runs:
        raise SystemExit(f"compare: no result files in {path}")
    return runs


def side_summary(envelopes: list, metric: str) -> dict | None:
    found = [e["metrics"][metric] for e in envelopes if metric in e["metrics"]]
    if not found:
        return None
    if len(found) == 1:
        return found[0]
    return dict(common.summary([m["median"] for m in found]),
                unit=found[0]["unit"])


def spread(stats: dict) -> float:
    if not stats["median"]:
        return 0.0
    return abs(stats["q3"] - stats["q1"]) / abs(stats["median"])


def verdict(old: dict, new: dict, better: str, bound: float | None) -> str:
    if bound is None:
        return "-"
    if max(spread(old), spread(new)) > bound:
        return "unresolved"
    if not old["median"]:
        return "unchanged" if not new["median"] else "unresolved"
    change = (new["median"] - old["median"]) / abs(old["median"])
    gain = -change if better == "lower" else change
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "improved"
    return "unchanged"


def compare(old_path: str, new_path: str, bench: dict) -> list[dict]:
    old_runs, new_runs = load_side(old_path), load_side(new_path)
    specs = [(spec, True) for spec in bench["end_to_end"]] + \
        [(spec, False) for spec in bench["per_layer"]]
    rows = []
    for workload in sorted(set(old_runs) & set(new_runs)):
        for spec, gated in specs:
            old = side_summary(old_runs[workload], spec["name"])
            new = side_summary(new_runs[workload], spec["name"])
            if old is None or new is None:
                continue
            bound = spec["bound"] if gated else None
            rows.append({
                "workload": workload, "metric": spec["name"],
                "unit": spec["unit"], "old": old, "new": new,
                "change_pct": (new["median"] / old["median"] - 1) * 100
                if old["median"] else None,
                "verdict": verdict(old, new, spec["better"], bound),
            })
    return rows


def _cell(stats: dict) -> str:
    return (f"{stats['median']:.6g} [{stats['q1']:.6g}, {stats['q3']:.6g}]"
            f" n={stats['n']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of perfbench results.")
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    rows = compare(args.old, args.new, common.load_benchmark())
    header = ("workload", "metric", "unit", "old median [q1, q3]",
              "new median [q1, q3]", "change", "verdict")
    table = [header] + [(
        row["workload"], row["metric"], row["unit"], _cell(row["old"]),
        _cell(row["new"]),
        "-" if row["change_pct"] is None else f"{row['change_pct']:+.2f}%",
        row["verdict"]) for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    for line in table:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(line, widths)).rstrip())
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
