#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``: ``compare.py A.json B.json``.

Each file holds the runs of one commit (``--out`` appends).  For every
workload and end-to-end metric this prints A's and B's median, the ratio
B/A (base: A), the run-to-run spread (distance between the quartiles as a
share of the median, the wider of the two sides) and a verdict against the
metric's bound in ``BENCHMARK.json``:

``worse``       B's median is worse than A's by more than the bound
``unresolved``  it is not, but the spread is wider than the bound, so
                "unchanged" cannot be told from "worse"
``ok``          neither

``failed_share`` has an absolute bound of zero: any failed op that A did
not have is ``worse``.  The exit code is 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List, NamedTuple

from stats import quartile_spread


class Row(NamedTuple):
    workload: str
    metric: str
    unit: str
    a: float
    b: float
    ratio: float
    spread: float
    bound: float
    verdict: str


def _values(document: dict, workload: str, metric: str) -> List[float]:
    values = []
    for run in document["runs"]:
        result = run["workloads"].get(workload)
        if not result or "end_to_end" not in result:
            continue
        values.append(result[metric] if metric == "failed_share" else result["end_to_end"][metric])
    return values


def judge(better: str, bound: float, a: float, b: float, spread: float) -> str:
    worse = b > a * (1.0 + bound) if better == "lower" else b < a * (1.0 - bound)
    if worse:
        return "worse"
    return "unresolved" if spread > bound else "ok"


def compare(benchmark: dict, a_doc: dict, b_doc: dict) -> List[Row]:
    """One row per workload × end-to-end metric present on both sides."""
    rows = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for spec in benchmark["end_to_end"]:
            a_values = _values(a_doc, workload, spec["name"])
            b_values = _values(b_doc, workload, spec["name"])
            if not a_values or not b_values:
                continue
            a, b = statistics.median(a_values), statistics.median(b_values)
            spread = max(quartile_spread(a_values), quartile_spread(b_values))
            rows.append(Row(
                workload, spec["name"], spec["unit"], a, b, b / a if a else float("inf"),
                spread, spec["bound"], judge(spec["better"], spec["bound"], a, b, spread),
            ))
        a_failed, b_failed = _values(a_doc, workload, "failed_share"), _values(b_doc, workload, "failed_share")
        if a_failed and b_failed:
            a, b = max(a_failed), max(b_failed)
            rows.append(Row(workload, "failed_share", "ratio", a, b, b / a if a else float(b > 0),
                            0.0, 0.0, "worse" if b > a else "ok"))
    return rows


def render(rows: List[Row]) -> str:
    lines = [f"{'workload':<20} {'metric':<18} {'A (base)':>12} {'B':>12} {'B/A':>7} "
             f"{'spread':>7} {'bound':>6}  verdict"]
    for row in rows:
        lines.append(
            f"{row.workload:<20} {row.metric:<18} {row.a:>12.4f} {row.b:>12.4f} {row.ratio:>7.3f} "
            f"{row.spread:>7.1%} {row.bound:>6.0%}  {row.verdict}  [{row.unit}]"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as fh:
            documents.append(json.load(fh))
    with open(Path(__file__).resolve().parents[2] / "BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    rows = compare(benchmark, *documents)
    print(render(rows))
    verdicts = [row.verdict for row in rows]
    print(f"\n{verdicts.count('ok')} ok, {verdicts.count('unresolved')} unresolved, "
          f"{verdicts.count('worse')} worse")
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
