#!/usr/bin/env python3
"""Compares two benchmark records written by `run.py --out`, metric by metric.

  python3 bench/suite/compare.py A.json B.json

A is the parent (or the first record), B the change. Each row is one
workload and one end-to-end metric: the median and quartiles of the metric
over each record's sets, the relative delta (positive = B is worse), the
bound from BENCHMARK.json, and a verdict:

  unresolved  a record has fewer than 3 sets; or a record's spread
              ((q3 - q1) / median over its sets) exceeds the bound and not
              every set of B reads better than every set of A
  worse       B's median is worse than A's by more than the bound
  better      B reads better in at least 9 of 10 (A set, B set) pairings and
              the medians differ by more than A's q3 - q1
  no worse    otherwise

So record with `run.py --sets 3` (or more) on both sides. failed_frac must
not rise at all. The pair is flagged "box drifted" when the median calib_ms
of the two records differ by more than 5%.
Exit status: 1 when any row is worse, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DRIFT = 0.05
MIN_SETS = 3


def load(path):
    return json.loads(Path(path).read_text())


def calib(record):
    return statistics.median(c for s in record["sets"] for c in s["calib_ms"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(va, vb, bound, better):
    """(relative delta, verdict) of B's set values against A's."""
    sign = 1 if better == "lower" else -1
    ma, mb = statistics.median(va), statistics.median(vb)
    worse_by = sign * (mb - ma) / ma
    if min(len(va), len(vb)) < MIN_SETS:
        return worse_by, "unresolved"
    (qa1, qa3), (qb1, qb3) = quartiles(va), quartiles(vb)
    spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
    wins = sum(sign * (b - a) < 0 for a in va for b in vb)
    pairings = len(va) * len(vb)
    if spread > bound:
        return worse_by, "better" if wins == pairings else "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if wins >= 0.9 * pairings and abs(mb - ma) > qa3 - qa1:
        return worse_by, "better"
    return worse_by, "no worse"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(sys.argv[1]), load(sys.argv[2])
    spec = load(ROOT / "BENCHMARK.json")
    calib_a, calib_b = calib(a), calib(b)
    drift = abs(calib_b - calib_a) / calib_a
    print(f"sets: A {len(a['sets'])}, B {len(b['sets'])}; calib_ms: A {calib_a:.1f}, "
          f"B {calib_b:.1f} ({drift:+.1%})"
          + ("  ** box drifted: rerun both before trusting any verdict **" if drift > DRIFT else ""))
    header = (f"{'workload':<13} {'metric':<18} {'A median':>11} {'A q1..q3':>21} "
              f"{'B median':>11} {'B q1..q3':>21} {'delta':>8} {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    worse = 0
    for workload in a["sets"][0]["workloads"]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [s["workloads"][workload]["metrics"][name]["value"] for s in a["sets"]]
            vb = [s["workloads"][workload]["metrics"][name]["value"] for s in b["sets"]]
            delta, word = verdict(va, vb, metric["bound"], metric["better"])
            worse += word == "worse"
            (qa1, qa3), (qb1, qb3) = quartiles(va), quartiles(vb)
            print(f"{workload:<13} {name:<18} {statistics.median(va):>11.5g} "
                  f"{qa1:>10.5g}..{qa3:<9.5g} {statistics.median(vb):>11.5g} "
                  f"{qb1:>10.5g}..{qb3:<9.5g} {delta:>+8.2%} {metric['bound']:>6.2f}  {word}")
        fa = max(s["workloads"][workload]["failed_frac"] for s in a["sets"])
        fb = max(s["workloads"][workload]["failed_frac"] for s in b["sets"])
        word = "worse" if fb > fa else "no worse"
        worse += word == "worse"
        print(f"{workload:<13} {'failed_frac':<18} {fa:>11.5g} {'':>21} {fb:>11.5g} {'':>21} "
              f"{'':>8} {'exact':>6}  {word}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
