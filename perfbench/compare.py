"""Compare two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py PARENT.json CHANGE.json

Both files are written by ``perfbench/suite.py --out``.  For every workload
and end-to-end metric the verdict is one of:

improved    the change wins at least nine tenths of the runs paired by seed
            (ties count for neither side), over at least ``MIN_PAIRS`` pairs,
            and its median is better than the parent's by more than the
            parent's interquartile range;
worse       the change's median is worse than the parent's by more than the
            metric's bound in ``BENCHMARK.json``;
unresolved  the run-to-run spread (interquartile range over median) of
            either side is wider than the bound, so a difference of the
            bound's size cannot be seen; it still reads ``unchanged`` when
            every run of the change is better than every run of the parent,
            and ``worse`` when every run is worse and the median is worse by
            more than the bound;
unchanged   otherwise.

A gain does not count when the change's tables fail more rows than the
parent's (summed over every run and workload of each set, so a wrong table on
one workload voids the speed of all): a pair that would read ``improved``
then reads ``worse``.

Spreads and medians use ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

#: fewest seed-paired runs on which a gain may be claimed
MIN_PAIRS = 10

#: share of the pairs the change must win to claim a gain
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; with a single value all three are that value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(
    parent: dict[int, float], change: dict[int, float], better: str, bound: float
) -> tuple[str, str]:
    """Verdict and a one-line account for one (workload, metric) pair.

    ``parent`` and ``change`` map workload seed to the metric's value.
    """
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(list(parent.values()))
    c_q1, c_med, c_q3 = quartiles(list(change.values()))
    gain = sign * (c_med - p_med)
    worse_by = -gain / abs(p_med) if p_med else 0.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    widest = max(spread(list(parent.values())), spread(list(change.values())))
    account = (
        f"parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]  "
        f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]  "
        f"change/parent-1 {c_med / p_med - 1.0 if p_med else 0.0:+.4f}  "
        f"wins {wins}/{len(seeds)}  spread {widest:.4f}  bound {bound}"
    )
    if (
        len(seeds) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(seeds)
        and gain > p_q3 - p_q1
    ):
        return "improved", account
    changed = [sign * v for v in change.values()]
    before = [sign * v for v in parent.values()]
    every_better = min(changed) > max(before)
    every_worse = max(changed) < min(before)
    if widest > bound:
        if every_better:
            return "unchanged", account
        if every_worse and worse_by > bound:
            return "worse", account
        return "unresolved", account
    if worse_by > bound:
        return "worse", account
    return "unchanged", account


def _by_seed(result_set: dict, workload: str, metric: str) -> dict[int, float]:
    return {
        run["info"]["seed"]: run["result"]["metrics"][metric]["value"]
        for run in result_set["runs"]
        if run["info"]["workload"] == workload and run["info"]["trace"] == 0
    }


def failed_rows(result_set: dict) -> int:
    """Table rows failed over every run of a result set."""
    return sum(run["result"]["failed"] for run in result_set["runs"])


def compare(parent: dict, change: dict) -> list[tuple[str, str, str, str]]:
    """``(workload, metric, verdict, account)`` for every pair the sets share."""
    spec = change["benchmark"]
    parent_failed, change_failed = failed_rows(parent), failed_rows(change)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            p = _by_seed(parent, workload, metric["name"])
            c = _by_seed(change, workload, metric["name"])
            if not p or not c:
                continue
            word, account = verdict(p, c, metric["better"], metric["bound"])
            if word == "improved" and change_failed > parent_failed:
                word = "worse"
                account += (
                    f"  failed rows {change_failed} > parent's {parent_failed}: "
                    "gain withheld"
                )
            rows.append((workload, metric["name"], word, account))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    parent, change = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    for workload, metric, word, account in compare(parent, change):
        print(f"{workload:18} {metric:14} {word:10} {account}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
