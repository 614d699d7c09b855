"""``python3 -m bench compare BASE.json CHANGE.json [...]``.

Each file is what ``run --out`` accumulates: several runs per workload.
Per workload, one row per metric with both medians, their quartiles and
the ratio with its base, judged by the bound ``BENCHMARK.json`` fixes:

* ``ok`` — the change's median is no worse than the base's by more than
  the bound;
* ``regressed`` — it is;
* ``unresolved`` — either side's run-to-run spread (IQR / median) exceeds
  the bound, so the runs cannot tell — unless every run of the change
  reads better than every run of the base, which is reported as ``ok``.

A metric named with ``--claim workload:metric`` is additionally held to
the gain rule: the change must win at least nine tenths of the pairs
(run *i* of one file against run *i* of the other, ties counting for
neither) and the medians must differ by more than the base's own IQR.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Sequence, Tuple

from bench import runner


def _load(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def _values(runs: Sequence[Dict[str, Any]], workload: str, traced: int, metric: str) -> List[float]:
    return [
        run["figures"][metric][0]
        for run in runs
        if run["workload"] == workload and run["trace"] == traced and metric in run["figures"]
    ]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(first quartile, median, third quartile)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def judge(
    base: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """``(verdict, worsening as a share of the base median)``."""
    sign = 1.0 if better == "lower" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    change_q1, change_median, change_q3 = quartiles(change)
    worse_by = sign * (change_median - base_median) / base_median if base_median else 0.0
    spreads = [
        (q3 - q1) / median if median else 0.0
        for q1, median, q3 in ((base_q1, base_median, base_q3), (change_q1, change_median, change_q3))
    ]
    if max(spreads) > bound:
        every_run_better = max(sign * value for value in change) < min(sign * value for value in base)
        return ("ok" if every_run_better else "unresolved"), worse_by
    return ("regressed" if worse_by > bound else "ok"), worse_by


def claim_met(base: Sequence[float], change: Sequence[float], better: str) -> Tuple[bool, str]:
    """The paired-wins rule for a claimed gain."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for before, after in pairs if sign * after < sign * before)
    base_q1, base_median, base_q3 = quartiles(base)
    gap = sign * (base_median - quartiles(change)[1])
    enough_wins = len(pairs) >= 10 and wins >= 0.9 * len(pairs)
    beyond_noise = gap > (base_q3 - base_q1)
    detail = (
        f"wins {wins}/{len(pairs)} (need 10+ pairs, 9 in 10), "
        f"median gain {gap:.4g} vs base IQR {base_q3 - base_q1:.4g}"
    )
    return enough_wins and beyond_noise, detail


def _row(name: str, unit: str, base: Sequence[float], change: Sequence[float]) -> str:
    base_q1, base_median, base_q3 = quartiles(base)
    change_q1, change_median, change_q3 = quartiles(change)
    ratio = change_median / base_median if base_median else float("nan")
    return (
        f"  {name:<46s} {base_median:>11.4f} [{base_q1:.4f}, {base_q3:.4f}]"
        f"  →  {change_median:>11.4f} [{change_q1:.4f}, {change_q3:.4f}] {unit:<5s}"
        f"  {ratio:>6.3f}× of {base_median:.4g}"
    )


def main(files: Sequence[str], claims: Sequence[str]) -> int:
    catalogue = runner.catalogue()
    if len(files) < 2:
        print("compare: give the base file and at least one file to compare with it")
        return 2
    claimed = {tuple(claim.split(":", 1)) for claim in claims}
    base_runs = _load(files[0])
    worst = 0
    for path in files[1:]:
        change_runs = _load(path)
        print(f"# {path} against base {files[0]}")
        for workload in (entry["name"] for entry in catalogue["workloads"]):
            print(f"== {workload} ==")
            for metric in catalogue["end_to_end"]:
                name = metric["name"]
                base = _values(base_runs, workload, 0, name)
                change = _values(change_runs, workload, 0, name)
                if not base or not change:
                    continue
                verdict, worse_by = judge(base, change, metric["better"], metric["bound"])
                line = _row(name, metric["unit"], base, change)
                line += f"  {verdict} ({worse_by:+.1%} worse, bound {metric['bound']:.0%}"
                line += f", n={len(base)}/{len(change)})"
                if (workload, name) in claimed:
                    met, detail = claim_met(base, change, metric["better"])
                    line += f"  claim {'met' if met else 'NOT met'}: {detail}"
                    worst = max(worst, 0 if met else 1)
                if verdict == "regressed":
                    worst = 1
                print(line)
            # printed for information, without a verdict: the ungated
            # end-to-end extras, then the per-layer figures that are not all 0
            gated = {metric["name"] for metric in catalogue["end_to_end"]}
            extras = sorted(
                {
                    name
                    for run in base_runs
                    if run["workload"] == workload and run["trace"] == 0
                    for name in run["figures"]
                }
                - gated
            )
            for name in extras:
                base = _values(base_runs, workload, 0, name)
                change = _values(change_runs, workload, 0, name)
                if base and change:
                    print(_row(name, "", base, change))
            for metric in catalogue["per_layer"]:
                name = metric["name"]
                base = _values(base_runs, workload, 1, name)
                change = _values(change_runs, workload, 1, name)
                if base and change and (any(base) or any(change)):
                    print(_row(name, metric["unit"], base, change))
    return worst
