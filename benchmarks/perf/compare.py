"""Compare two result files of the harness (``--compare A.json B.json``).

Per workload and end-to-end metric: both medians, the relative
difference, the metric's bound and a verdict.  Host metrics are noisy,
so a difference only counts against the bound the benchmark fixed, and
where the run-to-run spread (interquartile distance over the median) is
wider than that bound the verdict is ``unresolved``, not ``within``.
Simulated metrics and ``sim_digest`` are exact: runs of the same
workload and seed must agree to the last bit, traced or not.  A run of B that failed an
op or a correctness check is an inequality too, whatever its times.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List

from benchmarks.perf import spec

WITHIN, WORSE, BETTER, UNRESOLVED = "within", "worse", "better", "unresolved"


def spread(values: List[float]) -> float:
    """Distance between the first and third quartile, as a share of
    the median (0 with fewer than two values)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worse_by(metric: spec.Metric, before: float, after: float) -> float:
    """Relative change of ``after`` against ``before``, positive when
    the metric got worse."""
    change = (after - before) / before
    return change if metric.better == "lower" else -change


def verdict(metric: spec.Metric, a: List[float], b: List[float]) -> str:
    if max(spread(a), spread(b)) > metric.bound:
        if metric.better == "lower":
            all_better = max(b) < min(a)
        else:
            all_better = min(b) > max(a)
        return BETTER if all_better else UNRESOLVED
    change = worse_by(metric, statistics.median(a), statistics.median(b))
    if change > metric.bound:
        return WORSE
    if change < -metric.bound:
        return BETTER
    return WITHIN


def _runs(document: dict) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = {}
    for run in document["runs"]:
        grouped.setdefault(run["workload"], []).append(run)
    return grouped


def compare_documents(a: dict, b: dict):
    """(table rows, list of exact mismatches and failed runs of B)."""
    rows = []
    mismatches = []
    runs_a, runs_b = _runs(a), _runs(b)
    for workload in spec.WORKLOADS:
        side_a, side_b = runs_a.get(workload, []), runs_b.get(workload, [])
        for metric in spec.END_TO_END:
            values_a = [r["metrics"][metric.name] for r in side_a if metric.name in r["metrics"]]
            values_b = [r["metrics"][metric.name] for r in side_b if metric.name in r["metrics"]]
            if values_a and values_b:
                rows.append(
                    (
                        workload, metric,
                        statistics.median(values_a), statistics.median(values_b),
                        max(spread(values_a), spread(values_b)),
                        verdict(metric, values_a, values_b),
                    )
                )
        by_seed = {(r["seed"], r["tiny"]): r for r in side_a}
        for run in side_b:
            # A gain does not count when ops fail: fail_share's bound is 0.
            if run["failed"] or not run["correct"]:
                mismatches.append(
                    f"{workload} seed {run['seed']}: B failed {run['failed']} of "
                    f"{run['attempted']} ops and checks, correct={run['correct']}"
                )
            twin = by_seed.get((run["seed"], run["tiny"]))
            if twin is None:
                continue
            # A traced run is process 0 of the untraced run only, so
            # across modes just that process's digest is comparable.
            key = "sim_digests" if twin["trace"] == run["trace"] else "sim_digest"
            if twin[key] != run[key]:
                mismatches.append(f"{workload} seed {run['seed']}: sim_digest differs")
            for name in spec.SIM_METRICS:
                if twin["sim"][name] != run["sim"][name]:
                    mismatches.append(
                        f"{workload} seed {run['seed']}: {name} "
                        f"{twin['sim'][name]!r} != {run['sim'][name]!r}"
                    )
    return rows, mismatches


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    rows, mismatches = compare_documents(a, b)
    print(
        f"{'workload':<20}{'metric':<24}{'A median':>14}{'B median':>14}"
        f"{'B vs A':>9}{'spread':>8}{'bound':>7}  verdict"
    )
    for workload, metric, before, after, wide, outcome in rows:
        print(
            f"{workload:<20}{metric.name:<24}{before:>14.6g}{after:>14.6g}"
            f"{(after - before) / before:>+9.1%}{wide:>8.1%}{metric.bound:>7.0%}  {outcome}"
        )
    for mismatch in mismatches:
        print("NOT OK", mismatch)
    if not mismatches:
        print(
            "no run of B failed; simulated metrics and sim_digest: "
            "equal on every common (workload, seed)"
        )
    return 1 if mismatches or any(row[-1] == WORSE for row in rows) else 0
