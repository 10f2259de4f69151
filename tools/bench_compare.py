"""Benchmark-regression gate over the committed ``BENCH_*.json`` files.

The repo's benchmark trajectory (``BENCH_fastpath.json``,
``BENCH_sweep.json``, ``BENCH_vcache.json``, ``BENCH_autoscale.json``,
``BENCH_attribution.json``)
is part of its claims — the lookup fast path is ~16x, the serving
sweep replay ~25x, the vector cache turns flat 878 QPS into thousands
at high locality, the autoscaler rides out a flash crowd the fixed
fleet cannot, the p99 tail's blame shifts from service to queueing as
a flash crowd saturates the fleet.  A
PR can silently regress those numbers while every functional test still
passes.  This tool makes the numbers enforceable:

* **diff mode** — ``--baseline OLD --fresh NEW`` compares a fresh
  benchmark run against a committed baseline with *per-metric*
  tolerances (below), exiting nonzero on any regression.
* **self-check mode** — ``--self-check FILE...`` validates each file's
  *internal* invariants (the fast path really was bitwise-equal, the
  cached QPS really beats stock, hit ratios fall as locality fades)
  without needing a second run.

Tolerances (documented here, asserted in ``tests/test_bench_compare``):

======================  =============================================
metric                  rule
======================  =============================================
fastpath: model,        exact — the benchmark's configuration and its
samples, vectors_read,  simulated outcome are deterministic; any drift
simulated_ns,           is a real behavior change, not noise
min_speedup
fastpath:               must be ``true`` (the equivalence contract)
bitwise_equal
fastpath: speedup       wall-clock, machine-dependent: gated only by
                        the payload's own ``min_speedup`` floor
fastpath: *_wall_s      ignored (raw wall-clock)
sweep: model, queries,  exact (benchmark configuration)
fractions,
sweep_points, repeats,
min_speedup, max_wall_s
sweep: bitwise_equal    must be ``true`` (the equivalence contract)
sweep: speedup          gated by the payload's own ``min_speedup``
sweep: *_wall_s         ignored (raw wall-clock)
vcache: ks, policy,     exact (benchmark configuration)
capacity_rule,
rows_per_table
vcache: qps.*           higher-is-better, 2% relative tolerance
vcache: hit_ratios.*    higher-is-better, 0.01 absolute tolerance
autoscale: config keys, exact — the flash-crowd trace is seeded and
max_wall_s, fixed,      both fleets are simulated, so every outcome
autoscaled              (p99, scaling-event counts) is deterministic
autoscale:              must be ``true`` (cluster DES and fast replay
bitwise_equal           export byte-identical timeseries documents)
attribution: config     exact — the flash-crowd trace is seeded and
keys, p99_ms,           the fleet simulated, so every per-load blame
queue_share_p99,        share is deterministic; any drift is a real
service_share_p99       behavior change, not noise
attribution:            must be ``true`` (DES and fast replay export
bitwise_equal           byte-identical rmssd-explain/v1 documents)
any: wall_s             when the payload commits a ``max_wall_s``
                        budget, its ``wall_s`` must stay within it
any: missing key        regression (a metric disappeared)
======================  =============================================

When a diff fails and both payloads embed their ``rmssd-explain/v1``
document (the attribution benchmark does), the gate also prints the
cross-run regression explainer's per-quantile attribution lines
(:mod:`repro.obs.explain`) — *which stage, which replica* moved the
tail — so the failure arrives with its diagnosis attached.

Usage::

    python -m tools.bench_compare --baseline BENCH_vcache.json \
        --fresh /tmp/BENCH_vcache.json
    python -m tools.bench_compare --self-check BENCH_*.json
"""

from __future__ import annotations

# Not a benchmark despite the bench_ prefix: a CLI gate whose pass/fail
# lines go straight to the terminal/CI log.
# lint: ok-file[R6]

import argparse
import json
import sys
from typing import List

#: Relative tolerance for throughput metrics (QPS): simulated numbers
#: are deterministic today, but the tolerance leaves headroom for
#: intentional timing-model refinements below the "claim changed" bar.
QPS_REL_TOLERANCE = 0.02

#: Absolute tolerance for hit ratios (probabilities in [0, 1]).
HIT_RATIO_ABS_TOLERANCE = 0.01

#: Self-check: cached QPS may not trail stock by more than this factor
#: (the cache must never make the device slower than cache-free).
CACHE_MIN_VS_STOCK = 0.98

#: Self-check: stock RM-SSD has no cache, so its QPS must be flat
#: across locality K within this relative band.
STOCK_FLATNESS_REL = 0.05


class Regression(Exception):
    """A metric regressed (or a baseline violates its own invariants)."""


def _load(path: str) -> dict:
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise Regression(f"{path}: expected a JSON object")
    return payload


def detect_kind(payload: dict) -> str:
    """Which benchmark a payload came from, by its signature keys."""
    # autoscale before sweep/fastpath: it carries bitwise_equal too.
    if "autoscaled" in payload and "bitwise_equal" in payload:
        return "autoscale"
    # sweep before fastpath: both carry speedup + bitwise_equal.
    if "sweep_points" in payload and "bitwise_equal" in payload:
        return "sweep"
    if "speedup" in payload and "bitwise_equal" in payload:
        return "fastpath"
    if "queue_share_p99" in payload:
        return "attribution"
    if "hit_ratios" in payload and "qps" in payload:
        return "vcache"
    raise Regression(
        "unrecognized benchmark payload (keys: "
        + ", ".join(sorted(payload)) + ")"
    )


def _require(payload: dict, key: str, label: str):
    if key not in payload:
        raise Regression(f"{label}: metric {key!r} is missing")
    return payload[key]


def _check_exact(baseline: dict, fresh: dict, key: str, failures: List[str]) -> None:
    base = _require(baseline, key, "baseline")
    new = _require(fresh, key, "fresh")
    if new != base:
        failures.append(f"{key}: expected {base!r} exactly, got {new!r}")


def compare_fastpath(baseline: dict, fresh: dict) -> List[str]:
    failures: List[str] = []
    for key in ("model", "samples", "vectors_read", "simulated_ns", "min_speedup"):
        _check_exact(baseline, fresh, key, failures)
    if not _require(fresh, "bitwise_equal", "fresh"):
        failures.append("bitwise_equal: fast path diverged from the DES")
    floor = _require(fresh, "min_speedup", "fresh")
    speedup = _require(fresh, "speedup", "fresh")
    if speedup < floor:
        failures.append(
            f"speedup: {speedup:.2f}x fell below the {floor:.1f}x floor "
            f"(baseline was {baseline.get('speedup', float('nan')):.2f}x)"
        )
    return failures


def _check_wall_budget(payload: dict, failures: List[str]) -> None:
    """Enforce a payload's committed wall-clock budget, if it has one."""
    if "max_wall_s" not in payload:
        return
    budget = payload["max_wall_s"]
    wall = _require(payload, "wall_s", "payload")
    if wall > budget:
        failures.append(
            f"wall_s: {wall:.1f}s blew the committed {budget:.1f}s budget"
        )


def compare_sweep(baseline: dict, fresh: dict) -> List[str]:
    failures: List[str] = []
    for key in (
        "model", "queries", "fractions", "sweep_points", "repeats",
        "min_speedup", "max_wall_s",
    ):
        _check_exact(baseline, fresh, key, failures)
    if not _require(fresh, "bitwise_equal", "fresh"):
        failures.append("bitwise_equal: fast replay diverged from the DES")
    floor = _require(fresh, "min_speedup", "fresh")
    speedup = _require(fresh, "speedup", "fresh")
    if speedup < floor:
        failures.append(
            f"speedup: {speedup:.2f}x fell below the {floor:.1f}x floor "
            f"(baseline was {baseline.get('speedup', float('nan')):.2f}x)"
        )
    _check_wall_budget(fresh, failures)
    return failures


def compare_vcache(baseline: dict, fresh: dict) -> List[str]:
    failures: List[str] = []
    for key in ("ks", "policy", "capacity_rule", "rows_per_table"):
        _check_exact(baseline, fresh, key, failures)
    base_qps = _require(baseline, "qps", "baseline")
    new_qps = _require(fresh, "qps", "fresh")
    for series, base_values in sorted(base_qps.items()):
        if series not in new_qps:
            failures.append(f"qps.{series}: series is missing")
            continue
        new_values = new_qps[series]
        if len(new_values) != len(base_values):
            failures.append(
                f"qps.{series}: {len(new_values)} points vs "
                f"{len(base_values)} in the baseline"
            )
            continue
        for index, (base, new) in enumerate(zip(base_values, new_values)):
            if new < base * (1.0 - QPS_REL_TOLERANCE):
                failures.append(
                    f"qps.{series}[{index}]: {new:.1f} < "
                    f"{base:.1f} - {QPS_REL_TOLERANCE:.0%}"
                )
    base_ratios = _require(baseline, "hit_ratios", "baseline")
    new_ratios = _require(fresh, "hit_ratios", "fresh")
    for series, base_values in sorted(base_ratios.items()):
        if series not in new_ratios:
            failures.append(f"hit_ratios.{series}: series is missing")
            continue
        new_values = new_ratios[series]
        if len(new_values) != len(base_values):
            failures.append(
                f"hit_ratios.{series}: {len(new_values)} points vs "
                f"{len(base_values)} in the baseline"
            )
            continue
        for index, (base, new) in enumerate(zip(base_values, new_values)):
            if new < base - HIT_RATIO_ABS_TOLERANCE:
                failures.append(
                    f"hit_ratios.{series}[{index}]: {new:.4f} < "
                    f"{base:.4f} - {HIT_RATIO_ABS_TOLERANCE}"
                )
    return failures


#: Autoscale benchmark configuration keys, compared exactly.
_AUTOSCALE_CONFIG_KEYS = (
    "model", "arrivals", "queries", "balancer", "sla_ms", "quantile",
    "alert_threshold_ms", "window_ms", "burst_factor",
    "initial_replicas", "max_replicas", "scale_up_step", "max_wall_s",
)


def compare_autoscale(baseline: dict, fresh: dict) -> List[str]:
    failures: List[str] = []
    for key in _AUTOSCALE_CONFIG_KEYS:
        _check_exact(baseline, fresh, key, failures)
    # The trace and both fleets are seeded and simulated: every
    # outcome (p99, scaling-event counts) is deterministic, so any
    # drift is a behavior change, not noise.
    for key in ("fixed", "autoscaled"):
        _check_exact(baseline, fresh, key, failures)
    if not _require(fresh, "bitwise_equal", "fresh"):
        failures.append(
            "bitwise_equal: cluster fast replay diverged from the DES"
        )
    _check_wall_budget(fresh, failures)
    return failures


#: Attribution benchmark configuration keys, compared exactly.
_ATTRIBUTION_CONFIG_KEYS = (
    "model", "arrivals", "replicas", "balancer", "burst_factor",
    "quantile", "loads", "queries",
)

#: Tail-blame shares must agree bit-for-bit across runs: the trace is
#: seeded and the fleet simulated, so the shares are deterministic.
_ATTRIBUTION_OUTCOME_KEYS = ("p99_ms", "queue_share_p99", "service_share_p99")


def compare_attribution(baseline: dict, fresh: dict) -> List[str]:
    failures: List[str] = []
    for key in _ATTRIBUTION_CONFIG_KEYS + _ATTRIBUTION_OUTCOME_KEYS:
        _check_exact(baseline, fresh, key, failures)
    if not _require(fresh, "bitwise_equal", "fresh"):
        failures.append(
            "bitwise_equal: fast replay's explain document diverged "
            "from the DES"
        )
    return failures


def compare(baseline: dict, fresh: dict, kind: str = None) -> List[str]:
    """All regressions of ``fresh`` against ``baseline`` (empty = pass)."""
    if kind is None:
        kind = detect_kind(baseline)
        fresh_kind = detect_kind(fresh)
        if fresh_kind != kind:
            return [f"payload kinds differ: baseline {kind}, fresh {fresh_kind}"]
    if kind == "fastpath":
        return compare_fastpath(baseline, fresh)
    if kind == "sweep":
        return compare_sweep(baseline, fresh)
    if kind == "vcache":
        return compare_vcache(baseline, fresh)
    if kind == "autoscale":
        return compare_autoscale(baseline, fresh)
    if kind == "attribution":
        return compare_attribution(baseline, fresh)
    raise Regression(f"unknown benchmark kind {kind!r}")


def self_check_fastpath(payload: dict) -> List[str]:
    failures: List[str] = []
    if not _require(payload, "bitwise_equal", "payload"):
        failures.append("bitwise_equal: fast path diverged from the DES")
    speedup = _require(payload, "speedup", "payload")
    floor = _require(payload, "min_speedup", "payload")
    if speedup < floor:
        failures.append(f"speedup {speedup:.2f}x below the {floor:.1f}x floor")
    if _require(payload, "vectors_read", "payload") <= 0:
        failures.append("vectors_read: benchmark read no vectors")
    if _require(payload, "simulated_ns", "payload") <= 0:
        failures.append("simulated_ns: no simulated time elapsed")
    return failures


def self_check_sweep(payload: dict) -> List[str]:
    failures: List[str] = []
    if not _require(payload, "bitwise_equal", "payload"):
        failures.append("bitwise_equal: fast replay diverged from the DES")
    speedup = _require(payload, "speedup", "payload")
    floor = _require(payload, "min_speedup", "payload")
    if speedup < floor:
        failures.append(f"speedup {speedup:.2f}x below the {floor:.1f}x floor")
    fractions = _require(payload, "fractions", "payload")
    if _require(payload, "sweep_points", "payload") != len(fractions):
        failures.append("sweep_points: does not match the fractions list")
    if _require(payload, "queries", "payload") <= 0:
        failures.append("queries: benchmark served no queries")
    _check_wall_budget(payload, failures)
    return failures


def self_check_vcache(payload: dict) -> List[str]:
    failures: List[str] = []
    ks = _require(payload, "ks", "payload")
    qps = _require(payload, "qps", "payload")
    ratios = _require(payload, "hit_ratios", "payload")
    for model, values in sorted(ratios.items()):
        if len(values) != len(ks):
            failures.append(f"hit_ratios.{model}: expected {len(ks)} points")
            continue
        # Larger K = colder trace = the hit ratio must not rise.
        for index in range(1, len(values)):
            if values[index] > values[index - 1] + HIT_RATIO_ABS_TOLERANCE:
                failures.append(
                    f"hit_ratios.{model}: rises at K={ks[index]} "
                    f"({values[index - 1]:.4f} -> {values[index]:.4f})"
                )
    for series, values in sorted(qps.items()):
        if len(values) != len(ks):
            failures.append(f"qps.{series}: expected {len(ks)} points")
    for model in sorted(ratios):
        stock = qps.get(f"{model}/RM-SSD")
        cached = qps.get(f"{model}/RM-SSD+cache")
        if not stock or not cached:
            failures.append(f"qps: missing RM-SSD series for {model}")
            continue
        # Stock has no cache: flat across locality.
        low, high = min(stock), max(stock)
        if high > low * (1.0 + STOCK_FLATNESS_REL):
            failures.append(
                f"qps.{model}/RM-SSD: not flat across K ({low:.1f}..{high:.1f})"
            )
        for index, (base, with_cache) in enumerate(zip(stock, cached)):
            if with_cache < base * CACHE_MIN_VS_STOCK:
                failures.append(
                    f"qps.{model}/RM-SSD+cache[{index}]: {with_cache:.1f} "
                    f"slower than stock {base:.1f}"
                )
        # Hotter traces (smaller K) must not serve fewer QPS.
        if cached != sorted(cached, reverse=True):
            failures.append(
                f"qps.{model}/RM-SSD+cache: not monotone non-increasing in K"
            )
    return failures


def self_check_autoscale(payload: dict) -> List[str]:
    failures: List[str] = []
    if not _require(payload, "bitwise_equal", "payload"):
        failures.append(
            "bitwise_equal: cluster fast replay diverged from the DES"
        )
    sla = _require(payload, "sla_ms", "payload")
    if _require(payload, "alert_threshold_ms", "payload") > sla:
        failures.append("alert_threshold_ms: alerting looser than the SLA")
    if _require(payload, "queries", "payload") <= 0:
        failures.append("queries: benchmark served no queries")
    fixed = _require(payload, "fixed", "payload")
    auto = _require(payload, "autoscaled", "payload")
    # The claim: the burst breaks the fixed fleet, the controller
    # rides it out.
    if _require(fixed, "meets_sla", "payload.fixed"):
        failures.append("fixed.meets_sla: the baseline no longer violates")
    if _require(fixed, "p99_ms", "payload.fixed") <= sla:
        failures.append("fixed.p99_ms: within the SLA it must violate")
    if not _require(auto, "meets_sla", "payload.autoscaled"):
        failures.append("autoscaled.meets_sla: the controller lost the SLA")
    if _require(auto, "p99_ms", "payload.autoscaled") > sla:
        failures.append("autoscaled.p99_ms: exceeds the SLA")
    if auto["p99_ms"] >= fixed["p99_ms"]:
        failures.append("autoscaled.p99_ms: no better than the fixed fleet")
    if _require(auto, "scale_ups", "payload.autoscaled") < 1:
        failures.append("autoscaled.scale_ups: the burst forced no scale-out")
    if _require(auto, "scale_downs", "payload.autoscaled") < 1:
        failures.append("autoscaled.scale_downs: the fleet never drained")
    _check_wall_budget(payload, failures)
    return failures


#: Self-check: a load point's queue + service blame shares partition
#: the tail's latency, so they must sum to 1 within float noise.
SHARE_SUM_ABS_TOLERANCE = 1e-6


def self_check_attribution(payload: dict) -> List[str]:
    failures: List[str] = []
    if not _require(payload, "bitwise_equal", "payload"):
        failures.append(
            "bitwise_equal: fast replay's explain document diverged "
            "from the DES"
        )
    loads = _require(payload, "loads", "payload")
    if list(loads) != sorted(loads) or len(set(loads)) != len(loads):
        failures.append("loads: not strictly increasing")
    for key in ("queries", "p99_ms") + _ATTRIBUTION_OUTCOME_KEYS[1:]:
        values = _require(payload, key, "payload")
        if len(values) != len(loads):
            failures.append(f"{key}: expected {len(loads)} points")
    queue = payload.get("queue_share_p99", ())
    service = payload.get("service_share_p99", ())
    for index, (q_share, s_share) in enumerate(zip(queue, service)):
        if not (0.0 <= q_share <= 1.0 and 0.0 <= s_share <= 1.0):
            failures.append(
                f"shares[{index}]: outside [0, 1] "
                f"(queue {q_share:.4f}, service {s_share:.4f})"
            )
        elif abs(q_share + s_share - 1.0) > SHARE_SUM_ABS_TOLERANCE:
            failures.append(
                f"shares[{index}]: queue {q_share:.4f} + service "
                f"{s_share:.4f} does not partition the tail's latency"
            )
    # The claim: as the flash crowd saturates the fleet, the p99
    # tail's blame shifts from service time to queueing.
    if len(queue) >= 2 and queue[-1] <= queue[0]:
        failures.append(
            f"queue_share_p99: blame never shifted to queueing "
            f"({queue[0]:.4f} -> {queue[-1]:.4f})"
        )
    explain = _require(payload, "explain", "payload")
    if explain.get("schema") != "rmssd-explain/v1":
        failures.append(
            "explain: embedded document is not rmssd-explain/v1 "
            f"(schema {explain.get('schema')!r})"
        )
    return failures


def self_check(payload: dict, kind: str = None) -> List[str]:
    """Internal-invariant violations of one payload (empty = pass)."""
    if kind is None:
        kind = detect_kind(payload)
    if kind == "fastpath":
        return self_check_fastpath(payload)
    if kind == "sweep":
        return self_check_sweep(payload)
    if kind == "vcache":
        return self_check_vcache(payload)
    if kind == "autoscale":
        return self_check_autoscale(payload)
    if kind == "attribution":
        return self_check_attribution(payload)
    raise Regression(f"unknown benchmark kind {kind!r}")


def _explain_diagnostic(baseline: dict, fresh: dict) -> List[str]:
    """Regression-explainer lines for payloads embedding explain docs.

    Best-effort: returns ``[]`` when either payload lacks an embedded
    ``rmssd-explain/v1`` document or the ``repro`` package is not
    importable (the gate degrades to a plain diff, never crashes).
    """
    if "explain" not in baseline or "explain" not in fresh:
        return []
    try:
        from repro.obs.explain import explain_failure
    except ImportError:
        return []
    return explain_failure(baseline, fresh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_compare",
        description="diff benchmark JSON against committed baselines",
    )
    parser.add_argument("--baseline", help="committed BENCH_*.json")
    parser.add_argument("--fresh", help="freshly generated BENCH_*.json")
    parser.add_argument("--kind",
                        choices=("fastpath", "sweep", "vcache", "autoscale",
                                 "attribution"),
                        default=None,
                        help="payload kind (default: auto-detect)")
    parser.add_argument("--self-check", nargs="+", metavar="FILE",
                        help="validate files' internal invariants instead "
                             "of diffing two runs")
    args = parser.parse_args(argv)

    try:
        if args.self_check:
            if args.baseline or args.fresh:
                parser.error("--self-check excludes --baseline/--fresh")
            status = 0
            for path in args.self_check:
                failures = self_check(_load(path), args.kind)
                if failures:
                    status = 1
                    print(f"FAIL {path}")
                    for failure in failures:
                        print(f"  {failure}")
                else:
                    print(f"ok   {path}")
            return status
        if not args.baseline or not args.fresh:
            parser.error("need --baseline and --fresh (or --self-check)")
        baseline = _load(args.baseline)
        fresh = _load(args.fresh)
        failures = compare(baseline, fresh, args.kind)
    except Regression as error:
        print(f"FAIL {error}")
        return 1
    if failures:
        print(f"FAIL {args.fresh} regressed against {args.baseline}:")
        for failure in failures:
            print(f"  {failure}")
        for line in _explain_diagnostic(baseline, fresh):
            print(f"  explain: {line}")
        return 1
    print(f"ok   {args.fresh} vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
