"""Benchmark-regression gate over the committed ``BENCH_*.json`` files.

The committed ``BENCH_*.json`` payloads (the fast-path and sweep-replay
speedups, the vector cache's locality curve, the flash-crowd autoscaler,
the tail-blame shift) are part of the repo's claims, and a change can
regress them while every functional test still passes.  This tool makes
the numbers enforceable:

* **diff mode** — ``--baseline OLD --fresh NEW`` compares a fresh
  benchmark run against a committed baseline with *per-metric*
  tolerances, exiting nonzero on any regression.
* **self-check mode** — ``--self-check FILE...`` validates each file's
  *internal* invariants (the fast path really was bitwise-equal, the
  cached QPS really beats stock, hit ratios fall as locality fades)
  without needing a second run.

Each payload kind is one row of :data:`KINDS` (fields: :class:`Kind`),
the only statement of its tolerances and invariants.  Two rules hold
for every kind: a missing metric is a regression, and so is a NaN or
infinite number anywhere in a payload (every ordered bound is false
for NaN, so it would pass them all).

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
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Tuple

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

#: Self-check: a load point's queue + service blame shares partition
#: the tail's latency, so they must sum to 1 within float noise.
SHARE_SUM_ABS_TOLERANCE = 1e-6


class Regression(Exception):
    """A metric regressed (or a baseline violates its own invariants)."""


@dataclass(frozen=True)
class Kind:
    """The rules of one benchmark payload kind (one row of ``KINDS``)."""

    #: Keys whose joint presence identifies the kind; the first row of
    #: ``KINDS`` whose signature a payload carries wins.
    signature: Tuple[str, ...]
    #: Configuration and deterministic outcomes: any drift is a real
    #: behavior change, not noise.  Keys no field names (the raw
    #: wall-clock ``*_wall_s``) are not compared.
    exact: Tuple[str, ...]
    #: The kind's own self-check invariants: yields each violation.
    claims: Callable[[dict], Iterator[str]]
    #: Keys that must be true (``bitwise_equal``: the fast path and the
    #: DES produced identical results — the equivalence contract).
    must_be_true: Tuple[str, ...] = ()
    #: Gate ``speedup >= min_speedup`` (wall-clock speedups are
    #: machine-dependent, so only the payload's own floor binds them).
    floor: bool = False
    #: Gate ``wall_s <= max_wall_s``, the payload's committed budget.
    budget: bool = False
    #: Higher-is-better series (``{name: [values]}`` per key): the
    #: lowest fresh value each baseline value allows.
    series: Mapping[str, Callable[[float], float]] = field(default_factory=dict)


def _require(payload: dict, key: str, label: str):
    if key not in payload:
        raise Regression(f"{label}: metric {key!r} is missing")
    return payload[key]


def _non_finite(value, path: str = "") -> List[str]:
    """Every NaN or infinite number in ``value``, by key path."""
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{path}: {value!r} is not a finite number"]
    if isinstance(value, dict):
        pairs = ((f"{path}.{key}" if path else key, item)
                 for key, item in value.items())
    elif isinstance(value, list):
        pairs = ((f"{path}[{index}]", item) for index, item in enumerate(value))
    else:
        return []
    return [failure for sub, item in pairs for failure in _non_finite(item, sub)]


def _fastpath_claims(payload: dict) -> Iterator[str]:
    if _require(payload, "vectors_read", "payload") <= 0:
        yield "vectors_read: benchmark read no vectors"
    if _require(payload, "simulated_ns", "payload") <= 0:
        yield "simulated_ns: no simulated time elapsed"


def _sweep_claims(payload: dict) -> Iterator[str]:
    fractions = _require(payload, "fractions", "payload")
    if _require(payload, "sweep_points", "payload") != len(fractions):
        yield "sweep_points: does not match the fractions list"
    if _require(payload, "queries", "payload") <= 0:
        yield "queries: benchmark served no queries"


def _vcache_claims(payload: dict) -> Iterator[str]:
    ks = _require(payload, "ks", "payload")
    qps = _require(payload, "qps", "payload")
    ratios = _require(payload, "hit_ratios", "payload")
    for model, values in sorted(ratios.items()):
        if len(values) != len(ks):
            yield f"hit_ratios.{model}: expected {len(ks)} points"
            continue
        # Larger K = colder trace = the hit ratio must not rise.
        for index in range(1, len(values)):
            if values[index] > values[index - 1] + HIT_RATIO_ABS_TOLERANCE:
                yield (
                    f"hit_ratios.{model}: rises at K={ks[index]} "
                    f"({values[index - 1]:.4f} -> {values[index]:.4f})"
                )
    for series, values in sorted(qps.items()):
        if len(values) != len(ks):
            yield f"qps.{series}: expected {len(ks)} points"
    for model in sorted(ratios):
        stock = qps.get(f"{model}/RM-SSD")
        cached = qps.get(f"{model}/RM-SSD+cache")
        if not stock or not cached:
            yield f"qps: missing RM-SSD series for {model}"
            continue
        # Stock has no cache: flat across locality.
        low, high = min(stock), max(stock)
        if high > low * (1.0 + STOCK_FLATNESS_REL):
            yield (
                f"qps.{model}/RM-SSD: not flat across K ({low:.1f}..{high:.1f})"
            )
        for index, (base, with_cache) in enumerate(zip(stock, cached)):
            if with_cache < base * CACHE_MIN_VS_STOCK:
                yield (
                    f"qps.{model}/RM-SSD+cache[{index}]: {with_cache:.1f} "
                    f"slower than stock {base:.1f}"
                )
        # Hotter traces (smaller K) must not serve fewer QPS.
        if cached != sorted(cached, reverse=True):
            yield (
                f"qps.{model}/RM-SSD+cache: not monotone non-increasing in K"
            )


def _autoscale_claims(payload: dict) -> Iterator[str]:
    sla = _require(payload, "sla_ms", "payload")
    if _require(payload, "alert_threshold_ms", "payload") > sla:
        yield "alert_threshold_ms: alerting looser than the SLA"
    if _require(payload, "queries", "payload") <= 0:
        yield "queries: benchmark served no queries"
    fixed = _require(payload, "fixed", "payload")
    auto = _require(payload, "autoscaled", "payload")
    # The claim: the burst breaks the fixed fleet, the controller
    # rides it out.
    if _require(fixed, "meets_sla", "payload.fixed"):
        yield "fixed.meets_sla: the baseline no longer violates"
    if _require(fixed, "p99_ms", "payload.fixed") <= sla:
        yield "fixed.p99_ms: within the SLA it must violate"
    if not _require(auto, "meets_sla", "payload.autoscaled"):
        yield "autoscaled.meets_sla: the controller lost the SLA"
    if _require(auto, "p99_ms", "payload.autoscaled") > sla:
        yield "autoscaled.p99_ms: exceeds the SLA"
    if auto["p99_ms"] >= fixed["p99_ms"]:
        yield "autoscaled.p99_ms: no better than the fixed fleet"
    if _require(auto, "scale_ups", "payload.autoscaled") < 1:
        yield "autoscaled.scale_ups: the burst forced no scale-out"
    if _require(auto, "scale_downs", "payload.autoscaled") < 1:
        yield "autoscaled.scale_downs: the fleet never drained"


def _attribution_claims(payload: dict) -> Iterator[str]:
    loads = _require(payload, "loads", "payload")
    if list(loads) != sorted(loads) or len(set(loads)) != len(loads):
        yield "loads: not strictly increasing"
    for key in ("queries", "p99_ms", "queue_share_p99", "service_share_p99"):
        values = _require(payload, key, "payload")
        if len(values) != len(loads):
            yield f"{key}: expected {len(loads)} points"
    queue = payload["queue_share_p99"]
    service = payload["service_share_p99"]
    for index, (q_share, s_share) in enumerate(zip(queue, service)):
        if not (0.0 <= q_share <= 1.0 and 0.0 <= s_share <= 1.0):
            yield (
                f"shares[{index}]: outside [0, 1] "
                f"(queue {q_share:.4f}, service {s_share:.4f})"
            )
        elif abs(q_share + s_share - 1.0) > SHARE_SUM_ABS_TOLERANCE:
            yield (
                f"shares[{index}]: queue {q_share:.4f} + service "
                f"{s_share:.4f} does not partition the tail's latency"
            )
    # The claim: as the flash crowd saturates the fleet, the p99
    # tail's blame shifts from service time to queueing.
    if len(queue) >= 2 and queue[-1] <= queue[0]:
        yield (
            f"queue_share_p99: blame never shifted to queueing "
            f"({queue[0]:.4f} -> {queue[-1]:.4f})"
        )
    explain = _require(payload, "explain", "payload")
    if explain.get("schema") != "rmssd-explain/v1":
        yield (
            "explain: embedded document is not rmssd-explain/v1 "
            f"(schema {explain.get('schema')!r})"
        )


#: One row per benchmark payload kind, in detection order: autoscale
#: and sweep carry fastpath's ``bitwise_equal`` (sweep its ``speedup``
#: too), so their more specific signatures come first.
KINDS: Dict[str, Kind] = {
    "autoscale": Kind(
        signature=("autoscaled", "bitwise_equal"),
        # The trace and both fleets are seeded and simulated: every
        # outcome (p99, scaling-event counts) is deterministic.
        exact=(
            "model", "arrivals", "queries", "balancer", "sla_ms", "quantile",
            "alert_threshold_ms", "window_ms", "burst_factor",
            "initial_replicas", "max_replicas", "scale_up_step",
            "max_wall_s", "fixed", "autoscaled",
        ),
        claims=_autoscale_claims,
        must_be_true=("bitwise_equal",),
        budget=True,
    ),
    "sweep": Kind(
        signature=("sweep_points", "bitwise_equal"),
        exact=(
            "model", "queries", "fractions", "sweep_points", "repeats",
            "min_speedup", "max_wall_s",
        ),
        claims=_sweep_claims,
        must_be_true=("bitwise_equal",),
        floor=True,
        budget=True,
    ),
    "fastpath": Kind(
        signature=("speedup", "bitwise_equal"),
        exact=("model", "samples", "vectors_read", "simulated_ns",
               "min_speedup"),
        claims=_fastpath_claims,
        must_be_true=("bitwise_equal",),
        floor=True,
    ),
    "attribution": Kind(
        signature=("queue_share_p99",),
        # The trace is seeded and the fleet simulated, so every
        # per-load blame share is deterministic.
        exact=(
            "model", "arrivals", "replicas", "balancer", "burst_factor",
            "quantile", "loads", "queries",
            "p99_ms", "queue_share_p99", "service_share_p99",
        ),
        claims=_attribution_claims,
        must_be_true=("bitwise_equal",),
    ),
    "vcache": Kind(
        signature=("hit_ratios", "qps"),
        exact=("ks", "policy", "capacity_rule", "rows_per_table"),
        claims=_vcache_claims,
        series={
            "qps": lambda base: base * (1.0 - QPS_REL_TOLERANCE),
            "hit_ratios": lambda base: base - HIT_RATIO_ABS_TOLERANCE,
        },
    ),
}


def detect_kind(payload: dict) -> str:
    """Which benchmark a payload came from, by its signature keys."""
    for name, kind in KINDS.items():
        if all(key in payload for key in kind.signature):
            return name
    raise Regression(
        "unrecognized benchmark payload (keys: "
        + ", ".join(sorted(payload)) + ")"
    )


def _gates(kind: Kind, payload: dict) -> Iterator[str]:
    """The bounds a payload must meet on its own: true keys, the
    speedup floor, the wall-clock budget."""
    for key in kind.must_be_true:
        if not _require(payload, key, "payload"):
            yield f"{key}: expected true, got {payload[key]!r}"
    if kind.floor:
        speedup = _require(payload, "speedup", "payload")
        floor = _require(payload, "min_speedup", "payload")
        if speedup < floor:
            yield f"speedup: {speedup:.2f}x fell below the {floor:.1f}x floor"
    if kind.budget:
        wall = _require(payload, "wall_s", "payload")
        budget = _require(payload, "max_wall_s", "payload")
        if wall > budget:
            yield f"wall_s: {wall:.1f}s blew the committed {budget:.1f}s budget"


def compare(baseline: dict, fresh: dict) -> List[str]:
    """All regressions of ``fresh`` against ``baseline`` (empty = pass)."""
    failures = [f"baseline {failure}" for failure in _non_finite(baseline)]
    failures += [f"fresh {failure}" for failure in _non_finite(fresh)]
    if failures:
        return failures
    name = detect_kind(baseline)
    fresh_name = detect_kind(fresh)
    if fresh_name != name:
        return [f"payload kinds differ: baseline {name}, fresh {fresh_name}"]
    kind = KINDS[name]
    for key in kind.exact:
        base = _require(baseline, key, "baseline")
        new = _require(fresh, key, "fresh")
        if new != base:
            failures.append(f"{key}: expected {base!r} exactly, got {new!r}")
    for key, lowest in kind.series.items():
        base_series = _require(baseline, key, "baseline")
        new_series = _require(fresh, key, "fresh")
        for series, base_values in sorted(base_series.items()):
            label = f"{key}.{series}"
            if series not in new_series:
                failures.append(f"{label}: series is missing")
                continue
            new_values = new_series[series]
            if len(new_values) != len(base_values):
                failures.append(
                    f"{label}: {len(new_values)} points vs "
                    f"{len(base_values)} in the baseline"
                )
                continue
            for index, (base, new) in enumerate(zip(base_values, new_values)):
                if new < lowest(base):
                    failures.append(
                        f"{label}[{index}]: {new:.4g} below {lowest(base):.4g} "
                        f"(baseline {base:.4g} less its tolerance)"
                    )
    return failures + list(_gates(kind, fresh))


def self_check(payload: dict) -> List[str]:
    """Internal-invariant violations of one payload (empty = pass)."""
    failures = _non_finite(payload)
    if failures:
        return failures
    kind = KINDS[detect_kind(payload)]
    return [*_gates(kind, payload), *kind.claims(payload)]


def _load(path: str) -> dict:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        raise Regression(f"{path}: cannot load: {error}") from None
    if not isinstance(payload, dict):
        raise Regression(
            f"{path}: cannot load: expected a JSON object, "
            f"got {type(payload).__name__}"
        )
    return payload


def _explain_diagnostic(baseline: dict, fresh: dict) -> List[str]:
    """Regression-explainer lines for payloads embedding explain docs.

    Best-effort: returns ``[]`` when either payload lacks an embedded
    ``rmssd-explain/v1`` document or the ``repro`` package is not
    importable (the gate degrades to a plain diff, never crashes).
    """
    try:
        from repro.obs.explain import explain_failure
    except ImportError:
        return []
    return explain_failure(baseline, fresh)


def _report(failures: List[str], failed: str, passed: str) -> int:
    """Print one verdict and its indented failures; the exit status."""
    print(f"FAIL {failed}" if failures else f"ok   {passed}")
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_compare",
        description="diff benchmark JSON against committed baselines",
    )
    parser.add_argument("--baseline", help="committed BENCH_*.json")
    parser.add_argument("--fresh", help="freshly generated BENCH_*.json")
    parser.add_argument("--self-check", nargs="+", metavar="FILE",
                        help="validate files' internal invariants instead "
                             "of diffing two runs")
    args = parser.parse_args(argv)

    if args.self_check:
        if args.baseline or args.fresh:
            parser.error("--self-check excludes --baseline/--fresh")
        status = 0
        for path in args.self_check:
            try:
                status |= _report(self_check(_load(path)), path, path)
            except Regression as error:
                print(f"FAIL {error}")
                status = 1
        return status
    if not args.baseline or not args.fresh:
        parser.error("need --baseline and --fresh (or --self-check)")
    try:
        baseline = _load(args.baseline)
        fresh = _load(args.fresh)
        failures = compare(baseline, fresh)
    except Regression as error:
        print(f"FAIL {error}")
        return 1
    if failures:
        failures += [
            f"explain: {line}" for line in _explain_diagnostic(baseline, fresh)
        ]
    return _report(
        failures, f"{args.fresh} regressed against {args.baseline}:",
        f"{args.fresh} vs {args.baseline}",
    )


if __name__ == "__main__":
    sys.exit(main())
