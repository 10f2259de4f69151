"""Cross-run regression explainer over exported observability JSON.

``tools/bench_compare.py`` can tell you *that* a gate failed ("p99
regressed"); this module tells you *where the time went*: it diffs two
exported documents of the same schema and attributes the latency/QPS
delta to stages, replicas, or windows — "p99 +3.1 ms: 92% queue on
replica 2" instead of a bare number.

Three schemas are understood, dispatched on the ``schema`` key:

* ``rmssd-explain/v1`` (:mod:`repro.obs.critpath`) — per-quantile
  component attribution from the tail means, plus the replica carrying
  the largest queue share;
* ``rmssd-profile/v1`` — utilization movers and bottleneck-stage
  changes;
* ``rmssd-timeseries/v1`` — the worst-moved window of the serving
  latency series and counter-total drifts.

Everything is pure dict arithmetic over already-exported JSON: no
simulator imports, so ``tools/bench_compare.py`` can use it with only
``src`` on the path and degrade gracefully without it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.critpath import COMPONENTS, EXPLAIN_SCHEMA
from repro.obs.profiler import PROFILE_SCHEMA
from repro.obs.timeseries import TIMESERIES_SCHEMA

#: Serving-latency series attributed by the timeseries differ.
_LATENCY_SERIES = "serving.latency_ns"

#: Utilization movers / attribution entries listed per diff.
_TOP_MOVERS = 3


def diff_documents(baseline: dict, fresh: dict) -> dict:
    """Structured diff of two exported documents of the same schema."""
    base_schema = baseline.get("schema")
    fresh_schema = fresh.get("schema")
    if base_schema != fresh_schema:
        raise ValueError(
            f"cannot diff schemas {base_schema!r} and {fresh_schema!r}"
        )
    if base_schema == EXPLAIN_SCHEMA:
        return _diff_explain(baseline, fresh)
    if base_schema == PROFILE_SCHEMA:
        return _diff_profile(baseline, fresh)
    if base_schema == TIMESERIES_SCHEMA:
        return _diff_timeseries(baseline, fresh)
    raise ValueError(f"cannot explain schema {base_schema!r}")


# ---------------------------------------------------------------------------
# rmssd-explain/v1
# ---------------------------------------------------------------------------
def _diff_explain(baseline: dict, fresh: dict) -> dict:
    base_q = {entry["q"]: entry for entry in baseline.get("quantiles", [])}
    quantiles = []
    for entry in fresh.get("quantiles", []):
        base = base_q.get(entry["q"])
        if base is None:
            continue
        quantiles.append(_diff_quantile(base, entry))
    return {
        "kind": "explain",
        "count_delta": (
            fresh.get("requests", {}).get("count", 0)
            - baseline.get("requests", {}).get("count", 0)
        ),
        "quantiles": quantiles,
    }


def _diff_quantile(base: dict, fresh: dict) -> dict:
    delta_ns = fresh["latency_ns"] - base["latency_ns"]
    base_mean = base["tail"]["mean_ns"]
    fresh_mean = fresh["tail"]["mean_ns"]
    tail_delta = fresh_mean["latency_ns"] - base_mean["latency_ns"]
    attribution = []
    for component in COMPONENTS:
        component_delta = fresh_mean[component] - base_mean[component]
        attribution.append(
            {
                "component": component,
                "delta_ns": component_delta,
                "share": component_delta / tail_delta if tail_delta else 0.0,
            }
        )
    attribution.sort(key=lambda a: (-abs(a["delta_ns"]), a["component"]))
    return {
        "q": fresh["q"],
        "base_ns": base["latency_ns"],
        "fresh_ns": fresh["latency_ns"],
        "delta_ns": delta_ns,
        "tail_mean_delta_ns": tail_delta,
        "attribution": attribution,
        "worst_replica": _worst_replica(fresh["tail"]),
    }


def _worst_replica(tail: dict) -> Optional[dict]:
    shares: Dict[str, float] = tail.get("queue_share_by_replica", {})
    if not shares:
        return None
    replica = max(sorted(shares), key=lambda rid: shares[rid])
    return {"replica": replica, "queue_share": shares[replica]}


# ---------------------------------------------------------------------------
# rmssd-profile/v1
# ---------------------------------------------------------------------------
def _diff_profile(baseline: dict, fresh: dict) -> dict:
    base_resources = baseline.get("resources", {})
    fresh_resources = fresh.get("resources", {})
    movers = []
    for name in sorted(set(base_resources) & set(fresh_resources)):
        base_util = base_resources[name].get("utilization", 0.0)
        fresh_util = fresh_resources[name].get("utilization", 0.0)
        movers.append(
            {
                "resource": name,
                "base_utilization": base_util,
                "fresh_utilization": fresh_util,
                "delta": fresh_util - base_util,
            }
        )
    movers.sort(key=lambda m: (-abs(m["delta"]), m["resource"]))
    base_stage = baseline.get("bottleneck", {}).get("bottleneck_stage")
    fresh_stage = fresh.get("bottleneck", {}).get("bottleneck_stage")
    return {
        "kind": "profile",
        "bottleneck": {"base": base_stage, "fresh": fresh_stage},
        "movers": movers[:_TOP_MOVERS],
    }


# ---------------------------------------------------------------------------
# rmssd-timeseries/v1
# ---------------------------------------------------------------------------
def _diff_timeseries(baseline: dict, fresh: dict) -> dict:
    base_series = baseline.get("series", {})
    fresh_series = fresh.get("series", {})
    worst = None
    base_latency = base_series.get(_LATENCY_SERIES)
    fresh_latency = fresh_series.get(_LATENCY_SERIES)
    if base_latency and fresh_latency:
        base_windows = {
            w["index"]: w for w in base_latency.get("windows", [])
        }
        for window in fresh_latency.get("windows", []):
            base_window = base_windows.get(window["index"])
            if base_window is None:
                continue
            delta_ns = window.get("p99_ns", 0.0) - base_window.get("p99_ns", 0.0)
            if worst is None or delta_ns > worst["delta_ns"]:
                worst = {
                    "index": window["index"],
                    "start_ns": window.get("start_ns", 0.0),
                    "base_p99_ns": base_window.get("p99_ns", 0.0),
                    "fresh_p99_ns": window.get("p99_ns", 0.0),
                    "delta_ns": delta_ns,
                }
    counters = []
    for name in sorted(set(base_series) & set(fresh_series)):
        if base_series[name].get("kind") != "counter":
            continue
        delta = fresh_series[name].get("total", 0) - base_series[name].get(
            "total", 0
        )
        if delta:
            counters.append({"name": name, "total_delta": delta})
    return {
        "kind": "timeseries",
        "worst_window": worst,
        "counter_deltas": counters,
        "replicas": _replica_delta(baseline, fresh),
    }


def _replica_delta(baseline: dict, fresh: dict) -> Optional[dict]:
    base_cluster = baseline.get("cluster")
    fresh_cluster = fresh.get("cluster")
    if not base_cluster or not fresh_cluster:
        return None
    return {
        "base_final": base_cluster.get("final_replicas"),
        "fresh_final": fresh_cluster.get("final_replicas"),
    }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def render_diff(diff: dict) -> List[str]:
    """Human-readable lines for a :func:`diff_documents` result."""
    kind = diff.get("kind")
    if kind == "explain":
        return _render_explain(diff)
    if kind == "profile":
        return _render_profile(diff)
    if kind == "timeseries":
        return _render_timeseries(diff)
    return [f"(no renderer for diff kind {kind!r})"]


def _render_explain(diff: dict) -> List[str]:
    lines = []
    if diff.get("count_delta"):
        lines.append(f"request count changed by {diff['count_delta']:+d}")
    for entry in diff.get("quantiles", []):
        blame = ", ".join(
            f"{a['share']:.0%} {_component_label(a['component'])}"
            for a in entry["attribution"][:_TOP_MOVERS]
            if abs(a["delta_ns"]) > 0
        )
        line = (
            f"p{entry['q']:g} {entry['delta_ns'] / 1e6:+.2f} ms "
            f"({entry['base_ns'] / 1e6:.2f} -> "
            f"{entry['fresh_ns'] / 1e6:.2f} ms)"
        )
        if blame:
            line += f": {blame}"
        worst = entry.get("worst_replica")
        if worst is not None and worst["queue_share"] > 0:
            line += (
                f"; queue concentrated {worst['queue_share']:.0%} on "
                f"replica {worst['replica']}"
            )
        lines.append(line)
    return lines or ["no shared quantiles to attribute"]


def _component_label(component: str) -> str:
    return component[:-3] if component.endswith("_ns") else component


def _render_profile(diff: dict) -> List[str]:
    lines = []
    bottleneck = diff.get("bottleneck", {})
    if bottleneck.get("base") != bottleneck.get("fresh"):
        lines.append(
            f"bottleneck stage moved: {bottleneck.get('base')} -> "
            f"{bottleneck.get('fresh')}"
        )
    for mover in diff.get("movers", []):
        if not mover["delta"]:
            continue
        lines.append(
            f"{mover['resource']}: utilization "
            f"{mover['base_utilization']:.1%} -> "
            f"{mover['fresh_utilization']:.1%} ({mover['delta']:+.1%})"
        )
    return lines or ["no utilization movement between profiles"]


def _render_timeseries(diff: dict) -> List[str]:
    lines = []
    worst = diff.get("worst_window")
    if worst is not None and worst["delta_ns"]:
        lines.append(
            f"worst window {worst['index']} "
            f"(t={worst['start_ns'] / 1e6:.1f} ms): p99 "
            f"{worst['base_p99_ns'] / 1e6:.2f} -> "
            f"{worst['fresh_p99_ns'] / 1e6:.2f} ms "
            f"({worst['delta_ns'] / 1e6:+.2f} ms)"
        )
    for counter in diff.get("counter_deltas", []):
        lines.append(
            f"counter {counter['name']}: total {counter['total_delta']:+d}"
        )
    replicas = diff.get("replicas")
    if replicas is not None and replicas["base_final"] != replicas["fresh_final"]:
        lines.append(
            f"final replicas: {replicas['base_final']} -> "
            f"{replicas['fresh_final']}"
        )
    return lines or ["no window movement between timeseries"]


def explain_failure(baseline: dict, fresh: dict) -> List[str]:
    """Diagnostic lines for a failed benchmark gate.

    Both payloads may embed an explain/profile/timeseries document
    under an ``explain`` key (the attribution benchmark commits one);
    when present and schema-matched, the rendered diff is the
    diagnostic.  Returns [] when there is nothing to attribute.
    """
    base_doc = baseline.get("explain")
    fresh_doc = fresh.get("explain")
    if not isinstance(base_doc, dict) or not isinstance(fresh_doc, dict):
        return []
    try:
        return render_diff(diff_documents(base_doc, fresh_doc))
    except (KeyError, TypeError, ValueError):
        return []
