"""Observability for the simulated device: tracing, metrics, profiling.

Every observer is an object the caller builds and passes in
(``tracer=``, ``metrics=``, ``profiler=``, ``critpath=``); ``None``
means not attached, and nothing is read from the environment.  The
modules, all keyed to the *simulated* clock:

* :mod:`repro.obs.tracer` — nested spans with category/args, exported
  as Chrome-trace/Perfetto JSON (``trace.json``).
* :mod:`repro.obs.metrics` — named counters, gauges, and fixed-bucket
  latency histograms (p50/p95/p99/max), absorbing
  :class:`repro.ssd.stats.IOStatistics` snapshots so device traffic
  and latency export as one ``metrics.json``.
* :mod:`repro.obs.timeseries` — windowed metric series over the
  simulated clock (per-window rates, deltas, quantiles; profiler
  busy timelines resampled into utilization series), exported as one
  versioned ``rmssd-timeseries/v1`` document.
* :mod:`repro.obs.sketch` — deterministic streaming rank sketch
  (KLL-style, alternating-parity compaction) for deep tails
  (p999/p9999) with a checkable rank-error bound.
* :mod:`repro.obs.slo` — declarative SLOs over the windowed series
  with SRE-style multi-window burn-rate alerts.
* :mod:`repro.obs.profiler` — per-resource busy/idle timelines,
  utilization fractions, queue depths, and stage-level bottleneck
  attribution (checks the paper's embedding-stage-bottleneck
  invariant); exported as ``profile.json`` by ``rmssd-repro
  profile``.
* :mod:`repro.obs.critpath` / :mod:`repro.obs.explain` — per-request
  critical-path attribution from the serving stamp table
  (``rmssd-explain/v1``) and the cross-run regression explainer.

Instrumentation *names* (spans, metrics, profiler streams, DES
server/resource names) are catalogued in :mod:`repro.obs.names`; call
sites import from there instead of passing string literals (lint rule
R12).

See ``docs/observability.md`` for the API tour, the span taxonomy, and
how to open traces in Perfetto.
"""

from repro.obs import names
from repro.obs.critpath import (
    COMPONENTS,
    EXPLAIN_SCHEMA,
    CritPathCollector,
    breakdowns,
    build_explain_document,
    component_sum,
    tail_exemplars,
)
from repro.obs.explain import diff_documents, render_diff
from repro.obs.metrics import (
    DEFAULT_BOUNDS_NS,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.sketch import QuantileSketch
from repro.obs.slo import DEFAULT_RULES, BurnRateRule, Objective, SLOEngine
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA,
    WindowedGauge,
    build_document,
    export_document,
    utilization_series,
    window_index,
)
from repro.obs.profiler import PROFILE_SCHEMA, Profiler
from repro.obs.tracer import Span, Tracer

__all__ = [
    "BurnRateRule",
    "COMPONENTS",
    "Counter",
    "CritPathCollector",
    "DEFAULT_BOUNDS_NS",
    "DEFAULT_RULES",
    "EXPLAIN_SCHEMA",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "Objective",
    "PROFILE_SCHEMA",
    "Profiler",
    "QuantileSketch",
    "SLOEngine",
    "Span",
    "TIMESERIES_SCHEMA",
    "Tracer",
    "WindowedGauge",
    "breakdowns",
    "build_document",
    "build_explain_document",
    "component_sum",
    "diff_documents",
    "export_document",
    "names",
    "render_diff",
    "render_prometheus",
    "tail_exemplars",
    "utilization_series",
    "window_index",
]
