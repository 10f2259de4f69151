"""Metrics registry: named counters, gauges, latency histograms.

Companion to the span tracer: where the tracer answers "where did this
*one* request's simulated time go", the registry answers "what is the
*distribution*" — p50/p95/p99/max request latency, per-stage time
histograms, and device-traffic counters — in one exportable structure.
:class:`repro.ssd.stats.IOStatistics` snapshots are absorbed whole
(:meth:`MetricsRegistry.absorb_io`), so device traffic and latency
live side by side in ``metrics.json``.

Histograms use *fixed* bucket boundaries (upper-inclusive, like
Prometheus ``le`` buckets), so the binned state is a fixed number of
integers per window however many values arrive.  Observations are
appended as columns (``observe_many``; ``observe`` is its one-row
call) and wait, unbinned, until the next read bins them in one
vectorized pass — or until
:attr:`~repro.obs.timeseries.WindowTable.PENDING_LIMIT` columns wait,
which bounds what one-row callers that never read hold.  Quantiles
interpolate linearly inside the bucket that crosses the target rank,
with the edge buckets tightened to the observed min/max — exact for
single-bucket data, conservative otherwise.  The boundary semantics
are pinned by ``tests/test_obs_metrics.py``.

All durations are simulated nanoseconds, matching the tracer and the
SSD substrate.

A registry built with ``window_ns=`` additionally rolls every
*timestamped* observation (``inc``/``set``/``observe`` with ``t_ns=``)
into fixed-width windows of the simulated clock
(:mod:`repro.obs.timeseries`), and ``sketch_k=`` attaches a streaming
rank sketch (:mod:`repro.obs.sketch`) to every histogram so deep tails
(p999/p9999) survive without retaining all samples.  Untimestamped
mutations still update the run aggregates only, so existing call
sites are unaffected.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence

from repro.obs.sketch import QuantileSketch
from repro.obs.timeseries import (
    WindowedCounter,
    WindowedGauge,
    WindowedLatency,
    build_document,
    checked_stamp,
    export_document,
)


def _default_bounds_ns() -> List[float]:
    """1-2-5 series from 100 ns to 10 s — wide enough for any stage
    time the simulator produces at either end."""
    bounds: List[float] = []
    decade = 100.0
    while decade <= 1e10:
        for mantissa in (1.0, 2.0, 5.0):
            bounds.append(decade * mantissa)
        decade *= 10.0
    return bounds


#: Default histogram boundaries (ns), shared by every latency metric.
DEFAULT_BOUNDS_NS: Sequence[float] = tuple(_default_bounds_ns())


class Counter:
    """Monotonic named counter.

    Increments are rows of a :class:`~repro.obs.timeseries.
    WindowedCounter`; with a ``window_ns`` (set by a windowed
    registry), increments that carry a ``t_ns=`` stamp also accumulate
    into per-window deltas, exposed as ``series``.
    """

    __slots__ = ("name", "window_ns", "series", "_rows")

    def __init__(self, name: str, window_ns: Optional[float] = None) -> None:
        self.name = name
        self.window_ns = window_ns
        self.series: Optional[WindowedCounter] = None
        self._rows = WindowedCounter(name, window_ns)

    @property
    def value(self) -> int:
        return self._rows.aggregate

    def inc(self, amount: int = 1, t_ns: Optional[float] = None) -> None:
        self.observe_many((amount,), None if t_ns is None else (t_ns,))

    def observe_many(self, amounts, t_ns=None) -> None:
        """Add a column of whole-number increments, stamped by the
        column ``t_ns`` (or unstamped); every entry is checked before
        any is counted."""
        column = self._rows.observe_many(amounts, t_ns)
        if t_ns is not None and self.window_ns is not None and len(column):
            self.series = self._rows


class Gauge:
    """Last-write-wins named value.

    With a ``window_ns``, timestamped sets also track per-window
    last/min/max.
    """

    __slots__ = ("name", "value", "window_ns", "series")

    def __init__(self, name: str, window_ns: Optional[float] = None) -> None:
        self.name = name
        self.value = 0.0
        self.window_ns = window_ns
        self.series: Optional[WindowedGauge] = None

    def set(self, value: float, t_ns: Optional[float] = None) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"value: non-finite gauge value {value!r}")
        if t_ns is not None:
            checked_stamp(t_ns)
        self.value = value
        if t_ns is not None and self.window_ns is not None:
            if self.series is None:
                self.series = WindowedGauge(self.name, self.window_ns)
            self.series.record(t_ns, value)


class LatencyHistogram:
    """Fixed-bucket latency histogram with interpolated quantiles.

    Bucket ``i`` covers ``(bounds[i-1], bounds[i]]`` (bucket 0 starts
    at 0), plus one overflow bucket above ``bounds[-1]``.  The overflow
    bucket tracks its own observed minimum so high quantiles that land
    in it interpolate over the *observed* value range rather than from
    the top bucket edge — a saturated top bucket reports real tails,
    not the bucket boundary.

    Observations are rows of one :class:`~repro.obs.timeseries.
    WindowedLatency` table: its slot 0 is this run aggregate, and with
    a ``window_ns`` the timestamped rows also fill its windows, exposed
    as ``series``.  With a ``sketch_k``, every observation feeds a
    deterministic rank sketch for deep tails (p999/p9999).
    """

    def __init__(
        self,
        name: str,
        bounds: Optional[Sequence[float]] = None,
        window_ns: Optional[float] = None,
        sketch_k: Optional[int] = None,
    ) -> None:
        self.name = name
        chosen = list(DEFAULT_BOUNDS_NS if bounds is None else bounds)
        if not chosen:
            raise ValueError("histogram needs at least one bucket bound")
        if chosen != sorted(chosen) or len(set(chosen)) != len(chosen):
            raise ValueError("bucket bounds must be strictly increasing")
        if chosen[0] <= 0:
            raise ValueError("bucket bounds must be positive")
        self.bounds: List[float] = chosen
        self.window_ns = window_ns
        self.series: Optional[WindowedLatency] = None
        self.sketch: Optional[QuantileSketch] = (
            QuantileSketch(sketch_k) if sketch_k else None
        )
        self._rows = WindowedLatency(name, window_ns, chosen)

    def observe(self, value_ns: float, t_ns: Optional[float] = None) -> None:
        """Record one latency observation (simulated ns, >= 0).

        ``t_ns`` locates the observation on the simulated clock for
        the windowed series (typically the completion instant of the
        request it measures); omitted, only the run aggregate updates.
        """
        self.observe_many((value_ns,), None if t_ns is None else (t_ns,))

    def observe_many(self, value_ns, t_ns=None) -> None:
        """Record a column of latencies, stamped by the column ``t_ns``
        (or unstamped).  Every value and stamp is checked — finite and
        non-negative — before any is recorded."""
        column = self._rows.observe_many(value_ns, t_ns)
        if t_ns is not None and self.window_ns is not None and len(column):
            self.series = self._rows
        if self.sketch is not None:
            self.sketch.extend(column.tolist())

    # The run aggregate: slot 0 of the table.
    count = property(lambda self: self._rows.slot(0)[0])
    total_ns = property(lambda self: self._rows.slot(0)[1])
    min_ns = property(lambda self: self._rows.slot(0)[2])
    max_ns = property(lambda self: self._rows.slot(0)[3])
    #: Smallest value seen in the overflow bucket (> bounds[-1]).
    overflow_min_ns = property(lambda self: self._rows.slot(0)[4])
    counts = property(lambda self: self._rows.slot(0)[5])

    @property
    def mean_ns(self) -> float:
        count, total = self._rows.slot(0)[:2]
        return total / count if count else 0.0

    def percentile(self, q: float) -> float:
        """The q-th percentile (0-100) by in-bucket interpolation.

        Returns 0.0 for an empty histogram.  The first and last
        non-empty buckets are tightened to the observed min/max, so a
        distribution confined to one bucket reports exact quantiles.
        """
        return self._rows.quantiles((0,), (q,)).item()

    def summary(self) -> dict:
        """The export payload: count, mean, quantiles, extremes."""
        p50_ns, p95_ns, p99_ns = self._rows.quantiles((0,), (50.0, 95.0, 99.0))[0].tolist()
        count, total, low, high = self._rows.slot(0)[:4]
        return {
            "count": count,
            "mean_ns": total / count if count else 0.0,
            "p50_ns": p50_ns,
            "p95_ns": p95_ns,
            "p99_ns": p99_ns,
            "min_ns": low if count else 0.0,
            "max_ns": high,
        }

    def as_dict(self) -> dict:
        data = self.summary()
        counts = self.counts
        data["buckets"] = [
            {"le_ns": bound, "count": count}
            for bound, count in zip(self.bounds, counts)
            if count
        ]
        if counts[-1]:
            data["buckets"].append({"le_ns": None, "count": counts[-1]})
        if self.sketch is not None:
            data["sketch"] = self.sketch.as_dict()
        return data


class MetricsRegistry:
    """Named metrics, get-or-create, exported as one JSON document.

    ``window_ns`` makes the registry *windowed*: timestamped
    mutations additionally roll into fixed-width simulated-clock
    windows, exported via :meth:`export_timeseries`.  ``sketch_k``
    attaches a deterministic rank sketch (deep tails) to every
    histogram.  Both default off, leaving existing exports unchanged.
    """

    def __init__(
        self,
        window_ns: Optional[float] = None,
        sketch_k: Optional[int] = None,
    ) -> None:
        if window_ns is not None and not 0 < window_ns < float("inf"):
            raise ValueError("window_ns must be positive and finite")
        if sketch_k is not None and sketch_k < 2:
            raise ValueError("sketch capacity k must be >= 2")
        self.window_ns = window_ns
        self.sketch_k = sketch_k
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}
        self._snapshots: Dict[str, dict] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(
                name, window_ns=self.window_ns
            )
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name, window_ns=self.window_ns)
        return gauge

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> LatencyHistogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = LatencyHistogram(
                name,
                bounds,
                window_ns=self.window_ns,
                sketch_k=self.sketch_k,
            )
        return histogram

    # ------------------------------------------------------------------
    # Windowed series access (see repro.obs.timeseries)
    # ------------------------------------------------------------------
    def series(self, name: str):
        """The windowed series behind metric ``name`` (or None if the
        metric doesn't exist or never saw a timestamped mutation)."""
        for collection in (self._counters, self._gauges, self._histograms):
            metric = collection.get(name)
            if metric is not None:
                return metric.series
        return None

    def series_dict(self) -> dict:
        """Every populated windowed series, keyed by metric name."""
        out: Dict[str, dict] = {}
        for collection in (self._counters, self._gauges, self._histograms):
            for name, metric in collection.items():
                if metric.series is not None:
                    out[name] = metric.series.as_dict()
        return dict(sorted(out.items()))

    def timeseries_dict(self, profiler=None, slo=None) -> dict:
        """The ``rmssd-timeseries/v1`` document (requires
        ``window_ns``); see :func:`repro.obs.timeseries.build_document`."""
        return build_document(metrics=self, profiler=profiler, slo=slo)

    def export_timeseries(self, path: str, profiler=None, slo=None) -> str:
        """Write the timeseries document; returns the path."""
        return export_document(self.timeseries_dict(profiler, slo), path)

    def absorb(self, name: str, payload: dict) -> None:
        """Attach a point-in-time snapshot dict (e.g. I/O counters)."""
        self._snapshots[name] = dict(payload)

    def absorb_io(self, stats, name: str = "io") -> None:
        """Absorb an :class:`~repro.ssd.stats.IOStatistics` (or one of
        its frozen snapshots) under ``snapshots[name]``."""
        self.absorb(name, stats.as_dict())

    def as_dict(self) -> dict:
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(self._histograms.items())
            },
            "snapshots": dict(sorted(self._snapshots.items())),
        }

    def export_json(self, path: str) -> str:
        """Write the registry as ``metrics.json``; returns the path."""
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def export_prometheus(self, path: str) -> str:
        """Write a Prometheus text-exposition snapshot; returns the
        path.  See :func:`render_prometheus`."""
        with open(path, "w") as handle:
            handle.write(render_prometheus(self))
        return path


# ---------------------------------------------------------------------------
# Prometheus text exposition (snapshot of the run aggregates)
# ---------------------------------------------------------------------------
def _prometheus_name(name: str) -> str:
    """Sanitize a metric name into the Prometheus charset, prefixed
    ``rmssd_`` (dots and dashes become underscores)."""
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return f"rmssd_{sanitized}"


def _prometheus_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry as Prometheus text-exposition format.

    Counters export as ``<name>_total``, histograms as cumulative
    ``_bucket{le=...}`` series plus ``_sum``/``_count`` — the standard
    scrape shape, so the snapshot loads into any Prometheus-compatible
    toolchain.  Output is sorted and deterministic.
    """
    lines: List[str] = []
    for name, counter in sorted(registry._counters.items()):
        metric = _prometheus_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {_prometheus_value(counter.value)}")
    for name, gauge in sorted(registry._gauges.items()):
        metric = _prometheus_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prometheus_value(gauge.value)}")
    for name, histogram in sorted(registry._histograms.items()):
        metric = _prometheus_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(histogram.bounds, histogram.counts):
            cumulative += count
            lines.append(
                f'{metric}_bucket{{le="{_prometheus_value(bound)}"}} '
                f"{cumulative}"
            )
        lines.append(
            f'{metric}_bucket{{le="+Inf"}} {histogram.count}'
        )
        lines.append(f"{metric}_sum {_prometheus_value(histogram.total_ns)}")
        lines.append(f"{metric}_count {histogram.count}")
    return "\n".join(lines) + "\n"
