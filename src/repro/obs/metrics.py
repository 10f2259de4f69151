"""Metrics registry: named counters, gauges, latency histograms.

Companion to the span tracer: where the tracer answers "where did this
*one* request's simulated time go", the registry answers "what is the
*distribution*" — p50/p95/p99/max request latency, per-stage time
histograms, and device-traffic counters — in one exportable structure.
:class:`repro.ssd.stats.IOStatistics` snapshots are absorbed whole
(:meth:`MetricsRegistry.absorb_io`), so device traffic and latency
live side by side in ``metrics.json``.

Histograms use *fixed* bucket boundaries (upper-inclusive, like
Prometheus ``le`` buckets) so observation cost is one bisect plus two
integer increments, independent of how many values arrive.  Quantiles
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
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

from repro.obs.sketch import QuantileSketch
from repro.obs.timeseries import (
    WindowedCounter,
    WindowedGauge,
    WindowedLatency,
    build_document,
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

    With a ``window_ns`` (set by a windowed registry), increments that
    carry a ``t_ns=`` stamp also accumulate into per-window deltas.
    """

    __slots__ = ("name", "value", "window_ns", "series")

    def __init__(self, name: str, window_ns: Optional[float] = None) -> None:
        self.name = name
        self.value = 0
        self.window_ns = window_ns
        self.series: Optional[WindowedCounter] = None

    def inc(self, amount: int = 1, t_ns: Optional[float] = None) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount
        if t_ns is not None and self.window_ns is not None:
            if self.series is None:
                self.series = WindowedCounter(self.name, self.window_ns)
            self.series.record(t_ns, amount)


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
        self.value = float(value)
        if t_ns is not None and self.window_ns is not None:
            if self.series is None:
                self.series = WindowedGauge(self.name, self.window_ns)
            self.series.record(t_ns, self.value)


class LatencyHistogram:
    """Fixed-bucket latency histogram with interpolated quantiles.

    Bucket ``i`` covers ``(bounds[i-1], bounds[i]]`` (bucket 0 starts
    at 0), plus one overflow bucket above ``bounds[-1]``.  The overflow
    bucket tracks its own observed minimum so high quantiles that land
    in it interpolate over the *observed* value range rather than from
    the top bucket edge — a saturated top bucket reports real tails,
    not the bucket boundary.

    With a ``window_ns``, timestamped observations also feed a
    per-window series; with a ``sketch_k``, every observation feeds a
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
        self.counts: List[int] = [0] * (len(chosen) + 1)
        self.count = 0
        self.total_ns = 0.0
        self.min_ns = float("inf")
        self.max_ns = 0.0
        #: Smallest value seen in the overflow bucket (> bounds[-1]).
        self.overflow_min_ns = float("inf")
        self.window_ns = window_ns
        self.series: Optional[WindowedLatency] = None
        self.sketch: Optional[QuantileSketch] = (
            QuantileSketch(sketch_k) if sketch_k else None
        )

    def _window_histogram(self) -> "LatencyHistogram":
        """A plain (unwindowed, unsketched) clone for one window."""
        return LatencyHistogram(self.name, self.bounds)

    def observe(self, value_ns: float, t_ns: Optional[float] = None) -> None:
        """Record one latency observation (simulated ns, >= 0).

        ``t_ns`` locates the observation on the simulated clock for
        the windowed series (typically the completion instant of the
        request it measures); omitted, only the run aggregate updates.
        """
        if value_ns < 0:
            raise ValueError(f"negative latency {value_ns}")
        index = bisect_left(self.bounds, value_ns)
        self.counts[index] += 1
        self.count += 1
        self.total_ns += value_ns
        if value_ns < self.min_ns:
            self.min_ns = value_ns
        if value_ns > self.max_ns:
            self.max_ns = value_ns
        if index == len(self.bounds) and value_ns < self.overflow_min_ns:
            self.overflow_min_ns = value_ns
        if self.sketch is not None:
            self.sketch.insert(value_ns)
        if t_ns is not None and self.window_ns is not None:
            if self.series is None:
                self.series = WindowedLatency(
                    self.name, self.window_ns, self._window_histogram
                )
            self.series.record(t_ns, value_ns)

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The q-th percentile (0-100) by in-bucket interpolation.

        Returns 0.0 for an empty histogram.  The first and last
        non-empty buckets are tightened to the observed min/max, so a
        distribution confined to one bucket reports exact quantiles.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        return self._quantiles((q,))[0]

    def _quantiles(self, qs: Sequence[float]) -> List[float]:
        """The percentiles ``qs`` (ascending) in one pass: a bucket
        cursor that only moves forward, up to the last target's bucket."""
        if self.count == 0:
            return [0.0] * len(qs)
        counts = self.counts
        values: List[float] = []
        index = cumulative = 0
        for q in qs:
            target = q / 100.0 * self.count
            if target <= 0:
                values.append(self.min_ns)
                continue
            while counts[index] == 0 or cumulative + counts[index] < target:
                cumulative += counts[index]
                index += 1
            if index < len(self.bounds):
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index]
            else:
                # Overflow bucket: its edges are the *observed*
                # extremes, never the top bucket boundary — see
                # the class docstring (top-bucket clipping fix).
                lower = self.overflow_min_ns
                upper = self.max_ns
            if cumulative == 0:  # first non-empty bucket
                lower = max(lower, self.min_ns)
            if cumulative + counts[index] == self.count:  # last non-empty
                upper = min(upper, self.max_ns)
            fraction = (target - cumulative) / counts[index]
            values.append(lower + fraction * (upper - lower))
        return values

    def summary(self) -> dict:
        """The export payload: count, mean, quantiles, extremes."""
        p50_ns, p95_ns, p99_ns = self._quantiles((50.0, 95.0, 99.0))
        return {
            "count": self.count,
            "mean_ns": self.mean_ns,
            "p50_ns": p50_ns,
            "p95_ns": p95_ns,
            "p99_ns": p99_ns,
            "min_ns": self.min_ns if self.count else 0.0,
            "max_ns": self.max_ns,
        }

    def as_dict(self) -> dict:
        data = self.summary()
        data["buckets"] = [
            {"le_ns": bound, "count": count}
            for bound, count in zip(self.bounds, self.counts)
            if count
        ]
        overflow = self.counts[-1]
        if overflow:
            data["buckets"].append({"le_ns": None, "count": overflow})
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
