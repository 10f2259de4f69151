"""Windowed metric series over the simulated clock.

The registry's counters/gauges/histograms answer "what happened over
the whole run"; ROADMAP item 1 (SLA-driven serving) needs "what
happened in *this* 5 ms of simulated time" — a flash crowd or a cache
going cold is invisible in run aggregates.  This module rolls
timestamped observations into fixed-width windows of the simulated
clock and exports them as one versioned ``rmssd-timeseries/v1``
document.

Window semantics (pinned by ``tests/test_obs_timeseries.py``):

* window ``i`` covers ``[i * window_ns, (i+1) * window_ns)``;
* an observation stamped ``t_ns`` lands in ``floor(t_ns / window_ns)``
  — for serving latencies the stamp is the batch's *completion* time,
  so a window summarizes the requests that finished inside it;
* only observations that carry a ``t_ns=`` stamp enter the series
  (untimestamped mutations still update the run aggregate), and
  window deltas always sum to the series total — the conservation
  invariant ``tools/check_trace.py --timeseries`` enforces.

Everything is deterministic: windows are stored keyed by index and
exported sorted, values are plain float arithmetic on simulated
timestamps, so the DES and fast paths — whose timestamps are already
bitwise-equal — produce **byte-identical** exports.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Version tag of the timeseries export document.
TIMESERIES_SCHEMA = "rmssd-timeseries/v1"


def window_index(t_ns: float, window_ns: float) -> int:
    """The window containing simulated instant ``t_ns``."""
    if window_ns <= 0:
        raise ValueError("window width must be positive")
    if t_ns < 0:
        raise ValueError(f"negative timestamp {t_ns}")
    return int(t_ns // window_ns)


class WindowedCounter:
    """Per-window deltas of a monotonic counter."""

    __slots__ = ("name", "window_ns", "total", "_windows")

    kind = "counter"

    def __init__(self, name: str, window_ns: float) -> None:
        if window_ns <= 0:
            raise ValueError("window width must be positive")
        self.name = name
        self.window_ns = float(window_ns)
        self.total = 0
        self._windows: Dict[int, int] = {}

    def record(self, t_ns: float, amount: int = 1) -> None:
        index = window_index(t_ns, self.window_ns)
        self._windows[index] = self._windows.get(index, 0) + amount
        self.total += amount

    def as_dict(self) -> dict:
        seconds = self.window_ns / 1e9
        return {
            "kind": self.kind,
            "window_ns": self.window_ns,
            "total": self.total,
            "windows": [
                {
                    "index": index,
                    "start_ns": index * self.window_ns,
                    "delta": delta,
                    "rate_per_s": delta / seconds,
                }
                for index, delta in sorted(self._windows.items())
            ],
        }


class WindowedGauge:
    """Per-window last/min/max of a sampled value."""

    __slots__ = ("name", "window_ns", "_windows")

    kind = "gauge"

    def __init__(self, name: str, window_ns: float) -> None:
        if window_ns <= 0:
            raise ValueError("window width must be positive")
        self.name = name
        self.window_ns = float(window_ns)
        #: index -> [last, min, max]
        self._windows: Dict[int, List[float]] = {}

    def record(self, t_ns: float, value: float) -> None:
        index = window_index(t_ns, self.window_ns)
        value = float(value)
        cell = self._windows.get(index)
        if cell is None:
            self._windows[index] = [value, value, value]
        else:
            cell[0] = value
            if value < cell[1]:
                cell[1] = value
            if value > cell[2]:
                cell[2] = value

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "window_ns": self.window_ns,
            "windows": [
                {
                    "index": index,
                    "start_ns": index * self.window_ns,
                    "last": cell[0],
                    "min": cell[1],
                    "max": cell[2],
                }
                for index, cell in sorted(self._windows.items())
            ],
        }


class WindowedLatency:
    """Per-window latency distributions.

    Each window holds its own histogram (built by ``factory`` so the
    bucket layout matches the parent
    :class:`~repro.obs.metrics.LatencyHistogram`), giving per-window
    count/mean/p50/p95/p99/max with the same interpolation semantics
    as the run aggregate.
    """

    __slots__ = ("name", "window_ns", "_factory", "_windows")

    kind = "latency"

    def __init__(
        self, name: str, window_ns: float, factory: Callable[[], object]
    ) -> None:
        if window_ns <= 0:
            raise ValueError("window width must be positive")
        self.name = name
        self.window_ns = float(window_ns)
        self._factory = factory
        self._windows: Dict[int, object] = {}

    def record(self, t_ns: float, value_ns: float) -> None:
        index = window_index(t_ns, self.window_ns)
        histogram = self._windows.get(index)
        if histogram is None:
            histogram = self._windows[index] = self._factory()
        histogram.observe(value_ns)

    @property
    def total(self) -> int:
        """Observations recorded across all windows."""
        return sum(h.count for h in self._windows.values())

    def window_indices(self) -> List[int]:
        return sorted(self._windows)

    def window_percentile(self, index: int, q: float) -> float:
        """The q-th percentile within one window (0.0 if absent)."""
        histogram = self._windows.get(index)
        return histogram.percentile(q) if histogram is not None else 0.0

    def window_count(self, index: int) -> int:
        histogram = self._windows.get(index)
        return histogram.count if histogram is not None else 0

    def as_dict(self) -> dict:
        windows = []
        for index, histogram in sorted(self._windows.items()):
            summary = histogram.summary()
            summary["index"] = index
            summary["start_ns"] = index * self.window_ns
            windows.append(summary)
        return {
            "kind": self.kind,
            "window_ns": self.window_ns,
            "total": self.total,
            "windows": windows,
        }


# ---------------------------------------------------------------------------
# Profiler resampling: busy-interval timelines -> utilization series
# ---------------------------------------------------------------------------
def _window_overlaps(
    start: float, end: float, window_ns: float
) -> Iterator[Tuple[int, float]]:
    """Yield ``(window index, overlap ns)`` for one busy interval."""
    index = int(start // window_ns)
    while True:
        window_start = index * window_ns
        window_end = window_start + window_ns
        overlap = min(end, window_end) - max(start, window_start)
        if overlap > 0:
            yield index, overlap
        if end <= window_end:
            return
        index += 1


def utilization_series(profiler, window_ns: float) -> dict:
    """Resample the profiler's busy timelines into per-window
    utilization fractions, one series per resource.

    ``profiler`` provides :meth:`~repro.obs.profiler.Profiler.
    busy_timelines` — union-merged busy intervals per resource, the
    same data behind ``resource_report`` but untruncated, so window
    busy times sum exactly to the resource's total busy time.
    """
    if window_ns <= 0:
        raise ValueError("window width must be positive")
    series: dict = {}
    for name, (kind, intervals) in sorted(profiler.busy_timelines().items()):
        windows: Dict[int, float] = {}
        for start, end in intervals:
            for index, overlap in _window_overlaps(start, end, window_ns):
                windows[index] = windows.get(index, 0.0) + overlap
        series[name] = {
            "kind": kind,
            "busy_ns": sum(end - start for start, end in intervals),
            "windows": [
                {
                    "index": index,
                    "start_ns": index * window_ns,
                    "busy_ns": busy,
                    "utilization": busy / window_ns,
                }
                for index, busy in sorted(windows.items())
            ],
        }
    return series


# ---------------------------------------------------------------------------
# Document assembly
# ---------------------------------------------------------------------------
def build_document(
    metrics=None,
    profiler=None,
    slo=None,
    window_ns: Optional[float] = None,
    cluster: Optional[dict] = None,
) -> dict:
    """Assemble the ``rmssd-timeseries/v1`` document.

    ``metrics`` contributes its windowed series (a windowed
    :class:`~repro.obs.metrics.MetricsRegistry`), ``profiler`` the
    per-resource utilization series, ``slo`` (an
    :class:`~repro.obs.slo.SLOEngine`) the objective evaluations and
    burn-rate alerts, ``cluster`` the cluster-serving section (replica
    counts and the autoscaler's scaling-event log, from
    :meth:`~repro.host.cluster_serving.ClusterLoadPoint.
    cluster_section`).  Any subset may be present.
    """
    if window_ns is None and metrics is not None:
        window_ns = metrics.window_ns
    if window_ns is None or window_ns <= 0:
        raise ValueError("timeseries document needs a positive window_ns")
    document: dict = {
        "schema": TIMESERIES_SCHEMA,
        "window_ns": float(window_ns),
        "series": metrics.series_dict() if metrics is not None else {},
    }
    if profiler is not None:
        document["utilization"] = utilization_series(profiler, window_ns)
    if slo is not None:
        document["slo"] = slo.report_dict(metrics)
    if cluster is not None:
        document["cluster"] = cluster
    return document


def export_document(document: dict, path: str) -> str:
    """Write a timeseries document as sorted, indented JSON."""
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
