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
integers per window however many values arrive.  A counter or
histogram *is* its :class:`~repro.obs.timeseries.WindowTable`:
observations are appended as rows (``observe``/``inc`` one tuple,
``observe_many`` one checked column) and wait, unbinned, until the
next read bins them in one vectorized pass — or until
:attr:`~repro.obs.timeseries.WindowTable.PENDING_LIMIT` entries wait,
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

import math
import numbers
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs.sketch import QuantileSketch
from repro.obs.timeseries import (
    WindowedGauge,
    WindowTable,
    build_document,
    checked_column,
    checked_value,
    checked_width,
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


#: The largest running total a counter holds (int64).
_INT64_MAX = int(np.iinfo(np.int64).max)


class Counter(WindowTable):
    """Monotonic named counter: whole-number amounts, int64 end to end.

    Slot 0 of its table is the run total, ``value``; with a
    ``window_ns`` (set by a windowed registry), increments that carry a
    ``t_ns=`` stamp also accumulate into per-window deltas.  An amount
    that would carry the running total past int64 is refused.
    """

    kind = "counter"

    def __init__(self, name: str, window_ns: Optional[float] = None) -> None:
        super().__init__(name, window_ns, dtype=np.int64)
        #: Every accepted amount, summed exactly (the int64 guard).
        self._total = 0

    @property
    def value(self) -> int:
        self._bin()
        return self._sums.item(0)

    def _counted(self, low: int, added: int) -> int:
        """The running total after ``added`` more, whose smallest amount
        is ``low``; refused unless every amount is non-negative and the
        total fits int64."""
        if low < 0:
            raise ValueError("counters only go up; use a Gauge")
        total = self._total + added
        if total > _INT64_MAX:
            raise ValueError(f"amount: the running total {total} would pass int64")
        return total

    def inc(self, amount: int = 1, t_ns: Optional[float] = None) -> None:
        if isinstance(amount, bool) or not isinstance(amount, numbers.Integral):
            raise ValueError(f"amount must be whole numbers, got {amount!r}")
        amount = int(amount)
        total = self._counted(amount, amount)
        self._append(amount, t_ns)
        self._total = total

    def observe_many(self, amounts, t_ns=None) -> None:
        """Add a column of whole-number increments, stamped by the
        column ``t_ns`` (or unstamped); every entry is checked before
        any is counted."""
        column = np.asarray(amounts)
        if column.ndim != 1 or (column.size and column.dtype.kind not in "iu"):
            raise ValueError(f"amount must be whole numbers, got {column.dtype} values")
        total = self._counted(column.min() if len(column) else 0, sum(column.tolist()))
        self._extend(column.astype(np.int64), t_ns)
        self._total = total

    @property
    def total(self) -> int:
        """Increments stamped into windows."""
        self._bin()
        return int(self._sums[1 : len(self._slots) + 1].sum())

    def windows_dict(self) -> dict:
        seconds = self.window_ns / 1e9
        indices, slots = self._window_slots()
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
                for index, delta in zip(indices, self._sums[slots].tolist())
            ],
        }


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
            checked_value(t_ns)
        self.value = value
        if t_ns is not None and self.window_ns is not None:
            if self.series is None:
                self.series = WindowedGauge(self.name, self.window_ns)
            self.series.record(t_ns, value)


class LatencyHistogram(WindowTable):
    """Fixed-bucket latency histogram with interpolated quantiles.

    Bucket ``i`` covers ``(bounds[i-1], bounds[i]]`` (bucket 0 starts
    at 0), plus one overflow bucket above ``bounds[-1]``.  Beside the
    count and total, each slot of the table keeps its bucket counts,
    its extremes and the smallest overflow value, so high quantiles
    that land in the overflow bucket interpolate over the *observed*
    value range rather than from the top bucket edge — a saturated top
    bucket reports real tails, not the bucket boundary.

    Slot 0 is the run aggregate; with a ``window_ns`` the timestamped
    rows also fill the windows.  With a ``sketch_k``, every observation
    feeds a deterministic rank sketch for deep tails (p999/p9999).
    """

    kind = "latency"
    _STATE = WindowTable._STATE + (
        ("_low", math.inf), ("_high", 0.0), ("_overflow_low", math.inf), ("_buckets", 0)
    )

    def __init__(
        self,
        name: str,
        bounds: Optional[Sequence[float]] = None,
        window_ns: Optional[float] = None,
        sketch_k: Optional[int] = None,
    ) -> None:
        chosen = list(DEFAULT_BOUNDS_NS if bounds is None else bounds)
        if not chosen:
            raise ValueError("histogram needs at least one bucket bound")
        if chosen != sorted(chosen) or len(set(chosen)) != len(chosen):
            raise ValueError("bucket bounds must be strictly increasing")
        if chosen[0] <= 0:
            raise ValueError("bucket bounds must be positive")
        super().__init__(name, window_ns)
        self.bounds: List[float] = chosen
        self.sketch: Optional[QuantileSketch] = (
            QuantileSketch(sketch_k) if sketch_k else None
        )
        self._edges = np.asarray(chosen, dtype=np.float64)
        #: Each bucket's edges; the overflow bucket's are the observed
        #: overflow values, tightened in :meth:`quantiles`.
        self._lowers = np.concatenate(([0.0], self._edges))
        self._uppers = np.append(self._edges, math.inf)
        self._low = np.full(1, math.inf)
        self._high = np.zeros(1)
        self._overflow_low = np.full(1, math.inf)
        self._buckets = np.zeros((1, len(chosen) + 1), dtype=np.int64)

    def observe(self, value_ns: float, t_ns: Optional[float] = None) -> None:
        """Record one latency observation (simulated ns, >= 0).

        ``t_ns`` locates the observation on the simulated clock for
        the windowed series (typically the completion instant of the
        request it measures); omitted, only the run aggregate updates.
        """
        value = checked_value(float(value_ns), "value_ns", "latency")
        self._append(value, t_ns)
        if self.sketch is not None:
            self.sketch.insert(value)

    def observe_many(self, value_ns, t_ns=None) -> None:
        """Record a column of latencies, stamped by the column ``t_ns``
        (or unstamped).  Every value and stamp is checked — finite and
        non-negative — before any is recorded."""
        column = checked_column(value_ns, "value_ns", "latency")
        self._extend(column, t_ns)
        if self.sketch is not None:
            self.sketch.extend(column.tolist())

    def _fold(self, slots: np.ndarray, values: np.ndarray) -> None:
        super()._fold(slots, values)
        # np.searchsorted(..., "left") is bisect_left on finite floats.
        buckets = np.searchsorted(self._edges, values)
        np.add.at(self._buckets, (slots, buckets), 1)
        np.minimum.at(self._low, slots, values)
        np.maximum.at(self._high, slots, values)
        if buckets.max() == len(self.bounds):
            over = buckets == len(self.bounds)
            np.minimum.at(self._overflow_low, slots[over], values[over])

    def slot(self, slot: int) -> tuple:
        """``(count, total, min, max, overflow min, bucket counts)`` of
        one slot, as Python numbers."""
        self._bin()
        return (
            self._counts.item(slot),
            self._sums.item(slot),
            self._low.item(slot),
            self._high.item(slot),
            self._overflow_low.item(slot),
            self._buckets[slot].tolist(),
        )

    def percentile(self, q: float) -> float:
        """The q-th percentile (0-100) of the run aggregate.

        Returns 0.0 for an empty histogram.  The first and last
        non-empty buckets are tightened to the observed min/max, so a
        distribution confined to one bucket reports exact quantiles.
        """
        return self.quantiles((0,), (q,)).item()

    def summary(self) -> dict:
        """The export payload: count, mean, quantiles, extremes."""
        p50_ns, p95_ns, p99_ns = self.quantiles((0,), (50.0, 95.0, 99.0))[0].tolist()
        count, total, low, high = self.slot(0)[:4]
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
        counts = self.slot(0)[5]
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

    def quantiles(self, slots: Sequence[int], qs: Sequence[float]) -> np.ndarray:
        """The percentiles ``qs`` (0-100) of every slot in ``slots``, one
        row per slot and one column per ``q``.

        Each interpolates inside the first bucket whose running count
        reaches the target rank ``q / 100 * count``.  The first and last
        non-empty buckets are tightened to the observed min/max; the
        overflow bucket spans the observed overflow values.  ``q = 0``
        reads the minimum, an empty slot reads 0.0.
        """
        for q in qs:
            if not 0.0 <= q <= 100.0:
                raise ValueError("percentile must be in [0, 100]")
        self._bin()
        slots = np.asarray(slots, dtype=np.intp)
        counts = self._buckets[slots]
        low, high = self._low[slots][:, None], self._high[slots][:, None]
        cumulative = counts.cumsum(axis=1)
        count = cumulative[:, -1:]
        target = np.asarray(qs) / 100.0 * count
        # With a positive target that bucket is non-empty: the one
        # before it fell short.
        index = (cumulative[:, None, :] >= target[:, :, None]).argmax(axis=2)
        rows = np.arange(len(slots))[:, None]
        inside = counts[rows, index]
        below = cumulative[rows, index] - inside
        overflow = index == len(self.bounds)
        lower = np.where(overflow, self._overflow_low[slots][:, None], self._lowers[index])
        # The minimum lies at or below every bucket but the first
        # non-empty one, and the maximum above every bucket but the last,
        # so tightening every bucket tightens just those two.  Builtin
        # max/min keep their first argument unless the second is
        # strictly beyond it.
        lower = np.where(low > lower, low, lower)
        upper = self._uppers[index]
        upper = np.where(high < upper, high, upper)
        # Only the entries masked below (q = 0, empty slots) can divide
        # by zero or meet an infinite extreme.
        with np.errstate(divide="ignore", invalid="ignore"):
            values = lower + (target - below) / inside * (upper - lower)
        return np.where(count == 0, 0.0, np.where(target > 0, values, low))

    @property
    def total(self) -> int:
        """Observations stamped into windows."""
        self._bin()
        return int(self._counts[1 : len(self._slots) + 1].sum())

    def window_percentiles(self, start: int, stop: int, q: float) -> List[Tuple[int, float]]:
        """``(count, q-th percentile)`` of every window in
        ``[start, stop)``, ``(0, 0.0)`` where a window is absent; the
        present windows are read in one pass."""
        self._bin()
        slots = [self._slots.get(index) for index in range(start, stop)]
        present = [slot for slot in slots if slot is not None]
        if not present:
            return [(0, 0.0)] * len(slots)
        reads = iter(zip(self._counts[present].tolist(), self.quantiles(present, (q,))[:, 0].tolist()))
        return [(0, 0.0) if slot is None else next(reads) for slot in slots]

    def window_percentile(self, index: int, q: float) -> float:
        """The q-th percentile within one window (0.0 if absent)."""
        return self.window_percentiles(index, index + 1, q)[0][1]

    def windows_dict(self) -> dict:
        indices, slots = self._window_slots()
        count = self._counts[slots]
        columns = zip(
            indices,
            count.tolist(),
            (self._sums[slots] / count).tolist(),
            self.quantiles(slots, (50.0, 95.0, 99.0)).tolist(),
            self._low[slots].tolist(),
            self._high[slots].tolist(),
        )
        return {
            "kind": self.kind,
            "window_ns": self.window_ns,
            "total": int(count.sum()),
            "windows": [
                {
                    "count": rows,
                    "mean_ns": mean,
                    "p50_ns": p50_ns,
                    "p95_ns": p95_ns,
                    "p99_ns": p99_ns,
                    "min_ns": low,
                    "max_ns": high,
                    "index": index,
                    "start_ns": index * self.window_ns,
                }
                for index, rows, mean, (p50_ns, p95_ns, p99_ns), low, high in columns
            ],
        }


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
        if window_ns is not None:
            checked_width(window_ns)
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
                    out[name] = metric.series.windows_dict()
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
        return export_document(self.as_dict(), path)

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
        count, total_ns, _, _, _, counts = histogram.slot(0)
        cumulative = 0
        for bound, bucket in zip(histogram.bounds, counts):
            cumulative += bucket
            lines.append(
                f'{metric}_bucket{{le="{_prometheus_value(bound)}"}} '
                f"{cumulative}"
            )
        lines.append(
            f'{metric}_bucket{{le="+Inf"}} {count}'
        )
        lines.append(f"{metric}_sum {_prometheus_value(total_ns)}")
        lines.append(f"{metric}_count {count}")
    return "\n".join(lines) + "\n"
