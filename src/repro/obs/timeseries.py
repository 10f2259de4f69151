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

Storage is one column table per counter or histogram
(:class:`WindowTable`): observations arrive as ``(value, t_ns)``
columns — one row from a scalar call, a whole run's worth from
``observe_many`` — and bin lazily, in one vectorized pass over the
rows appended since the last read.  The run aggregate and every window
are slots of that table, so the aggregate export, the windowed export
and the burn-rate fold (:class:`repro.obs.slo.BurnRateFold`) read the
same numbers and cannot disagree.

Everything is deterministic: windows are exported sorted by index,
sums add left to right in recording order, and quantiles interpolate
with the histogram's own operation order, so the DES and fast paths —
whose timestamps are already bitwise-equal — produce **byte-identical**
exports.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Version tag of the timeseries export document.
TIMESERIES_SCHEMA = "rmssd-timeseries/v1"


def _refused(name: str, noun: str, value: float) -> ValueError:
    kind = "negative" if math.isfinite(value) else "non-finite"
    return ValueError(f"{name}: {kind} {noun} {value!r}")


def checked_stamp(t_ns: float) -> float:
    """``t_ns``, refused unless finite and non-negative."""
    if not 0 <= t_ns < math.inf:
        raise _refused("t_ns", "timestamp", t_ns)
    return t_ns


def window_index(t_ns: float, window_ns: float) -> int:
    """The window containing simulated instant ``t_ns``."""
    if window_ns <= 0:
        raise ValueError("window width must be positive")
    return int(checked_stamp(t_ns) // window_ns)


def checked_column(values, name: str, noun: str) -> np.ndarray:
    """``values`` as a one-dimensional float64 column, refused with one
    ``ValueError`` naming ``name`` unless every entry is finite and
    non-negative (NaN fails every comparison, so it is caught too)."""
    column = np.asarray(values, dtype=np.float64)
    if column.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional column")
    if len(column) and not (column.min() >= 0.0 and column.max() < math.inf):
        raise _refused(name, noun, float(column[~((column >= 0.0) & (column < math.inf))][0]))
    return column


class WindowTable:
    """Appended ``(value, t_ns)`` rows and the per-slot sums they bin into.

    Slot 0 accumulates every row — the run aggregate, stamped or not;
    with a ``window_ns``, every window that received a stamped row gets
    a slot of its own.  Totals add left to right in recording order:
    ``ufunc.at`` applies its rows one at a time, in order, which is the
    sum an observation-at-a-time loop makes.  Rows appended since the
    last read wait in ``_pending`` and are binned by the next read (or
    once :attr:`PENDING_LIMIT` columns wait), so a reader that comes
    back often (the autoscaler's folds) bins each row once, and binning
    in more passes adds the same numbers in the same order.
    """

    #: The per-slot arrays, grown together, with their empty values.
    _STATE: Tuple[Tuple[str, float], ...] = (("_counts", 0), ("_sums", 0))
    #: Pending columns that trigger a bin without a read, so a caller
    #: appending one row at a time and never reading (a device run's
    #: registry, until export) holds a bounded backlog.
    PENDING_LIMIT = 1024

    def __init__(
        self, name: str, window_ns: Optional[float] = None, dtype=np.float64
    ) -> None:
        if window_ns is not None and not 0 < window_ns < math.inf:
            raise ValueError("window width must be positive and finite")
        self.name = name
        self.window_ns = None if window_ns is None else float(window_ns)
        #: (values, stamps or None) columns not binned yet.
        self._pending: List[Tuple[np.ndarray, Optional[np.ndarray]]] = []
        #: Window index (the float quotient ``t // window_ns``) -> slot.
        self._slots: Dict[float, int] = {}
        self._counts = np.zeros(1, dtype=np.int64)
        self._sums = np.zeros(1, dtype=dtype)

    def append(self, values: np.ndarray, t_ns=None) -> None:
        """Queue one column of checked values with their stamps
        (``t_ns`` a column of the same length, or None: aggregate only).
        The stamps are checked before anything is queued."""
        stamps = None
        if t_ns is not None:
            stamps = checked_column(t_ns, "t_ns", "timestamp")
            if len(stamps) != len(values):
                raise ValueError("t_ns must hold one stamp per value")
        self._pending.append((values, stamps))
        if len(self._pending) >= self.PENDING_LIMIT:
            self._bin()

    def _bin(self) -> None:
        """Fold the pending rows into their slots, in one pass: every
        row into slot 0, then the stamped rows into their windows."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        columns = [column for column, _ in pending]
        slots = [0] * sum(map(len, columns))
        stamped = [pair for pair in pending if pair[1] is not None]
        if self.window_ns is not None and stamped:
            slot_of = self._slots
            keys = np.concatenate([t for _, t in stamped]) // self.window_ns
            slots += [slot_of.setdefault(key, len(slot_of) + 1) for key in keys.tolist()]
            columns += [column for column, _ in stamped]
        values = np.concatenate(columns)
        size = len(self._counts)
        if len(self._slots) >= size:
            size = max(len(self._slots) + 1, 2 * size)
            for attribute, fill in self._STATE:
                old = getattr(self, attribute)
                grown = np.full((size,) + old.shape[1:], fill, dtype=old.dtype)
                grown[: len(old)] = old
                setattr(self, attribute, grown)
        self._fold(np.array(slots, dtype=np.intp), values)

    def _fold(self, slots: np.ndarray, values: np.ndarray) -> None:
        np.add.at(self._counts, slots, 1)
        np.add.at(self._sums, slots, values)

    def _window_slots(self) -> Tuple[List[int], np.ndarray]:
        """Window indices in order, with their slots."""
        self._bin()
        keys = np.fromiter(self._slots, np.float64, len(self._slots))
        order = np.argsort(keys)
        slots = np.fromiter(self._slots.values(), np.intp, len(self._slots))[order]
        return [int(key) for key in keys[order].tolist()], slots

    def window_indices(self) -> List[int]:
        return self._window_slots()[0]

    def window_count(self, index: int) -> int:
        """Rows stamped inside window ``index`` (0 if none)."""
        self._bin()
        slot = self._slots.get(index)
        return self._counts.item(slot) if slot is not None else 0


class WindowedCounter(WindowTable):
    """Per-window deltas of a monotonic counter: whole-number amounts."""

    kind = "counter"

    def __init__(self, name: str, window_ns: Optional[float] = None) -> None:
        super().__init__(name, window_ns, dtype=np.int64)

    def observe_many(self, amounts, t_ns=None) -> np.ndarray:
        """Append a column of increments (and their stamps); returns
        the checked column."""
        column = np.asarray(amounts)
        if column.ndim != 1 or (column.size and column.dtype.kind not in "iu"):
            raise ValueError(f"amount must be whole numbers, got {column.dtype} values")
        if len(column) and column.min() < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.append(column.astype(np.int64), t_ns)
        return column

    def record(self, t_ns: float, amount: int = 1) -> None:
        self.observe_many((amount,), (t_ns,))

    @property
    def aggregate(self) -> int:
        """Every increment, stamped or not."""
        self._bin()
        return int(self._sums[0])

    @property
    def total(self) -> int:
        """Increments stamped into windows."""
        self._bin()
        return int(self._sums[1 : len(self._slots) + 1].sum())

    def as_dict(self) -> dict:
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


class WindowedLatency(WindowTable):
    """Per-window latency distributions over fixed bucket ``bounds``.

    Beside the count and total, each slot keeps its bucket counts
    (bucket ``i`` covers ``(bounds[i-1], bounds[i]]``, plus one
    overflow bucket), its extremes and the smallest overflow value;
    quantiles interpolate inside the bucket that crosses the target
    rank (see :class:`~repro.obs.metrics.LatencyHistogram`).  Slot 0
    is the histogram's run aggregate, the other slots its windows.
    """

    kind = "latency"
    _STATE = WindowTable._STATE + (
        ("_low", math.inf), ("_high", 0.0), ("_overflow_low", math.inf), ("_buckets", 0)
    )

    def __init__(
        self, name: str, window_ns: Optional[float], bounds: Sequence[float]
    ) -> None:
        super().__init__(name, window_ns)
        self.bounds = list(bounds)
        self._edges = np.asarray(self.bounds, dtype=np.float64)
        #: Each bucket's edges; the overflow bucket's are the observed
        #: overflow values, tightened in :meth:`quantiles`.
        self._lowers = np.concatenate(([0.0], self._edges))
        self._uppers = np.append(self._edges, math.inf)
        self._low = np.full(1, math.inf)
        self._high = np.zeros(1)
        self._overflow_low = np.full(1, math.inf)
        self._buckets = np.zeros((1, len(self.bounds) + 1), dtype=np.int64)

    def observe_many(self, value_ns, t_ns=None) -> np.ndarray:
        """Append a column of latencies (and their stamps); returns
        the checked column."""
        column = checked_column(value_ns, "value_ns", "latency")
        self.append(column, t_ns)
        return column

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

    def as_dict(self) -> dict:
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


# ---------------------------------------------------------------------------
# Profiler resampling: busy-interval timelines -> utilization series
# ---------------------------------------------------------------------------
def _window_overlaps(
    starts: np.ndarray, ends: np.ndarray, window_ns: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``(window index, overlap ns)`` of every busy interval with every
    window it touches, interval by interval, windows ascending — the
    pairs with a positive overlap.  Window ``i`` spans
    ``[i * window_ns, i * window_ns + window_ns)``, both edges rounded
    as written; an interval reaches the first window whose end is at or
    past its own end."""
    first = (starts // window_ns).astype(np.int64)
    # A lower bound on the last window, then stepped up to it.
    last = np.maximum(first, (ends // window_ns).astype(np.int64) - 1)
    while True:
        short = ends > last * window_ns + window_ns
        if not short.any():
            break
        last += short
    spans = last - first + 1
    index = np.arange(spans.sum()) + np.repeat(first - (np.cumsum(spans) - spans), spans)
    window_start = index * window_ns
    window_end = window_start + window_ns
    start, end = np.repeat(starts, spans), np.repeat(ends, spans)
    overlap = np.where(window_end < end, window_end, end) - np.where(
        window_start > start, window_start, start
    )
    kept = overlap > 0
    return index[kept], overlap[kept]


def utilization_series(profiler, window_ns: float) -> dict:
    """Resample the profiler's busy timelines into per-window
    utilization fractions, one series per resource.

    ``profiler`` provides :meth:`~repro.obs.profiler.Profiler.
    busy_timelines` — union-merged busy intervals per resource, the
    same data behind ``resource_report`` but untruncated, so window
    busy times sum exactly to the resource's total busy time.  Each
    window's busy time adds its overlaps left to right, in timeline
    order.
    """
    if window_ns <= 0:
        raise ValueError("window width must be positive")
    series: dict = {}
    for name, (kind, starts, ends) in sorted(profiler.busy_timelines().items()):
        index, overlap = _window_overlaps(starts, ends, window_ns)
        windows, slot = np.unique(index, return_inverse=True)
        busy = np.zeros(len(windows))
        np.add.at(busy, slot, overlap)
        series[name] = {
            "kind": kind,
            "busy_ns": sum((ends - starts).tolist()),
            "windows": [
                {
                    "index": index,
                    "start_ns": index * window_ns,
                    "busy_ns": busy_ns,
                    "utilization": busy_ns / window_ns,
                }
                for index, busy_ns in zip(windows.tolist(), busy.tolist())
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
