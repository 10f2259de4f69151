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

A counter or histogram *is* its column table (:class:`WindowTable`):
observations arrive as ``(value, t_ns)`` rows — one tuple from a
scalar call, a checked chunk from ``observe_many`` — wait in one
:class:`Rows` buffer (the profiler's rows use the same one), and bin
lazily, in one vectorized pass over the rows appended since the last
read.  The run aggregate and every window are slots of that table, so
the aggregate export, the windowed export and the burn-rate fold
(:class:`repro.obs.slo.BurnRateFold`) read the same numbers and cannot
disagree.

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


def checked_value(value: float, name: str = "t_ns", noun: str = "timestamp") -> float:
    """``value``, refused with one ``ValueError`` naming ``name`` unless
    finite and non-negative (NaN fails every comparison, so it is
    caught too)."""
    if not 0 <= value < math.inf:
        raise _refused(name, noun, value)
    return value


def checked_width(window_ns: float) -> float:
    """``window_ns``, refused unless positive and finite."""
    if not 0 < window_ns < math.inf:
        raise ValueError(f"window_ns must be positive and finite, got {window_ns!r}")
    return window_ns


def window_index(t_ns: float, window_ns: float) -> int:
    """The window containing simulated instant ``t_ns``."""
    return int(checked_value(t_ns) // checked_width(window_ns))


def checked_column(values, name: str, noun: str) -> np.ndarray:
    """``values`` as a one-dimensional float64 column, refused as
    :func:`checked_value` refuses one entry."""
    column = np.asarray(values, dtype=np.float64)
    if column.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional column")
    if len(column) and not (column.min() >= 0.0 and column.max() < math.inf):
        raise _refused(name, noun, float(column[~((column >= 0.0) & (column < math.inf))][0]))
    return column


class Rows:
    """Rows of fixed-dtype columns, in recording order: single rows wait
    as tuples and become one chunk of columns when a column chunk
    follows them or a reader asks."""

    __slots__ = ("dtypes", "chunks", "tail")

    def __init__(self, *dtypes) -> None:
        self.dtypes = dtypes
        self.chunks: List[Tuple[np.ndarray, ...]] = []
        self.tail: List[tuple] = []

    def __len__(self) -> int:
        return len(self.tail) + sum(len(chunk[0]) for chunk in self.chunks)

    def extend(self, *columns: np.ndarray) -> None:
        self._seal()
        self.chunks.append(columns)

    def _seal(self) -> None:
        if self.tail:
            self.chunks.append(tuple(map(np.array, zip(*self.tail), self.dtypes)))
            self.tail = []

    def columns(self) -> Tuple[np.ndarray, ...]:
        """Every row, one array per column."""
        self._seal()
        if len(self.chunks) > 1:
            self.chunks = [tuple(map(np.concatenate, zip(*self.chunks)))]
        if not self.chunks:
            return tuple(np.empty(0, dtype) for dtype in self.dtypes)
        return self.chunks[0]


class WindowTable:
    """A metric's ``(value, t_ns)`` rows and the per-slot sums they bin
    into.  An unstamped row carries a NaN stamp, which cannot be a real
    one: every entry refuses a NaN ``t_ns``.

    Slot 0 accumulates every row — the run aggregate, stamped or not;
    with a ``window_ns``, every window that received a stamped row gets
    a slot of its own.  Totals add left to right in recording order:
    ``ufunc.at`` applies its rows one at a time, in order, which is the
    sum an observation-at-a-time loop makes.  Rows appended since the
    last read wait in one :class:`Rows` buffer — a scalar call's row as
    a tuple, a column call's as one checked chunk — and are binned by
    the next read (or once :attr:`PENDING_LIMIT` entries wait), so a
    reader that comes back often (the autoscaler's folds) bins each row
    once, and binning in more passes adds the same numbers in the same
    order.
    """

    #: The per-slot arrays, grown together, with their empty values.
    _STATE: Tuple[Tuple[str, float], ...] = (("_counts", 0), ("_sums", 0))
    #: Waiting rows and chunks that trigger a bin without a read, so a
    #: caller appending one row at a time and never reading (a device
    #: run's registry, until export) holds a bounded backlog.
    PENDING_LIMIT = 1024

    def __init__(
        self, name: str, window_ns: Optional[float] = None, dtype=np.float64
    ) -> None:
        self.name = name
        self.window_ns = None if window_ns is None else float(checked_width(window_ns))
        #: Rows not binned yet: value and stamp columns.
        self._pending = Rows(dtype, np.float64)
        #: Window index (the float quotient ``t // window_ns``) -> slot.
        self._slots: Dict[float, int] = {}
        self._counts = np.zeros(1, dtype=np.int64)
        self._sums = np.zeros(1, dtype=dtype)

    @property
    def series(self) -> Optional["WindowTable"]:
        """This table as a windowed series, once it holds a stamped row
        (never without a ``window_ns``)."""
        self._bin()
        return self if self._slots else None

    def _append(self, value, t_ns=None) -> None:
        """Queue one checked value with its stamp (None: aggregate
        only), the stamp checked first."""
        self._pending.tail.append((value, math.nan if t_ns is None else checked_value(t_ns)))
        self._queued()

    def _extend(self, values: np.ndarray, t_ns=None) -> None:
        """Queue one column of checked values with their stamps (a
        column of the same length, or None: aggregate only).  The stamps
        are checked before anything is queued."""
        if t_ns is None:
            stamps = np.full(len(values), math.nan)
        else:
            stamps = checked_column(t_ns, "t_ns", "timestamp")
            if len(stamps) != len(values):
                raise ValueError("t_ns must hold one stamp per value")
        self._pending.extend(values, stamps)
        self._queued()

    def _queued(self) -> None:
        if len(self._pending.tail) + len(self._pending.chunks) >= self.PENDING_LIMIT:
            self._bin()

    def _bin(self) -> None:
        """Fold the pending rows into their slots, in one pass: every
        row into slot 0, then the stamped rows into their windows."""
        if not len(self._pending):
            return
        values, stamps = self._pending.columns()
        self._pending.chunks = []
        slots = [0] * len(values)
        if self.window_ns is not None:
            stamped = ~np.isnan(stamps)
            slot_of = self._slots
            keys = stamps[stamped] // self.window_ns
            slots += [slot_of.setdefault(key, len(slot_of) + 1) for key in keys.tolist()]
            values = np.concatenate((values, values[stamped]))
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


class WindowedGauge:
    """Per-window last/min/max of a sampled value."""

    __slots__ = ("name", "window_ns", "_windows")

    kind = "gauge"

    def __init__(self, name: str, window_ns: float) -> None:
        self.name = name
        self.window_ns = float(checked_width(window_ns))
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

    def windows_dict(self) -> dict:
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
    checked_width(window_ns)
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
    if window_ns is None:
        raise ValueError("window_ns: a timeseries document needs a window width")
    document: dict = {
        "schema": TIMESERIES_SCHEMA,
        "window_ns": float(checked_width(window_ns)),
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
    """Write an exported document (timeseries, profile, metrics,
    explain, report) as sorted, indented JSON with a trailing newline;
    returns the path."""
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
