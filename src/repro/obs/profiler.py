"""Utilization profiler and bottleneck attribution (simulated clock).

PR 3's tracer answers *where one request's time went*; this module
answers the system-level question behind the paper's design argument:
**which resource is saturated and which is idle?**  The kernel search
(Section IV-C, Rules 1-4) sizes every FC layer so that the embedding
stage remains the throughput bottleneck — the profiler measures that
invariant instead of trusting it, and emits a structured warning when
an MLP stage dominates (the RM-SSD-Naive failure mode of Fig. 12c).

Three record streams feed one profile:

* **service records** — FIFO :class:`repro.sim.resources.Server` jobs
  (the FTL MUX, each flash channel bus) as ``(arrival, start, end)``
  triples, one at a time or, from the serving pipeline, as one column
  triple per stage.  Queue depths are derived post hoc: the depth seen by job
  *i* is the number of earlier-arrived jobs still in the system at its
  arrival.
* **busy intervals** — occupancy of :class:`repro.sim.resources.
  Resource` units (flash dies: first acquire to last release), plus
  the non-DES engines whose time is analytic — per-FC-layer MLP
  kernels, the EV-Sum adder tree, the controller-DRAM vcache stream,
  and the host DMA/MMIO path.  Overlaps are union-merged, so per
  resource ``busy <= elapsed`` holds by construction.
* **stage samples** — one :class:`repro.core.device.DeviceTiming` per
  device batch, aggregated into the bottleneck report.

Design constraints (shared with :mod:`repro.obs.tracer`):

* **Zero overhead when absent** — not profiling is ``profiler=None``
  (the DES kernel's own default for ``sim.profiler``); every
  instrumentation site tests ``profiler is not None``.
* **Simulated time only** — all timestamps are simulated nanoseconds
  (lint rule R7 bans wall clocks here), so exports are deterministic.
* **Bitwise path equivalence** — the lookup fast path records the
  *same* triples as the DES (same float arithmetic, see
  :mod:`repro.ssd.fastpath`), and the serving pipeline's triples are
  read from the run's tables after the path branch
  (``PipelineSimulator._observe``); records are sorted before export,
  so the two paths produce **byte-identical** profile JSON
  (``tests/test_profiler_equivalence.py``).

Pass a :class:`Profiler` as ``profiler=`` to
:class:`repro.core.device.RMSSD` (or the serving / cluster
simulators); export with :meth:`Profiler.export_json` or
``rmssd-repro profile``.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.timeseries import Rows, export_document

#: Schema tag stamped into every exported profile.
PROFILE_SCHEMA = "rmssd-profile/v1"

#: Stage keys of the bottleneck report, in tie-breaking priority order
#: (the embedding stage wins exact ties — the kernel search sizes FC
#: layers *up to* the flash bound, so equality still satisfies Rule 4).
STAGE_KEYS = ("emb", "bot", "top", "io")

#: Cap on exported per-resource timeline entries; the merged busy/idle
#: timeline is truncated (never silently — see ``intervals_omitted``).
TIMELINE_LIMIT = 512

def merge_intervals(
    starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Union-merge intervals given as start/end columns (any order);
    returns the merged columns, sorted.

    Touching intervals coalesce (a die handed straight to the next
    waiter stays busy), so the merged total is the *occupancy* time —
    never double-counting overlap, never exceeding the span it covers.
    Sort-based: in start order, an interval opens a new run when it
    starts after every earlier one has ended, and a run ends at the
    running maximum of its ends.
    """
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], ends[order]
    reach = np.maximum.accumulate(ends)
    opens = np.ones(len(starts), dtype=bool)
    opens[1:] = starts[1:] > reach[:-1]
    closes = np.ones(len(starts), dtype=bool)
    closes[:-1] = opens[1:]
    return starts[opens], reach[closes]


def _service_error(name: str, arrival_ns, start_ns, end_ns) -> str:
    return (
        f"service on {name!r} out of order or not finite: "
        f"arrival_ns={arrival_ns} start_ns={start_ns} end_ns={end_ns}"
    )


class Profiler:
    """Collects resource/stage records; builds the utilization profile."""

    def __init__(self) -> None:
        # name -> (arrival, start, end) FIFO service rows.
        self._services: Dict[str, Rows] = {}
        # name -> (start, end) busy rows.
        self._busy: Dict[str, Rows] = {}
        # name -> (t, depth) sampled wait-queue depth rows.
        self._queue_samples: Dict[str, Rows] = {}
        self._kinds: Dict[str, str] = {}
        # name -> (rows recorded, merged busy starts, ends) at the last
        # merge; stale once the resource has more rows.
        self._merged: Dict[str, Tuple[int, np.ndarray, np.ndarray]] = {}
        # One dict per device batch (DeviceTiming fields + start).
        self.stages: List[dict] = []
        #: Run metadata merged into the export (model, backend, ...).
        self.meta: Dict[str, object] = {}

    def __len__(self) -> int:
        rows = chain(self._services.values(), self._busy.values())
        return sum(map(len, rows)) + len(self.stages)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _rows(self, table: Dict[str, Rows], name: str, kind: str, width: int) -> Rows:
        rows = table.get(name)
        if rows is None:
            rows = table[name] = Rows(*[np.float64] * width)
            self._kinds.setdefault(name, kind)
        return rows

    def _samples(self, name: str) -> Rows:
        rows = self._queue_samples.get(name)
        if rows is None:
            rows = self._queue_samples[name] = Rows(np.float64, np.int64)
        return rows

    def record_service(
        self,
        name: str,
        arrival_ns: float,
        start_ns: float,
        end_ns: float,
        kind: str = "server",
    ) -> None:
        """One FIFO server job: offered at ``arrival``, served
        ``[start, end]`` (``start >= arrival``; the gap is queueing)."""
        # Spelled so that NaN, which fails every comparison, is refused,
        # and so is an infinite endpoint.
        if not -math.inf < arrival_ns <= start_ns <= end_ns < math.inf:
            raise ValueError(_service_error(name, arrival_ns, start_ns, end_ns))
        self._rows(self._services, name, kind, 3).tail.append(
            (arrival_ns, start_ns, end_ns)
        )

    def record_services(
        self, name: str, arrival_ns, start_ns, end_ns, kind: str = "server"
    ) -> None:
        """Many jobs of one FIFO server, as three equal-length columns;
        every job is checked as :meth:`record_service` checks one,
        before any is recorded."""
        if not len(arrival_ns) == len(start_ns) == len(end_ns):
            raise ValueError(f"service columns on {name!r} differ in length")
        arrival, start, end = np.array((arrival_ns, start_ns, end_ns), dtype=np.float64)
        ordered = (-math.inf < arrival) & (arrival <= start) & (start <= end) & (end < math.inf)
        if not ordered.all():
            bad = int(np.argmin(ordered))
            raise ValueError(_service_error(name, arrival[bad], start[bad], end[bad]))
        if len(arrival):
            self._rows(self._services, name, kind, 3).extend(arrival, start, end)

    def record_busy(
        self, name: str, start_ns: float, end_ns: float, kind: str = "resource"
    ) -> None:
        """One busy interval of a resource (overlaps are union-merged)."""
        if not -math.inf < start_ns <= end_ns < math.inf:
            raise ValueError(
                f"busy interval on {name!r} ends before it starts or is "
                f"not finite: start_ns={start_ns} end_ns={end_ns}"
            )
        self._rows(self._busy, name, kind, 2).tail.append((start_ns, end_ns))

    def record_queue_depth(self, name: str, t_ns: float, depth: int) -> None:
        """Sampled wait-queue depth (e.g. acquires that had to wait):
        refused unless ``t_ns`` is finite and ``depth`` a non-negative
        whole number."""
        if not -math.inf < t_ns < math.inf:
            raise ValueError(f"queue depth on {name!r} not finite: t_ns={t_ns}")
        if not (0 <= depth < math.inf and depth == int(depth)):
            raise ValueError(f"negative or fractional queue depth on {name!r}: depth={depth}")
        self._samples(name).tail.append((float(t_ns), int(depth)))

    def record_queue_depths(self, name: str, t_ns, depths) -> None:
        """Many samples of one resource, as two equal-length columns;
        each is checked as :meth:`record_queue_depth` checks one, before
        any is recorded."""
        t, depth = np.array(t_ns, dtype=np.float64), np.asarray(depths)
        if len(t) != len(depth):
            raise ValueError(f"queue depth columns on {name!r} differ in length")
        sound = (-math.inf < t) & (t < math.inf) & (0 <= depth) & (depth < math.inf)
        sound &= depth == np.trunc(depth)
        if not sound.all():
            bad = int(np.argmin(sound))
            # The scalar check refuses the row and names what is wrong.
            self.record_queue_depth(name, t[bad], depth[bad].item())
        if len(t):
            self._samples(name).extend(t, depth.astype(np.int64))

    def record_stage(
        self,
        start_ns: float,
        nbatch: int,
        emb_ns: float,
        bot_ns: float,
        top_ns: float,
        io_ns: float,
        latency_ns: float,
        serialized: bool,
    ) -> None:
        """One device batch's stage sample (a DeviceTiming, located),
        refused unless every time is finite and non-negative (the start
        only finite)."""
        times = (emb_ns, bot_ns, top_ns, io_ns, latency_ns)
        if not (-math.inf < start_ns < math.inf and all(0 <= t < math.inf for t in times)):
            raise ValueError(
                f"stage sample not finite or negative: start_ns={start_ns} "
                f"emb_ns={emb_ns} bot_ns={bot_ns} top_ns={top_ns} "
                f"io_ns={io_ns} latency_ns={latency_ns}"
            )
        self.stages.append(
            {
                "start_ns": float(start_ns),
                "nbatch": int(nbatch),
                "emb": float(emb_ns),
                "bot": float(bot_ns),
                "top": float(top_ns),
                "io": float(io_ns),
                "latency_ns": float(latency_ns),
                "serialized": bool(serialized),
            }
        )

    def set_meta(self, **fields) -> None:
        """Attach run metadata (model, backend, ...) to the export."""
        self.meta.update(fields)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def elapsed_ns(self) -> float:
        """Run horizon: the latest instant any record touches.

        MLP/host intervals are analytic add-ons that extend beyond the
        DES clock (the embedding stage is the only stream that advances
        it), so the horizon is taken over *all* records, not ``sim.now``.
        """
        horizon = 0.0
        for name in self._kinds:
            # A merged timeline ends at the latest end it covers.
            end = float(self._resource_intervals(name)[1][-1])
            if end > horizon:
                horizon = end
        for stage in self.stages:
            end = stage["start_ns"] + stage["latency_ns"]
            if end > horizon:
                horizon = end
        return horizon

    def _resource_intervals(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """The resource's union-merged busy timeline as start/end
        columns (cached until the resource has more rows)."""
        services, busy = self.records(name)
        merged = self._merged.get(name)
        if merged is None or merged[0] != len(services) + len(busy):
            merged = self._merged[name] = (
                len(services) + len(busy),
                *merge_intervals(
                    np.concatenate((busy[:, 0], services[:, 1])),
                    np.concatenate((busy[:, 1], services[:, 2])),
                ),
            )
        return merged[1:]

    def utilizations(self, elapsed: Optional[float] = None) -> Dict[str, float]:
        """Busy fraction per resource (union-merged; ``<= 1`` always)."""
        if elapsed is None:
            elapsed = self.elapsed_ns()
        out: Dict[str, float] = {}
        for name in self._kinds:
            starts, ends = self._resource_intervals(name)
            busy = sum((ends - starts).tolist())
            out[name] = busy / elapsed if elapsed > 0 else 0.0
        return out

    def records(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(arrival, start, end)`` service rows and the
        ``(start, end)`` busy rows recorded for ``name``, in recording
        order."""
        return tuple(
            np.stack(table[name].columns(), axis=1)
            if name in table
            else np.empty((0, width))
            for table, width in ((self._services, 3), (self._busy, 2))
        )

    @staticmethod
    def _service_queue_depths(triples) -> List[int]:
        """Depth seen by each job at arrival (earlier jobs still in
        system).  FIFO service means completion order equals arrival
        order, so departures before ``arrival_i`` are a prefix count:
        ``bisect_right(ends, arrival_i, 0, i)`` over the jobs in sorted
        order.  Where the ends before job ``i`` are sorted that is a
        ``searchsorted``; past the first descent (a stage name merging
        several servers, whose ends interleave) the search is replayed
        for every remaining job at once, probe for probe as
        ``bisect_right`` makes them, so the count is the same."""
        rows = np.asarray(triples, dtype=np.float64).reshape(-1, 3)
        order = np.lexsort(rows.T[::-1])
        arrivals, ends = rows[order, 0], rows[order, 2]
        jobs = np.arange(len(order))
        descents = np.flatnonzero(ends[1:] < ends[:-1])
        ordered = descents[0] + 1 if len(descents) else len(ends)
        departed = np.minimum(np.searchsorted(ends[:ordered], arrivals, "right"), jobs)
        arrivals, hi = arrivals[ordered + 1 :], jobs[ordered + 1 :]
        lo = np.zeros_like(hi)
        # Each probe at least halves every search range; a finished
        # search (lo == hi) stays put.
        for _ in range(len(jobs).bit_length() if len(hi) else 0):
            mid = (lo + hi) >> 1
            left = arrivals < ends[mid]
            hi = np.where(left, mid, hi)
            lo = np.where(left, lo, np.minimum(mid + 1, hi))
        departed[ordered + 1 :] = lo
        return (jobs - departed).tolist()

    def _queue_summary(self, name: str) -> Optional[dict]:
        samples = self._queue_samples.get(name)
        depths = samples.columns()[1].tolist() if samples is not None else []
        if name in self._services:
            depths.extend(self._service_queue_depths(self.records(name)[0]))
        if not depths:
            return None
        return {
            "samples": len(depths),
            "max_depth": max(depths),
            "mean_depth": sum(depths) / len(depths),
        }

    def busy_timelines(self) -> Dict[str, Tuple[str, np.ndarray, np.ndarray]]:
        """Untruncated union-merged busy timelines per resource: its
        kind, then the start and end columns.

        The raw input of the per-window utilization resampler
        (:func:`repro.obs.timeseries.utilization_series`) — unlike
        :meth:`resource_report` this never truncates at
        :data:`TIMELINE_LIMIT`, so window busy times sum exactly to
        the resource's total busy time (the conservation invariant
        ``tools/check_trace.py --timeseries`` checks).
        """
        return {
            name: (self._kinds[name], *self._resource_intervals(name))
            for name in sorted(self._kinds)
        }

    def resource_report(self, elapsed: Optional[float] = None) -> Dict[str, dict]:
        """Per-resource busy/idle timeline, utilization, queue stats."""
        if elapsed is None:
            elapsed = self.elapsed_ns()
        report: Dict[str, dict] = {}
        for name in sorted(self._kinds):
            starts, ends = self._resource_intervals(name)
            busy = sum((ends - starts).tolist())
            services, intervals = self.records(name)
            jobs = len(services) or len(intervals)
            shown = np.stack((starts, ends), axis=1)[:TIMELINE_LIMIT]
            entry = {
                "kind": self._kinds[name],
                "busy_ns": busy,
                "utilization": busy / elapsed if elapsed > 0 else 0.0,
                "jobs": jobs,
                "busy_intervals": shown.tolist(),
                "intervals_omitted": max(0, len(starts) - TIMELINE_LIMIT),
            }
            queue = self._queue_summary(name)
            if queue is not None:
                entry["queue"] = queue
            report[name] = entry
        return report

    def channel_report(self, elapsed: Optional[float] = None) -> Dict[str, dict]:
        """EV-FMC view: per-channel union of its dies and bus.

        A channel's front end is busy whenever *any* of its dies or its
        bus is — the utilization of the per-channel EV-FMC pipeline.
        """
        if elapsed is None:
            elapsed = self.elapsed_ns()
        groups: Dict[str, List[str]] = {}
        for name, kind in self._kinds.items():
            if kind in ("die", "channel-bus") and "-" in name:
                groups.setdefault(name.split("-")[0], []).append(name)
        report: Dict[str, dict] = {}
        for group in sorted(groups):
            members = sorted(groups[group])
            timelines = [self._resource_intervals(member) for member in members]
            starts, ends = merge_intervals(
                *(np.concatenate(column) for column in zip(*timelines))
            )
            busy = sum((ends - starts).tolist())
            report[group] = {
                "busy_ns": busy,
                "utilization": busy / elapsed if elapsed > 0 else 0.0,
                "resources": members,
            }
        return report

    def bottleneck_report(self) -> dict:
        """Name the limiting stage; check the paper's design invariant.

        The kernel search guarantees the *embedding* stage bounds the
        pipeline interval (Rules 1-4); when an MLP stage (or host I/O)
        dominates instead, a structured warning explains which and by
        how much — the profile-level version of Fig. 12c's RM-SSD vs
        RM-SSD-Naive gap.
        """
        totals = {key: 0.0 for key in STAGE_KEYS}
        for stage in self.stages:
            for key in STAGE_KEYS:
                totals[key] += stage[key]
        batches = len(self.stages)
        means = {
            key: (totals[key] / batches if batches else 0.0)
            for key in STAGE_KEYS
        }
        bottleneck = max(STAGE_KEYS, key=lambda key: totals[key])
        # Exact ties resolve to the earliest STAGE_KEYS entry (emb).
        for key in STAGE_KEYS:
            if totals[key] >= totals[bottleneck]:
                bottleneck = key
                break
        slack = {key: totals[bottleneck] - totals[key] for key in STAGE_KEYS}
        holds = bottleneck == "emb"
        warnings: List[dict] = []
        if not holds:
            kind = (
                "mlp-dominates-embedding"
                if bottleneck in ("bot", "top")
                else "io-dominates-embedding"
            )
            warnings.append(
                {
                    "type": kind,
                    "stage": bottleneck,
                    "stage_mean_ns": means[bottleneck],
                    "emb_mean_ns": means["emb"],
                    "ratio": (
                        means[bottleneck] / means["emb"]
                        if means["emb"] > 0
                        else float("inf")
                    ),
                }
            )
        return {
            "batches": batches,
            "inferences": sum(stage["nbatch"] for stage in self.stages),
            "stage_totals_ns": totals,
            "stage_means_ns": means,
            "bottleneck_stage": bottleneck,
            "slack_ns": slack,
            "serialized_batches": sum(
                1 for stage in self.stages if stage["serialized"]
            ),
            "invariant": {
                "name": "embedding-stage-bottleneck",
                "reference": "RM-SSD section IV-C, kernel-search Rules 1-4",
                "holds": holds,
            },
            "warnings": warnings,
        }

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        elapsed = self.elapsed_ns()
        return {
            "schema": PROFILE_SCHEMA,
            "meta": dict(sorted(self.meta.items())),
            "elapsed_ns": elapsed,
            "resources": self.resource_report(elapsed),
            "channels": self.channel_report(elapsed),
            "bottleneck": self.bottleneck_report(),
        }

    def export_json(self, path: str) -> str:
        """Write the profile as deterministic JSON; returns the path.

        Sorted keys, sorted records, fixed float formatting: identical
        runs — and the DES vs fast path of the same run — produce
        byte-identical files.
        """
        return export_document(self.as_dict(), path)
