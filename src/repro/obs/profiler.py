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
  triples.  Queue depths are derived post hoc: the depth seen by job
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

import json
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

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
    intervals: List[Tuple[float, float]],
) -> List[Tuple[float, float]]:
    """Union-merge ``(start, end)`` intervals (input need not be sorted).

    Touching intervals coalesce (a die handed straight to the next
    waiter stays busy), so the merged total is the *occupancy* time —
    never double-counting overlap, never exceeding the span it covers.
    """
    if not intervals:
        return []
    ordered = sorted(intervals)
    merged: List[Tuple[float, float]] = [ordered[0]]
    for start, end in ordered[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            if end > last_end:
                merged[-1] = (last_start, end)
        else:
            merged.append((start, end))
    return merged


class Profiler:
    """Collects resource/stage records; builds the utilization profile."""

    def __init__(self) -> None:
        # name -> list of (arrival, start, end) FIFO service triples.
        self._services: Dict[str, List[Tuple[float, float, float]]] = {}
        # name -> list of (start, end) busy intervals.
        self._busy: Dict[str, List[Tuple[float, float]]] = {}
        # name -> list of (t, depth) sampled wait-queue depths.
        self._queue_samples: Dict[str, List[Tuple[float, int]]] = {}
        self._kinds: Dict[str, str] = {}
        # One dict per device batch (DeviceTiming fields + start).
        self.stages: List[dict] = []
        #: Run metadata merged into the export (model, backend, ...).
        self.meta: Dict[str, object] = {}

    def __len__(self) -> int:
        return (
            sum(len(v) for v in self._services.values())
            + sum(len(v) for v in self._busy.values())
            + len(self.stages)
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _register(self, name: str, kind: str) -> None:
        if name not in self._kinds:
            self._kinds[name] = kind

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
        # Spelled so that NaN, which fails every comparison, is refused.
        if not arrival_ns <= start_ns <= end_ns:
            raise ValueError(
                f"service on {name!r} out of order: arrival_ns={arrival_ns} "
                f"start_ns={start_ns} end_ns={end_ns}"
            )
        self._register(name, kind)
        self._services.setdefault(name, []).append(
            (float(arrival_ns), float(start_ns), float(end_ns))
        )

    def record_busy(
        self, name: str, start_ns: float, end_ns: float, kind: str = "resource"
    ) -> None:
        """One busy interval of a resource (overlaps are union-merged)."""
        if not start_ns <= end_ns:
            raise ValueError(
                f"busy interval on {name!r} ends before it starts or is "
                f"NaN: start_ns={start_ns} end_ns={end_ns}"
            )
        self._register(name, kind)
        self._busy.setdefault(name, []).append((float(start_ns), float(end_ns)))

    def record_queue_depth(self, name: str, t_ns: float, depth: int) -> None:
        """Sampled wait-queue depth (e.g. acquires that had to wait)."""
        if depth < 0:
            raise ValueError(f"negative queue depth on {name!r}")
        self._queue_samples.setdefault(name, []).append((float(t_ns), int(depth)))

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
        """One device batch's stage sample (a DeviceTiming, located)."""
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
        for triples in self._services.values():
            for _, _, end in triples:
                if end > horizon:
                    horizon = end
        for intervals in self._busy.values():
            for _, end in intervals:
                if end > horizon:
                    horizon = end
        for stage in self.stages:
            end = stage["start_ns"] + stage["latency_ns"]
            if end > horizon:
                horizon = end
        return horizon

    def _resource_intervals(self, name: str) -> List[Tuple[float, float]]:
        intervals = list(self._busy.get(name, ()))
        intervals.extend(
            (start, end) for _, start, end in self._services.get(name, ())
        )
        return merge_intervals(intervals)

    def utilizations(self, elapsed: Optional[float] = None) -> Dict[str, float]:
        """Busy fraction per resource (union-merged; ``<= 1`` always)."""
        if elapsed is None:
            elapsed = self.elapsed_ns()
        out: Dict[str, float] = {}
        for name in self._kinds:
            busy = sum(e - s for s, e in self._resource_intervals(name))
            out[name] = busy / elapsed if elapsed > 0 else 0.0
        return out

    @staticmethod
    def _service_queue_depths(
        triples: List[Tuple[float, float, float]],
    ) -> List[int]:
        """Depth seen by each job at arrival (earlier jobs still in
        system).  FIFO service means completion order equals arrival
        order, so departures before ``arrival_i`` are a prefix count."""
        ordered = sorted(triples)
        ends = [end for _, _, end in ordered]
        depths: List[int] = []
        for index, (arrival, _, _) in enumerate(ordered):
            departed = bisect_right(ends, arrival, 0, index)
            depths.append(index - departed)
        return depths

    def _queue_summary(self, name: str) -> Optional[dict]:
        depths = [depth for _, depth in self._queue_samples.get(name, ())]
        triples = self._services.get(name)
        if triples:
            depths.extend(self._service_queue_depths(triples))
        if not depths:
            return None
        return {
            "samples": len(depths),
            "max_depth": max(depths),
            "mean_depth": sum(depths) / len(depths),
        }

    def busy_timelines(self) -> Dict[str, Tuple[str, List[Tuple[float, float]]]]:
        """Untruncated union-merged busy intervals per resource, with
        each resource's kind.

        The raw input of the per-window utilization resampler
        (:func:`repro.obs.timeseries.utilization_series`) — unlike
        :meth:`resource_report` this never truncates at
        :data:`TIMELINE_LIMIT`, so window busy times sum exactly to
        the resource's total busy time (the conservation invariant
        ``tools/check_trace.py --timeseries`` checks).
        """
        return {
            name: (self._kinds[name], self._resource_intervals(name))
            for name in sorted(self._kinds)
        }

    def resource_report(self, elapsed: Optional[float] = None) -> Dict[str, dict]:
        """Per-resource busy/idle timeline, utilization, queue stats."""
        if elapsed is None:
            elapsed = self.elapsed_ns()
        report: Dict[str, dict] = {}
        for name in sorted(self._kinds):
            merged = self._resource_intervals(name)
            busy = sum(e - s for s, e in merged)
            jobs = len(self._services.get(name, ())) or len(
                self._busy.get(name, ())
            )
            entry = {
                "kind": self._kinds[name],
                "busy_ns": busy,
                "utilization": busy / elapsed if elapsed > 0 else 0.0,
                "jobs": jobs,
                "busy_intervals": [list(pair) for pair in merged[:TIMELINE_LIMIT]],
                "intervals_omitted": max(0, len(merged) - TIMELINE_LIMIT),
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
            intervals: List[Tuple[float, float]] = []
            for member in members:
                intervals.extend(self._resource_intervals(member))
            merged = merge_intervals(intervals)
            busy = sum(e - s for s, e in merged)
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
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path
