"""Open-loop serving study (SLA analysis).

The paper's very first sentence: recommendation systems must "meet the
strict service level agreement requirements".  This module turns the
reproduction into an SLA tool: offer a Poisson query stream to a
serving pipeline, measure the latency distribution, and search for the
highest sustainable load under a tail-latency SLA — the
DeepRecSys-style question the paper's motivation implies but its
evaluation (closed-loop throughput) does not answer.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Integral
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import percentile
from repro.core.pipeline_sim import PipelineSimulator
from repro.fpga.compose import StageTimes
from repro.obs.timeseries import checked_width
from repro.workloads import arrivals


def check_queries(queries) -> None:
    """Refuse, naming it, a query count that is not an integer >= 1."""
    if isinstance(queries, bool) or not isinstance(queries, Integral):
        raise ValueError(f"queries must be an integer, got {queries!r}")
    if queries < 1:
        raise ValueError(f"need at least one query, got queries={queries!r}")


def check_sla(
    sla_ns: float, quantile: float, tolerance: float = 0.02, queries: int = 200
) -> None:
    """Refuse, naming it, an SLA-search parameter no search can honour:
    an objective ``sla_ns`` that is not positive and finite, a
    ``quantile`` outside [0, 100], a ``tolerance`` (a fraction of the
    saturation load) below float resolution — the bisection stops once
    its bracket is within ``tolerance``, and a bracket one ulp wide is
    as narrow as it gets — or above 1, or a ``queries`` count
    :func:`check_queries` refuses."""
    check_queries(queries)
    if not 0.0 < sla_ns < math.inf:
        raise ValueError(f"sla_ns must be positive and finite, got {sla_ns!r}")
    if not 0.0 <= quantile <= 100.0:
        raise ValueError(f"quantile must be in [0, 100], got {quantile!r}")
    if not sys.float_info.epsilon <= tolerance <= 1.0:
        raise ValueError(f"tolerance must be in [2**-52, 1], got {tolerance!r}")


@dataclass(frozen=True)
class WindowStat:
    """Latencies of the batches that *completed* inside one window."""

    index: int
    start_ns: float
    #: Latencies of the window's completions, in completion order.
    latencies_ns: tuple

    @property
    def count(self) -> int:
        return len(self.latencies_ns)

    def percentile(self, q: float) -> float:
        """The q-th latency percentile within this window."""
        return percentile(self.latencies_ns, q)


@dataclass(frozen=True)
class LoadPoint:
    """Latency distribution at one offered load."""

    offered_qps: float
    achieved_qps: float
    p50_ns: float
    p95_ns: float
    p99_ns: float
    mean_ns: float
    #: Mean wait before the embedding stage started serving — the
    #: queueing component of the latency (service time is the rest).
    mean_queue_ns: float = 0.0
    #: Raw per-batch latencies behind the pinned percentiles, so SLA
    #: checks can use any quantile (empty for hand-built points).
    latencies_ns: tuple = ()
    #: Per-window latency summaries (simulated-clock windows keyed by
    #: completion instant), populated when the simulator was built
    #: with ``window_ns=`` — the run aggregate can hide a bad window,
    #: these don't.
    windows: tuple = ()

    def worst_window(self, quantile: float = 99.0):
        """The :class:`WindowStat` with the highest ``quantile``-th
        latency percentile (earliest wins ties); None when the point
        carries no windows."""
        worst = None
        worst_value = -1.0
        for window in self.windows:
            value = window.percentile(quantile)
            if value > worst_value:
                worst, worst_value = window, value
        return worst

    def meets_sla(self, sla_ns: float, quantile: float = 99.0) -> bool:
        """Whether the ``quantile``-th latency percentile is within SLA.

        Any quantile in [0, 100] works: 50/95/99 read the pinned
        fields, others are computed from :attr:`latencies_ns` when
        present and interpolated over the pinned points otherwise.
        """
        if not 0.0 <= quantile <= 100.0:
            raise ValueError("quantile must be in [0, 100]")
        pinned = {50.0: self.p50_ns, 95.0: self.p95_ns, 99.0: self.p99_ns}
        value = pinned.get(float(quantile))
        if value is None:
            if self.latencies_ns:
                value = percentile(self.latencies_ns, quantile)
            else:
                value = float(
                    np.interp(
                        quantile,
                        (50.0, 95.0, 99.0),
                        (self.p50_ns, self.p95_ns, self.p99_ns),
                    )
                )
        return value <= sla_ns


@dataclass(frozen=True)
class SLASearchResult:
    """Outcome of :meth:`ServingSimulator.sla_search`.

    ``points`` keeps every :class:`LoadPoint` the bisection evaluated
    (the trickle probe first, then the probes in evaluation order), so
    callers can plot the latency-vs-load trajectory without
    re-simulating the same offered loads.
    """

    max_qps: float
    points: Tuple[LoadPoint, ...]


class ServingSimulator:
    """Poisson arrivals into a 3-stage serving pipeline."""

    def __init__(
        self,
        times: StageTimes,
        cycle_ns: float = 5.0,
        nbatch: int = 1,
        seed: int = 0,
        tracer=None,
        metrics=None,
        profiler=None,
        window_ns: Optional[float] = None,
        critpath=None,
    ) -> None:
        if not 0.0 < cycle_ns < math.inf:
            raise ValueError("cycle_ns must be positive and finite")
        if nbatch < 1:
            raise ValueError("nbatch must be positive")
        self.pipeline = PipelineSimulator.from_stage_times(
            times, cycle_ns, tracer=tracer, profiler=profiler,
            metrics=metrics, critpath=critpath,
        )
        self.nbatch = nbatch
        self.saturation_qps = times.throughput_qps(1e9 / cycle_ns)
        self._seed = seed
        #: Optional MetricsRegistry, observed by the pipeline itself
        #: (both DES and fast paths): per-batch ``serving.latency_ns``
        #: / ``serving.queue_ns`` observations and the
        #: ``serving.batches`` counter, stamped at completion time so
        #: a windowed registry builds per-window series.
        self.metrics = metrics
        if window_ns is not None:
            checked_width(window_ns)
        #: Fixed window width for LoadPoint.windows summaries (None
        #: disables them); independent of the registry's window so SLA
        #: tooling can summarize without a registry attached.
        self.window_ns = window_ns
        #: Optional CritPathCollector (repro.obs.critpath), fed by the
        #: pipeline with per-request critical-path breakdowns —
        #: identically on both paths, like the metrics registry.
        self.critpath = critpath
        #: Which execution path ("des" or "fast") served the most
        #: recent :meth:`offered_load`; None before the first.  Kept
        #: off :class:`LoadPoint`, whose fields are path-independent.
        self.last_path: Optional[str] = None

    def offered_load(
        self,
        qps: float,
        queries: int = 200,
        seed: Optional[int] = None,
        fast: Optional[bool] = None,
    ) -> LoadPoint:
        """Latency distribution at an offered Poisson load of ``qps``.

        Queries arrive individually; the device serves them in batches
        of ``nbatch`` (the paper's small-batch partitioning), so the
        batch arrival process is the nbatch-fold thinning of the query
        process.

        ``seed=None`` (the default) redraws the constructor seed every
        call — common random numbers, so every point of a sweep sees
        the same gap pattern and curves differ only through the load.
        Pass an explicit ``seed`` for replicate runs that need
        independent arrival processes.  ``fast`` is forwarded to
        :meth:`PipelineSimulator.run` (None follows ``RMSSD_FASTPATH``).
        """
        arrivals.require_finite(qps=qps)
        if qps <= 0:
            raise ValueError("offered load must be positive")
        check_queries(queries)
        seed = self._seed if seed is None else seed
        if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        # An overload is a study too, while the backlog it builds is one
        # a trace could hold: in the time the device needs to serve the
        # queries at saturation, ``qps`` offers this many.
        arrivals.require_bounded(queries * (qps / self.saturation_qps), qps=qps)
        rng = np.random.default_rng(seed)
        # Inter-arrival of a size-k batch: Erlang(k, qps) — the k-fold
        # thinning of the Poisson query process.  Every query is served:
        # full batches, then one short batch for the remainder.  The
        # first gap is the wait for the first batch to fill and is kept:
        # clamping batch 0 to t=0 biased window-0 stats and short-run tails.
        full, remainder = divmod(queries, self.nbatch)
        gaps = rng.gamma(shape=self.nbatch, scale=1e9 / qps, size=full)
        if remainder:
            gaps = np.append(gaps, rng.gamma(shape=remainder, scale=1e9 / qps))
        result = self.pipeline.run(
            len(gaps), arrival_times_ns=np.cumsum(gaps), fast=fast
        )
        self.last_path = result.path
        # The timeline stays columnar: latencies and queue waits are
        # column subtractions, the means sequential accumulates (np.sum
        # is pairwise and would round differently).  The metrics registry
        # (when attached) was already fed by the pipeline's _observe.
        latency_column = result.latencies_ns
        ordered = np.sort(latency_column)
        latencies = latency_column.tolist()
        elapsed_s = result.makespan_ns / 1e9
        return LoadPoint(
            offered_qps=qps,
            achieved_qps=queries / elapsed_s if elapsed_s else 0.0,
            p50_ns=percentile(ordered, 50, presorted=True),
            p95_ns=percentile(ordered, 95, presorted=True),
            p99_ns=percentile(ordered, 99, presorted=True),
            mean_ns=np.add.accumulate(latency_column).item(-1) / len(gaps),
            mean_queue_ns=np.add.accumulate(result.queue_waits_ns).item(-1) / len(gaps),
            latencies_ns=tuple(latencies),
            windows=self._window_stats(result.completions_ns, latencies),
        )

    def _window_stats(self, completions, latencies) -> tuple:
        """Group each batch's latency into the window containing its
        completion instant (matching the windowed-registry semantics
        of :mod:`repro.obs.timeseries`)."""
        width = self.window_ns
        if width is None:
            return ()
        grouped: dict = {}
        for done, latency in zip(completions.tolist(), latencies):
            grouped.setdefault(int(done // width), []).append(latency)
        return tuple(
            WindowStat(
                index=index,
                start_ns=index * width,
                latencies_ns=tuple(grouped[index]),
            )
            for index in sorted(grouped)
        )

    def load_sweep(
        self, fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 0.9, 0.95),
        queries: int = 200,
        seed: Optional[int] = None,
        fast: Optional[bool] = None,
    ) -> List[LoadPoint]:
        """Latency-vs-load curve as fractions of the saturation QPS."""
        return [
            self.offered_load(
                self.saturation_qps * fraction, queries, seed=seed, fast=fast
            )
            for fraction in fractions
        ]

    def sla_search(
        self,
        sla_ns: float,
        quantile: float = 99.0,
        queries: int = 200,
        tolerance: float = 0.02,
        seed: Optional[int] = None,
        fast: Optional[bool] = None,
    ) -> SLASearchResult:
        """Bisect for the largest offered load meeting the SLA.

        Returns the sustained QPS *and* every load point the search
        evaluated (trickle probe included), in evaluation order;
        ``max_qps`` is 0.0 if even a trickle misses the SLA (the
        unloaded latency already exceeds it).  Every parameter is checked
        by :func:`check_sla` before the first probe.
        """
        check_sla(sla_ns, quantile, tolerance, queries)
        low, high = 0.0, self.saturation_qps
        trickle = self.offered_load(
            max(1e-3, 0.01 * high), queries=queries, seed=seed, fast=fast
        )
        points = [trickle]
        if not trickle.meets_sla(sla_ns, quantile):
            return SLASearchResult(max_qps=0.0, points=tuple(points))
        while (high - low) > tolerance * self.saturation_qps:
            mid = (low + high) / 2
            point = self.offered_load(mid, queries=queries, seed=seed, fast=fast)
            points.append(point)
            if point.meets_sla(sla_ns, quantile):
                low = mid
            else:
                high = mid
        return SLASearchResult(max_qps=low, points=tuple(points))

    def max_qps_under_sla(
        self,
        sla_ns: float,
        quantile: float = 99.0,
        queries: int = 200,
        tolerance: float = 0.02,
        seed: Optional[int] = None,
        fast: Optional[bool] = None,
    ) -> float:
        """Largest offered load whose latency quantile meets the SLA.

        Convenience wrapper over :meth:`sla_search` for callers that
        only need the number; the search's evaluated points are on
        ``sla_search(...).points``.
        """
        return self.sla_search(
            sla_ns,
            quantile=quantile,
            queries=queries,
            tolerance=tolerance,
            seed=seed,
            fast=fast,
        ).max_qps
