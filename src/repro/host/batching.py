"""Deadline-aware dynamic batching (extension).

RM-SSD serves small device batches; the host decides how to group an
incoming query stream into them.  Batching raises device efficiency
(up to ``II`` samples ride the kernel pipeline free, and embedding
reads amortize fixed costs) but holding queries to fill a batch adds
queueing delay — the classic trade-off the DeepRecSys line of work
schedules around.

:class:`DynamicBatcher` implements the standard policy: dispatch when
either ``max_batch`` queries are waiting or the oldest has waited
``max_wait_ns``.  Batches then flow through the three-stage RM-SSD
pipeline (:class:`repro.core.pipeline_sim.PipelineSimulator`) with
batch-size-dependent stage times.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import percentile
from repro.core.pipeline_sim import PipelineSimulator
from repro.fpga.compose import StageTimes
from repro.ssd.vcache import _at_least
from repro.workloads.arrivals import validated_instants

#: Maps a batch size to its (emb_ns, bot_ns, top_ns) stage times.
StageTimesFn = Callable[[int], tuple]


def _wait(now: float, until: float) -> float:
    """The clock after waiting until ``until``, advanced as the event
    kernel's timeout advances it: ``now + (until - now)``."""
    return now + (until - now) if now < until else now


@dataclass
class BatchingResult:
    """Outcome of one batching-policy run."""

    query_latencies_ns: List[float]
    batch_sizes: List[int]
    makespan_ns: float

    @property
    def queries(self) -> int:
        return len(self.query_latencies_ns)

    @property
    def qps(self) -> float:
        return self.queries / (self.makespan_ns / 1e9) if self.makespan_ns else 0.0

    @property
    def mean_batch_size(self) -> float:
        return sum(self.batch_sizes) / len(self.batch_sizes)

    def latency_percentile_ns(self, q: float) -> float:
        return percentile(self.query_latencies_ns, q)


class DynamicBatcher:
    """Batch-or-deadline dispatch into a 3-stage pipeline."""

    def __init__(
        self,
        stage_times_fn: StageTimesFn,
        max_batch: int,
        max_wait_ns: float,
    ) -> None:
        _at_least("max_batch", max_batch, 1)
        # One chained comparison refuses negative, NaN and inf waits.
        if not 0 <= max_wait_ns < inf:
            raise ValueError(
                f"max_wait_ns must be finite and >= 0, got {max_wait_ns!r}"
            )
        self.stage_times_fn = stage_times_fn
        self.max_batch = max_batch
        self.max_wait_ns = max_wait_ns

    @classmethod
    def from_engine(cls, mlp_engine, max_batch: int, max_wait_ns: float):
        """Build from an :class:`MLPAccelerationEngine` (stage times in
        engine cycles at 5 ns)."""

        def fn(nbatch: int) -> tuple:
            times: StageTimes = mlp_engine.stage_times_for(nbatch)
            cycle = mlp_engine.settings.cycle_ns
            return (times.temb * cycle, times.tbot * cycle, times.ttop * cycle)

        return cls(fn, max_batch, max_wait_ns)

    # ------------------------------------------------------------------
    def _dispatch_plan(self, arrivals: List[float]) -> Tuple[List[int], List[float]]:
        """Batch sizes and dispatch instants, in dispatch order: wait
        for the oldest query, then until the batch is full (its last
        member arrives) or the oldest's deadline passes."""
        sizes: List[int] = []
        dispatch_ns: List[float] = []
        now, index = 0.0, 0
        while index < len(arrivals):
            now = _wait(now, arrivals[index])
            deadline = arrivals[index] + self.max_wait_ns
            take = 1
            while (
                take < self.max_batch
                and index + take < len(arrivals)
                and arrivals[index + take] <= deadline
            ):
                take += 1
            full = take == self.max_batch
            now = _wait(now, arrivals[index + take - 1] if full else deadline)
            sizes.append(take)
            dispatch_ns.append(now)
            index += take
        return sizes, dispatch_ns

    def run(self, arrival_times_ns: Sequence[float]) -> BatchingResult:
        """Serve queries arriving at the given (sorted, finite)
        instants: dispatch them into batches, then stream the batches
        through :class:`PipelineSimulator` as they are dispatched."""
        arrivals = validated_instants(arrival_times_ns)
        if not arrivals.size:
            raise ValueError("no queries")
        sizes, dispatch_ns = self._dispatch_plan(arrivals.tolist())
        stages = [self.stage_times_fn(size) for size in sizes]
        timeline = PipelineSimulator(
            lambda batch: stages[batch][0],
            lambda batch: stages[batch][1],
            lambda batch: stages[batch][2],
        ).run(len(sizes), arrival_times_ns=dispatch_ns)
        # A query's latency runs from its arrival to its batch's exit.
        latencies = np.repeat(timeline.completions_ns, sizes) - arrivals
        return BatchingResult(
            query_latencies_ns=latencies.tolist(),
            batch_sizes=sizes,
            makespan_ns=timeline.makespan_ns,
        )
