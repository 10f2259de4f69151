"""Open-loop cluster serving: arrival traces, balancers, autoscaling.

:mod:`repro.host.serving` answers the single-device SLA question; this
module scales it out: an :class:`~repro.workloads.arrivals.ArrivalTrace`
of per-query instants flows through a pluggable load balancer into a
fleet of replica pipelines, optionally under the closed-loop
:class:`~repro.host.autoscale.Autoscaler`.

Structure of one run (:meth:`ClusterServingSimulator.serve`):

1. Query arrivals fold into batch arrivals (``nbatch`` queries per
   batch, a batch arrives with its last query).
2. The *dispatch plan* assigns each batch to a replica using an exact
   analytic mirror of the pipeline's max-plus recurrence — the same
   float operations ``Server.serve`` performs — so the balancer's view
   of queue depths and completion times matches what the simulation
   will actually do, bit for bit.  The autoscaler evaluates between
   epochs on the same exact quantities.
3. Each replica's assigned arrivals replay through its own
   :class:`~repro.core.pipeline_sim.PipelineSimulator` (DES or fast
   path), feeding the shared metrics registry / profiler.  Replicas
   replay in id order on both paths, so windowed timeseries exports
   are **byte-identical** across DES and fast — the single-device
   parity contract, lifted to the cluster.

The dispatch plan itself never touches the execution path, so the
balancer choice, the autoscaler's scaling-event log, and the final
latency distribution are all path-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import percentile
from repro.core.pipeline_fast import resolve_fast
from repro.core.pipeline_sim import PipelineSimulator
from repro.fpga.compose import StageTimes
from repro.host.autoscale import Autoscaler, EpochSignal, ScalingEvent
from repro.obs import names
from repro.obs.timeseries import build_document
from repro.sim import maxplus
from repro.workloads.arrivals import (
    ArrivalTrace,
    batch_arrivals,
    validated_instants,
)

BALANCER_ROUND_ROBIN = "round-robin"
BALANCER_JSQ = "jsq"
BALANCER_LATENCY = "latency-weighted"
BALANCERS = (BALANCER_ROUND_ROBIN, BALANCER_JSQ, BALANCER_LATENCY)

#: Stage keys of the replica pipeline, in bottleneck tie-break order
#: (mirrors repro.obs.profiler.STAGE_KEYS semantics: ties -> emb).
_STAGE_KEYS = ("emb", "bot", "top")


class _ReplicaModel:
    """Exact analytic mirror of one replica's three-stage pipeline.

    Steps each stage server's ``free_at`` with
    :func:`repro.sim.maxplus.serve`, so predicted completion times
    equal the simulated ones bitwise for constant stage times.
    Per-replica batch arrivals are sorted (they are a subsequence of
    the sorted global arrivals) and the stage times are constant, so
    ready times are non-decreasing and the top stage's stable service
    order is arrival order — the sequential recurrence is the whole
    story.
    """

    __slots__ = ("emb_ns", "bot_ns", "top_ns", "_free", "_done", "_head")

    def __init__(self, emb_ns: float, bot_ns: float, top_ns: float) -> None:
        self.emb_ns = float(emb_ns)
        self.bot_ns = float(bot_ns)
        self.top_ns = float(top_ns)
        #: (emb, bot, top) server free_at clocks.
        self._free = [0.0, 0.0, 0.0]
        #: Completion instants of dispatched batches — non-decreasing,
        #: because arrivals are sorted and the recurrence is monotone —
        #: with a head cursor marking the still-in-flight suffix.
        self._done: List[float] = []
        self._head = 0

    def predict(self, arrival_ns: float):
        """Completion instant and post-dispatch frees for ``arrival_ns``
        — pure (no state change)."""
        a = arrival_ns if arrival_ns >= 0.0 else 0.0
        emb_free, bot_free, top_free = self._free
        _, emb_finish, emb_done = maxplus.serve(a, emb_free, self.emb_ns)
        if self.bot_ns > 0:
            _, bot_finish, bot_done = maxplus.serve(a, bot_free, self.bot_ns)
        else:
            bot_finish, bot_done = bot_free, a
        ready = emb_done if emb_done >= bot_done else bot_done
        if self.top_ns > 0:
            _, top_finish, top_done = maxplus.serve(ready, top_free, self.top_ns)
        else:
            top_finish, top_done = top_free, ready
        return top_done, (emb_finish, bot_finish, top_finish)

    def commit(self, arrival_ns: float) -> float:
        """Dispatch one batch: advance the frees, return completion."""
        top_done, frees = self.predict(arrival_ns)
        self._free = list(frees)
        self._done.append(top_done)
        return top_done

    def backlog(self, t_ns: float) -> int:
        """Batches dispatched to this replica still in flight at
        ``t_ns`` (queued or in service)."""
        done = self._done
        while self._head < len(done) and done[self._head] <= t_ns:
            self._head += 1
        return len(done) - self._head


# ---------------------------------------------------------------------------
# Load balancers
# ---------------------------------------------------------------------------
class RoundRobinBalancer:
    """Cycle through the active replicas in id order."""

    name = BALANCER_ROUND_ROBIN

    def __init__(self) -> None:
        self._cursor = 0

    def pick(
        self,
        arrival_ns: float,
        replicas: Sequence[_ReplicaModel],
        active: Sequence[int],
    ) -> int:
        choice = active[self._cursor % len(active)]
        self._cursor += 1
        return choice


class JoinShortestQueueBalancer:
    """Send each batch to the replica with the fewest in-flight
    batches at its arrival instant (ties -> lowest replica id)."""

    name = BALANCER_JSQ

    def pick(
        self,
        arrival_ns: float,
        replicas: Sequence[_ReplicaModel],
        active: Sequence[int],
    ) -> int:
        return min(active, key=lambda rid: (replicas[rid].backlog(arrival_ns), rid))


class LatencyWeightedBalancer:
    """Send each batch to the replica with the earliest *predicted*
    completion — the exact analytic recurrence weights each candidate
    by the latency the batch would see there (ties -> lowest id)."""

    name = BALANCER_LATENCY

    def pick(
        self,
        arrival_ns: float,
        replicas: Sequence[_ReplicaModel],
        active: Sequence[int],
    ) -> int:
        return min(
            active,
            key=lambda rid: (replicas[rid].predict(arrival_ns)[0], rid),
        )


def make_balancer(name: str):
    """Balancer instance for a catalogue name."""
    if name == BALANCER_ROUND_ROBIN:
        return RoundRobinBalancer()
    if name == BALANCER_JSQ:
        return JoinShortestQueueBalancer()
    if name == BALANCER_LATENCY:
        return LatencyWeightedBalancer()
    raise ValueError(
        f"unknown balancer {name!r}; choose one of {', '.join(BALANCERS)}"
    )


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterLoadPoint:
    """Latency distribution of one cluster run."""

    offered_qps: float
    achieved_qps: float
    p50_ns: float
    p95_ns: float
    p99_ns: float
    mean_ns: float
    latencies_ns: tuple
    queries: int
    batches: int
    balancer: str
    initial_replicas: int
    final_replicas: int
    #: Batches served per replica id (ids never reused; drained
    #: replicas keep their slot with their final count).
    per_replica_batches: Tuple[int, ...]
    scale_events: Tuple[ScalingEvent, ...]
    #: Which execution path replayed the replicas ("des" or "fast").
    path: str

    @property
    def scale_ups(self) -> int:
        return sum(
            1 for e in self.scale_events if e.action == names.EVENT_SCALE_UP
        )

    @property
    def scale_downs(self) -> int:
        return sum(
            1 for e in self.scale_events if e.action == names.EVENT_SCALE_DOWN
        )

    def meets_sla(self, sla_ns: float, quantile: float = 99.0) -> bool:
        """Whether the run's ``quantile``-th latency is within SLA."""
        if not 0.0 <= quantile <= 100.0:
            raise ValueError("quantile must be in [0, 100]")
        return percentile(self.latencies_ns, quantile) <= sla_ns

    def cluster_section(self) -> dict:
        """The ``cluster`` section of the timeseries document.

        Path-independent by construction (the dispatch plan never sees
        which execution path replays it), so the exported document
        stays byte-identical across DES and fast runs — ``path`` is
        deliberately not included.
        """
        return {
            "balancer": self.balancer,
            "initial_replicas": self.initial_replicas,
            "final_replicas": self.final_replicas,
            "per_replica_batches": list(self.per_replica_batches),
            "queries": self.queries,
            "batches": self.batches,
            "offered_qps": self.offered_qps,
            "scaling_events": [e.as_dict() for e in self.scale_events],
        }


@dataclass
class _DispatchPlan:
    """Balancer + autoscaler output: who serves what, and when the
    fleet changed size."""

    assignments: Dict[int, List[float]]
    events: List[ScalingEvent]
    initial_replicas: int
    final_replicas: int
    offered_qps: float
    queries: int
    batches: int
    balancer: str
    replica_count: int = field(default=0)


# ---------------------------------------------------------------------------
# The simulator
# ---------------------------------------------------------------------------
class ClusterServingSimulator:
    """An arrival trace against a fleet of replica pipelines."""

    def __init__(
        self,
        times: StageTimes,
        cycle_ns: float = 5.0,
        nbatch: int = 1,
        replicas: int = 2,
        balancer: str = BALANCER_ROUND_ROBIN,
        autoscaler: Optional[Autoscaler] = None,
        metrics=None,
        profiler=None,
        critpath=None,
    ) -> None:
        if not 0.0 < cycle_ns < math.inf:
            raise ValueError("cycle_ns must be positive and finite")
        if replicas < 1:
            raise ValueError("need at least one replica")
        if nbatch < 1:
            raise ValueError("nbatch must be positive")
        if balancer not in BALANCERS:
            raise ValueError(
                f"unknown balancer {balancer!r}; "
                f"choose one of {', '.join(BALANCERS)}"
            )
        self.times = times
        self.cycle_ns = float(cycle_ns)
        self.nbatch = nbatch
        self.replicas = replicas
        self.balancer_name = balancer
        self.autoscaler = autoscaler
        #: Shared observability: every replica's pipeline feeds these,
        #: in replica-id order on both paths (stage profiles merge
        #: under the shared stage names — utilization then reads "any
        #: replica busy").
        self.metrics = metrics
        self.profiler = profiler
        #: Optional CritPathCollector: replicas replay in id order with
        #: the collector's replica context set before each replay, so
        #: per-request breakdowns carry the serving replica id —
        #: identically on both paths.
        self.critpath = critpath
        self.stage_ns = {
            "emb": times.temb * self.cycle_ns,
            "bot": times.tbot * self.cycle_ns,
            "top": times.ttop * self.cycle_ns,
        }
        #: Saturation throughput of one replica (queries/s).
        self.replica_qps = times.throughput_qps(1e9 / self.cycle_ns)
        self._last_point: Optional[ClusterLoadPoint] = None

    # ------------------------------------------------------------------
    def _fresh_replica(self) -> _ReplicaModel:
        return _ReplicaModel(
            self.stage_ns["emb"], self.stage_ns["bot"], self.stage_ns["top"]
        )

    def _bottleneck(self) -> Tuple[str, bool]:
        """The replica pipeline's limiting stage, with the profiler's
        tie-break (equal totals resolve to the earliest key: emb)."""
        stage = max(_STAGE_KEYS, key=lambda key: self.stage_ns[key])
        return stage, stage == "emb"

    @staticmethod
    def _query_times(trace) -> List[float]:
        """The trace's query instants; raw instants are held to the
        :class:`ArrivalTrace` contract (finite, non-negative, sorted)
        here, before the plan feeds any autoscaler or registry state."""
        if isinstance(trace, ArrivalTrace):
            times = list(trace.times_ns)
        else:
            times = validated_instants(list(trace)).tolist()
        if not times:
            raise ValueError("need at least one query arrival")
        return times

    # ------------------------------------------------------------------
    def _plan(self, query_times: List[float]) -> _DispatchPlan:
        """Assign every batch to a replica; run the autoscaler loop."""
        batch_times = batch_arrivals(query_times, self.nbatch).tolist()
        queries = len(query_times)
        span_ns = query_times[-1]
        offered_qps = queries / (span_ns / 1e9) if span_ns > 0 else 0.0

        pool: List[_ReplicaModel] = [
            self._fresh_replica() for _ in range(self.replicas)
        ]
        active = list(range(self.replicas))
        assignments: Dict[int, List[float]] = {
            rid: [] for rid in range(self.replicas)
        }
        balancer = make_balancer(self.balancer_name)
        scaler = self.autoscaler
        bottleneck_stage, invariant_holds = self._bottleneck()
        events: List[ScalingEvent] = []
        arrivals_array = np.asarray(query_times, dtype=np.float64)
        next_eval_ns = scaler.epoch_ns if scaler is not None else None

        for arrival in batch_times:
            while next_eval_ns is not None and arrival >= next_eval_ns:
                self._evaluate_epoch(
                    scaler,
                    next_eval_ns,
                    pool,
                    active,
                    assignments,
                    events,
                    arrivals_array,
                    bottleneck_stage,
                    invariant_holds,
                )
                next_eval_ns += scaler.epoch_ns
            rid = balancer.pick(arrival, pool, active)
            done_ns = pool[rid].commit(arrival)
            assignments[rid].append(arrival)
            if scaler is not None:
                scaler.observe(done_ns - arrival, done_ns)
        return _DispatchPlan(
            assignments=assignments,
            events=events,
            initial_replicas=self.replicas,
            final_replicas=len(active),
            offered_qps=offered_qps,
            queries=queries,
            batches=len(batch_times),
            balancer=self.balancer_name,
            replica_count=len(pool),
        )

    def _evaluate_epoch(
        self,
        scaler: Autoscaler,
        t_ns: float,
        pool: List[_ReplicaModel],
        active: List[int],
        assignments: Dict[int, List[float]],
        events: List[ScalingEvent],
        arrivals_array: np.ndarray,
        bottleneck_stage: str,
        invariant_holds: bool,
    ) -> None:
        """One autoscaler decision at epoch boundary ``t_ns``."""
        lo, hi = np.searchsorted(
            arrivals_array, (t_ns - scaler.epoch_ns, t_ns), side="right"
        )
        epoch_offered = (hi - lo) / (scaler.epoch_ns / 1e9)
        # The replica carrying the deepest backlog at the decision
        # instant (ties -> lowest id): the fleet-level analogue of the
        # stage bottleneck, logged on the scaling event so a page can
        # be traced to the member that caused it.
        bottleneck_replica = max(
            active, key=lambda rid: pool[rid].backlog(t_ns)
        )
        signal = EpochSignal(
            t_ns=t_ns,
            replicas=len(active),
            alerts=scaler.causal_alerts(t_ns),
            offered_qps=float(epoch_offered),
            capacity_qps=len(active) * self.replica_qps,
            bottleneck_stage=bottleneck_stage,
            invariant_holds=invariant_holds,
            bottleneck_replica=bottleneck_replica,
        )
        delta = scaler.evaluate(signal)
        if delta > 0:
            # Fresh instances: a new replica starts cold and idle.
            for _ in range(delta):
                rid = len(pool)
                pool.append(self._fresh_replica())
                assignments[rid] = []
                active.append(rid)
        elif delta < 0:
            # Drain the newest replicas: stop assigning, let their
            # in-flight batches finish (no cancellation).
            for _ in range(-delta):
                active.pop()
        if delta:
            events.append(scaler.events[-1])

    # ------------------------------------------------------------------
    def _replay(self, plan: _DispatchPlan, fast: bool) -> ClusterLoadPoint:
        """Replay a dispatch plan, one pipeline per replica in id order."""
        # Latencies straight from each replica's columns: no per-batch
        # object exists on either path.
        latencies: List[float] = []
        makespan_ns = 0.0
        per_replica: List[int] = []
        path = "fast" if fast else "des"
        for rid in range(plan.replica_count):
            assigned = plan.assignments.get(rid, [])
            per_replica.append(len(assigned))
            if not assigned:
                continue
            if self.critpath is not None:
                self.critpath.set_replica(rid)
            pipeline = PipelineSimulator(
                emb_ns=self.stage_ns["emb"],
                bot_ns=self.stage_ns["bot"],
                top_ns=self.stage_ns["top"],
                metrics=self.metrics,
                profiler=self.profiler,
                critpath=self.critpath,
            )
            result = pipeline.run(
                len(assigned), arrival_times_ns=assigned, fast=fast
            )
            path = result.path
            latencies.extend(result.latencies_ns.tolist())
            makespan_ns = max(makespan_ns, float(result.completions_ns.max()))
        self._emit_cluster_metrics(plan)
        ordered = sorted(latencies)
        point = ClusterLoadPoint(
            offered_qps=plan.offered_qps,
            achieved_qps=(
                plan.queries / (makespan_ns / 1e9) if makespan_ns > 0 else 0.0
            ),
            p50_ns=percentile(ordered, 50, presorted=True),
            p95_ns=percentile(ordered, 95, presorted=True),
            p99_ns=percentile(ordered, 99, presorted=True),
            mean_ns=sum(latencies) / len(latencies),
            latencies_ns=tuple(latencies),
            queries=plan.queries,
            batches=plan.batches,
            balancer=plan.balancer,
            initial_replicas=plan.initial_replicas,
            final_replicas=plan.final_replicas,
            per_replica_batches=tuple(per_replica),
            scale_events=tuple(plan.events),
            path=path,
        )
        self._last_point = point
        return point

    def _emit_cluster_metrics(self, plan: _DispatchPlan) -> None:
        """Replica-count gauge and scale-event counter, stamped at the
        simulated decision instants (identical on both paths)."""
        metrics = self.metrics
        if metrics is None:
            return
        gauge = metrics.gauge(names.METRIC_CLUSTER_REPLICAS)
        gauge.set(plan.initial_replicas, t_ns=0.0)
        counter = metrics.counter(names.METRIC_CLUSTER_SCALE_EVENTS)
        for event in plan.events:
            gauge.set(event.to_replicas, t_ns=event.t_ns)
            counter.inc(1, t_ns=event.t_ns)

    # ------------------------------------------------------------------
    def serve_trace(
        self, trace, fast: Optional[bool] = None
    ) -> ClusterLoadPoint:
        """Serve an :class:`ArrivalTrace` (or raw sorted query instants)
        through the cluster; ``fast=None`` follows ``RMSSD_FASTPATH``."""
        plan = self._plan(self._query_times(trace))
        return self._replay(plan, resolve_fast(fast))

    def timeseries_document(self, slo=None) -> dict:
        """The ``rmssd-timeseries/v1`` document with the ``cluster``
        section of the last run (requires a windowed registry)."""
        if self._last_point is None:
            raise ValueError("no cluster run to export; call serve() first")
        cluster = self._last_point.cluster_section()
        if self.autoscaler is not None:
            cluster["autoscaler"] = self.autoscaler.report_dict()
        return build_document(
            metrics=self.metrics,
            profiler=self.profiler,
            slo=slo,
            cluster=cluster,
        )
