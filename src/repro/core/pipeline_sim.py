"""Discrete-event validation of the Eq. 1 pipeline model.

The analytic stage-time model assumes perfect pipelining: steady-state
throughput of one batch per ``max(Temb', Tbot', Ttop')``.  This module
*simulates* the three-stage pipeline on the DES kernel — each engine
stage is a unit-capacity server, batches flow embedding∥bottom -> top —
so the assumption can be checked rather than trusted, including under
per-batch service-time jitter (real flash reads vary with striping
luck).

Two implementations produce one timeline: the event-driven reference
(``_run_des``) and the closed-form replay of
:mod:`repro.core.pipeline_fast` (``_run_fast``), bitwise equal.  The
timeline is columnar and nothing else — :class:`PipelineRunResult`
carries the arrival column, the ``(n, 6)`` stage-stamp table and the
``(n, 3)`` stage-time table — and it is read in one place: after the
path branch, :meth:`PipelineSimulator._observe` feeds the metrics
registry, the critpath collector, the tracer and the profiler from
those three tables.  Neither path records anything for itself, so
there is no per-path feed to drift, and a run with no observer
attached (a latency-vs-load sweep, ``repro.host.serving``) does no
per-batch Python work at all.  An observer that is not attached is
``None``.

Used by ``benchmarks/bench_ext_pipeline_validation.py``, the serving
and cluster simulators in ``repro.host``, and the unit tests.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

import numpy as np

from repro.core import pipeline_fast
from repro.fpga.compose import StageTimes
from repro.obs import names
from repro.obs.critpath import STAMP_FIELDS
from repro.sim import Server, Simulator

# Column indices of the stage-stamp table (STAMP_FIELDS order).
EMB_START, EMB_DONE, BOT_START, BOT_DONE, TOP_START, TOP_DONE = range(
    len(STAMP_FIELDS)
)
# Column indices of the stage-time table.
EMB, BOT, TOP = range(3)


class PipelineRunResult:
    """Outcome of streaming N batches through the simulated pipeline.

    The timeline is columnar: ``arrivals_ns`` (one instant per batch),
    ``stamps_ns``, the ``(n, 6)`` table of :data:`STAMP_FIELDS` —
    when each stage's *service* began and ended, so queueing and
    service time separate cleanly — and ``durations_ns``, the
    ``(n, 3)`` emb/bot/top stage times as the path evaluated them
    (a stage's server was busy until ``start + duration``; the
    ``*_done`` stamp is when its caller resumed).  Both paths fill the
    tables directly; every per-batch quantity is a column expression.
    """

    def __init__(
        self,
        arrivals_ns: np.ndarray,
        stamps_ns: np.ndarray,
        durations_ns: np.ndarray,
        makespan_ns: float,
        path: str = "des",
    ) -> None:
        self.arrivals_ns = arrivals_ns
        self.stamps_ns = stamps_ns
        self.durations_ns = durations_ns
        self.makespan_ns = makespan_ns
        #: Which implementation produced the timeline: "des" for the
        #: event-driven reference, "fast" for the closed-form replay
        #: (bitwise-equal; see repro/core/pipeline_fast.py).
        self.path = path

    @property
    def batches(self) -> int:
        return len(self.arrivals_ns)

    @property
    def completions_ns(self) -> np.ndarray:
        """The ``top_done_ns`` column: when each batch left the pipeline."""
        return self.stamps_ns[:, TOP_DONE]

    @property
    def latencies_ns(self) -> np.ndarray:
        """Per-batch end-to-end latency, ``top_done - arrival``."""
        return self.completions_ns - self.arrivals_ns

    @property
    def queue_waits_ns(self) -> np.ndarray:
        """Per-batch wait before the embedding stage started."""
        return self.stamps_ns[:, EMB_START] - self.arrivals_ns

    @property
    def steady_interval_ns(self) -> float:
        """Mean inter-completion gap once the pipeline is full."""
        completions = self.completions_ns
        if len(completions) < 3:
            return self.makespan_ns / max(1, len(completions))
        # Skip the fill: measure from the second completion on.  The
        # gaps are summed left to right (np.sum is pairwise).
        gaps = (completions[2:] - completions[1:-1]).tolist()
        return sum(gaps) / len(gaps)

    @property
    def mean_latency_ns(self) -> float:
        return sum(self.latencies_ns.tolist()) / self.batches


class PipelineSimulator:
    """Three-stage RM-SSD pipeline on the DES.

    ``emb_ns`` / ``bot_ns`` / ``top_ns`` give each batch's stage times;
    they may be constants or callables of the batch index (to inject
    jitter).  Embedding and bottom-MLP stages run concurrently for a
    batch; the top stage starts when both finish.  Each stage serves
    one batch at a time (the engines are single pipelines), which is
    exactly the structure behind Eq. 1.
    """

    def __init__(
        self,
        emb_ns,
        bot_ns,
        top_ns,
        tracer=None,
        profiler=None,
        metrics=None,
        critpath=None,
    ) -> None:
        # Raw values feed the fast replay (constants skip its
        # per-index evaluation loop); the DES always calls through
        # the normalized callables.
        self._emb_raw = emb_ns
        self._bot_raw = bot_ns
        self._top_raw = top_ns
        self._emb = self._as_fn(emb_ns)
        self._bot = self._as_fn(bot_ns)
        self._top = self._as_fn(top_ns)
        # The four observers, each optional (None = not attached) and
        # each fed by _observe after the path branch.
        self.tracer = tracer
        #: Utilization profiler: one FIFO service triple per stage job.
        self.profiler = profiler
        #: MetricsRegistry: per-batch latency/queue-wait go into the
        #: serving histograms, stamped at the batch's completion
        #: instant so a windowed registry rolls them into
        #: simulated-clock windows (repro.obs.timeseries).
        self.metrics = metrics
        #: CritPathCollector (repro.obs.critpath).
        self.critpath = critpath

    @staticmethod
    def _as_fn(value) -> Callable[[int], float]:
        """The DES's stage-time callable: every evaluation is checked
        (NaN passes ``Server.serve``'s ``< 0`` test), as the replay
        checks its arrays."""
        evaluate = value if callable(value) else (lambda _index: float(value))

        def checked(index: int) -> float:
            stage_ns = evaluate(index)
            pipeline_fast.require_finite(stage_ns)
            return stage_ns

        return checked

    @classmethod
    def from_stage_times(
        cls,
        times: StageTimes,
        cycle_ns: float = 5.0,
        tracer=None,
        profiler=None,
        metrics=None,
        critpath=None,
    ) -> "PipelineSimulator":
        return cls(
            emb_ns=times.temb * cycle_ns,
            bot_ns=times.tbot * cycle_ns,
            top_ns=times.ttop * cycle_ns,
            tracer=tracer,
            profiler=profiler,
            metrics=metrics,
            critpath=critpath,
        )

    def run(
        self,
        batches: int,
        arrival_interval_ns: float = 0.0,
        arrival_times_ns: Optional[Sequence[float]] = None,
        fast: Optional[bool] = None,
    ) -> PipelineRunResult:
        """Stream ``batches`` through the pipeline.

        ``arrival_interval_ns = 0`` models the host pre-send keeping
        the device saturated; a positive value models a fixed-rate
        open loop; ``arrival_times_ns`` overrides with explicit
        (sorted) arrival instants — e.g. a Poisson process.

        ``fast=None`` follows ``RMSSD_FASTPATH`` (default on): the
        closed-form replay is bitwise-equal to the DES for index-pure
        stage-time callables (constants always qualify).  Pass
        ``fast=False`` for stage callables with cross-call state whose
        results depend on evaluation count rather than batch index.
        """
        if batches < 1:
            raise ValueError("need at least one batch")
        if arrival_times_ns is not None:
            if len(arrival_times_ns) != batches:
                raise ValueError("one arrival time per batch required")
            arrivals = np.asarray(arrival_times_ns, dtype=np.float64)
        else:
            arrivals = np.arange(batches, dtype=np.float64) * arrival_interval_ns
        # NaN slips through a `diff < 0` test, so finiteness comes
        # first — before either path (or any observer) sees the run.
        if not bool(np.isfinite(arrivals).all()):
            raise ValueError("arrival times must be finite")
        if bool(np.any(arrivals[1:] < arrivals[:-1])):
            raise ValueError("arrival times must be sorted")
        if pipeline_fast.resolve_fast(fast):
            result = self._run_fast(arrivals)
        else:
            result = self._run_des(arrivals)
        self._observe(result)
        return result

    def _run_fast(self, arrivals: np.ndarray) -> PipelineRunResult:
        """Closed-form replay; see :mod:`repro.core.pipeline_fast`."""
        stamps, durations, makespan = pipeline_fast.replay_serving(
            self._emb_raw, self._bot_raw, self._top_raw, arrivals
        )
        return PipelineRunResult(arrivals, stamps, durations, makespan, "fast")

    def _run_des(self, arrivals: np.ndarray) -> PipelineRunResult:
        """Event-driven reference: one flow process per batch, each
        writing its own row of the stamp and stage-time tables."""
        sim = Simulator()
        emb_server = Server(sim, names.STAGE_EMB)
        bot_server = Server(sim, names.STAGE_BOT)
        top_server = Server(sim, names.STAGE_TOP)
        stamps = np.zeros((len(arrivals), len(STAMP_FIELDS)), dtype=np.float64)
        durations = np.zeros((len(arrivals), 3), dtype=np.float64)

        def flow(index: int, arrival: float) -> Generator:
            stamp = stamps[index]
            duration = durations[index]
            if arrival > sim.now:
                yield sim.timeout(arrival - sim.now)

            def emb_stage() -> Generator:
                duration[EMB] = emb_time = self._emb(index)
                stamp[EMB_START] = max(sim.now, emb_server.free_at)
                yield emb_server.serve(emb_time)
                stamp[EMB_DONE] = sim.now

            def bot_stage() -> Generator:
                duration[BOT] = bot_time = self._bot(index)
                stamp[BOT_START] = max(sim.now, bot_server.free_at)
                if bot_time > 0:
                    yield bot_server.serve(bot_time)
                else:
                    stamp[BOT_START] = sim.now
                stamp[BOT_DONE] = sim.now

            yield sim.all_of([sim.process(emb_stage()), sim.process(bot_stage())])
            duration[TOP] = top_time = self._top(index)
            stamp[TOP_START] = max(sim.now, top_server.free_at)
            if top_time > 0:
                yield top_server.serve(top_time)
            else:
                stamp[TOP_START] = sim.now
            stamp[TOP_DONE] = sim.now

        for index, arrival in enumerate(arrivals.tolist()):
            sim.process(flow(index, arrival))
        sim.run()
        return PipelineRunResult(arrivals, stamps, durations, sim.now, "des")

    def _observe(self, result: PipelineRunResult) -> None:
        """Feed every attached observer from a finished run's columns.

        The one reader of the timeline, called once per run after the
        path branch — the tables are bitwise-equal across paths, so
        what the observers see (and export) is too.  With none
        attached it returns before touching a batch.
        """
        metrics = self.metrics
        if metrics is not None:
            # One latency + one queue-wait observation per batch, plus
            # the batch counter, each stamped with the batch's
            # *completion* instant — a windowed registry rolls them
            # into the window the batch finished in.
            latency_histogram = metrics.histogram(names.METRIC_SERVING_LATENCY)
            queue_histogram = metrics.histogram(names.METRIC_SERVING_QUEUE)
            batch_counter = metrics.counter(names.METRIC_SERVING_BATCHES)
            for done, latency, queue_wait in zip(
                result.completions_ns.tolist(),
                result.latencies_ns.tolist(),
                result.queue_waits_ns.tolist(),
            ):
                latency_histogram.observe(latency, t_ns=done)
                queue_histogram.observe(queue_wait, t_ns=done)
                batch_counter.inc(1, t_ns=done)
        if self.critpath is not None:
            self.critpath.record_run(result.arrivals_ns, result.stamps_ns)
        if self.tracer is not None:
            self._emit_spans(result)
        if self.profiler is not None:
            self._record_services(result)

    def _emit_spans(self, result: PipelineRunResult) -> None:
        """Span tree per batch: queue wait, then the three stages.

        Concurrent in-flight batches land on separate ``serve.req``
        lanes; the bottom-MLP stage overlaps the embedding stage, so
        it lives on its own ``serve.bot`` lane group.
        """
        tracer = self.tracer
        rows = zip(result.arrivals_ns.tolist(), result.stamps_ns.tolist())
        for index, (arrival, stamps) in enumerate(rows):
            emb_start, emb_done, bot_start, bot_done, top_start, top_done = stamps
            track = tracer.lane_track("serve.req", arrival, top_done)
            tracer.add_span(
                names.SPAN_BATCH, arrival, top_done,
                cat="serve", track=track, args={"index": index},
            )
            if emb_start > arrival:
                tracer.add_span(
                    names.SPAN_QUEUE, arrival, emb_start, cat="serve", track=track
                )
            tracer.add_span(
                names.STAGE_EMB, emb_start, emb_done, cat="serve", track=track
            )
            tracer.add_span(
                names.STAGE_TOP, top_start, top_done, cat="serve", track=track
            )
            if bot_done > bot_start:
                tracer.add_span(
                    names.STAGE_BOT, bot_start, bot_done,
                    cat="serve",
                    track=tracer.lane_track("serve.bot", bot_start, bot_done),
                    args={"index": index},
                )

    def _record_services(self, result: PipelineRunResult) -> None:
        """Profiler triples ``(offered, start, start + duration)``, one
        per job a stage server took, as ``Server.serve`` states them.

        Emb serves every batch in index order, offered at the flow's
        clock (flows bootstrap at 0, so never before it); bot serves
        the batches with a positive stage time, same clock, same
        order; top serves its positive-time batches in (ready, index)
        order, offered when both predecessors resumed.
        """
        profiler = self.profiler
        arrivals, stamps = result.arrivals_ns, result.stamps_ns
        durations = result.durations_ns
        clock = np.where(arrivals > 0.0, arrivals, 0.0)
        ready = np.maximum(stamps[:, EMB_DONE], stamps[:, BOT_DONE])
        top_order = np.argsort(ready, kind="stable")
        for name, offered, start_column, stage, jobs in (
            (names.STAGE_EMB, clock, EMB_START, EMB, slice(None)),
            (names.STAGE_BOT, clock, BOT_START, BOT,
             np.flatnonzero(durations[:, BOT] > 0)),
            (names.STAGE_TOP, ready, TOP_START, TOP,
             top_order[durations[top_order, TOP] > 0]),
        ):
            starts = stamps[jobs, start_column]
            finishes = starts + durations[jobs, stage]
            for triple in zip(
                offered[jobs].tolist(), starts.tolist(), finishes.tolist()
            ):
                profiler.record_service(name, *triple)
