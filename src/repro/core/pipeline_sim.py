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
timeline is columnar — :class:`PipelineRunResult` carries the arrival
column and the ``(n, 6)`` stage-stamp table — and the per-batch
:class:`BatchRecord` objects are a view derived on demand, so a
latency-vs-load sweep (``repro.host.serving``) never builds them.

Used by ``benchmarks/bench_ext_pipeline_validation.py``, the serving
and cluster simulators in ``repro.host``, and the unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Sequence

import numpy as np

from repro.core import pipeline_fast
from repro.fpga.compose import StageTimes
from repro.obs import names, resolve_profiler, resolve_tracer
from repro.sim import Server, Simulator


@dataclass
class BatchRecord:
    """Timeline of one batch through the pipeline (ns).

    The ``*_start_ns`` fields record when each stage's *service*
    began (after any wait for the stage server), so queueing and
    service time separate cleanly: the queue wait is
    ``emb_start_ns - arrival_ns``.
    """

    index: int
    arrival_ns: float
    emb_start_ns: float = 0.0
    emb_done_ns: float = 0.0
    bot_start_ns: float = 0.0
    bot_done_ns: float = 0.0
    top_start_ns: float = 0.0
    top_done_ns: float = 0.0

    @property
    def latency_ns(self) -> float:
        return self.top_done_ns - self.arrival_ns

    @property
    def queue_ns(self) -> float:
        """Time spent waiting before the embedding stage started."""
        return self.emb_start_ns - self.arrival_ns


#: The six stage-stamp fields of a :class:`BatchRecord`, in the column
#: order of :attr:`PipelineRunResult.stamps_ns` (and of the table
#: :func:`repro.core.pipeline_fast.replay_serving` returns).
STAMP_FIELDS = (
    "emb_start_ns",
    "emb_done_ns",
    "bot_start_ns",
    "bot_done_ns",
    "top_start_ns",
    "top_done_ns",
)
EMB_START = STAMP_FIELDS.index("emb_start_ns")
TOP_DONE = STAMP_FIELDS.index("top_done_ns")


class PipelineRunResult:
    """Outcome of streaming N batches through the simulated pipeline.

    The timeline is columnar: ``arrivals_ns`` (one instant per batch)
    and ``stamps_ns``, the ``(n, 6)`` table of :data:`STAMP_FIELDS`.
    ``records`` is the same timeline as one :class:`BatchRecord` per
    batch, built on first access — the closed-form replay produces the
    table and never needs the objects unless a tracer, a critpath
    collector or a caller asks for them; the DES fills records natively
    and derives the table from them.
    """

    def __init__(
        self,
        arrivals_ns: np.ndarray,
        stamps_ns: np.ndarray,
        makespan_ns: float,
        path: str = "des",
        records: Optional[List[BatchRecord]] = None,
    ) -> None:
        self.arrivals_ns = arrivals_ns
        self.stamps_ns = stamps_ns
        self.makespan_ns = makespan_ns
        #: Which implementation produced the timeline: "des" for the
        #: event-driven reference, "fast" for the closed-form replay
        #: (bitwise-equal; see repro/core/pipeline_fast.py).
        self.path = path
        self._records = records

    @classmethod
    def from_records(
        cls, records: List[BatchRecord], makespan_ns: float, path: str = "des"
    ) -> "PipelineRunResult":
        """The columnar view of natively filled records (the DES)."""
        arrivals = np.array([r.arrival_ns for r in records], dtype=np.float64)
        stamps = np.array(
            [[getattr(r, field) for field in STAMP_FIELDS] for r in records],
            dtype=np.float64,
        )
        return cls(arrivals, stamps, makespan_ns, path, records=records)

    @property
    def records(self) -> List[BatchRecord]:
        if self._records is None:
            self._records = [
                BatchRecord(index, arrival, *stamps)
                for index, (arrival, stamps) in enumerate(
                    zip(self.arrivals_ns.tolist(), self.stamps_ns.tolist())
                )
            ]
        return self._records

    @property
    def batches(self) -> int:
        return len(self.arrivals_ns)

    @property
    def completions_ns(self) -> np.ndarray:
        """The ``top_done_ns`` column: when each batch left the pipeline."""
        return self.stamps_ns[:, TOP_DONE]

    @property
    def latencies_ns(self) -> np.ndarray:
        """Per-batch ``top_done - arrival`` (``BatchRecord.latency_ns``)."""
        return self.completions_ns - self.arrivals_ns

    @property
    def queue_waits_ns(self) -> np.ndarray:
        """Per-batch ``emb_start - arrival`` (``BatchRecord.queue_ns``)."""
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
        self.tracer = resolve_tracer(tracer)
        #: Utilization profiler fed by both paths: the DES wires it
        #: into its Simulator (Server.serve records the triples), the
        #: fast replay records the identical triples directly.
        self.profiler = resolve_profiler(profiler)
        #: Optional MetricsRegistry: each path observes per-batch
        #: latency/queue-wait into the serving histograms, stamped at
        #: the batch's completion instant so a windowed registry rolls
        #: them into simulated-clock windows (repro.obs.timeseries).
        #: Both paths call _observe_completions with bitwise-equal
        #: timestamps — lint R9's SERVING_PARITY spec diffs the two
        #: emission sets, and the injected canary asserts drift fires.
        self.metrics = metrics
        #: Optional CritPathCollector (repro.obs.critpath): each path
        #: feeds it the finished run's per-batch records through its
        #: own wrapper (_explain_des / _explain_fast) so the R9
        #: EXPLAIN_PARITY spec can diff the two feeds — the canary
        #: deletes the fast one and asserts R9 names the stream.
        self.critpath = critpath

    @staticmethod
    def _as_fn(value) -> Callable[[int], float]:
        if callable(value):
            return value
        return lambda _index: float(value)

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
        if self.tracer.enabled:
            self._emit_spans(result.records)
        return result

    def _observe_completions(self, result: PipelineRunResult) -> None:
        """Feed the serving metrics from a finished run's columns.

        One latency + one queue-wait observation per batch, plus the
        batch counter, each stamped with the batch's *completion*
        instant — a windowed registry rolls them into the window the
        batch finished in.  Called once per path (DES and fast) on
        columns whose timestamps are bitwise-equal, so windowed
        exports are byte-identical across paths.
        """
        metrics = self.metrics
        if metrics is None:
            return
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

    def _explain_des(self, result: PipelineRunResult) -> None:
        """DES-side per-request feed (R9 EXPLAIN_PARITY root).

        Kept as a separate method per path (rather than one shared
        helper) so the parity analysis — and its injected canary —
        can see each path's feed independently.
        """
        collector = self.critpath
        if collector is None:
            return
        collector.record_requests(names.CRITPATH_REQUESTS, result.records)

    def _explain_fast(self, result: PipelineRunResult) -> None:
        """Fast-side per-request feed (R9 EXPLAIN_PARITY root)."""
        collector = self.critpath
        if collector is None:
            return
        collector.record_requests(names.CRITPATH_REQUESTS, result.records)

    def _run_fast(self, arrivals: np.ndarray) -> PipelineRunResult:
        """Closed-form replay; see :mod:`repro.core.pipeline_fast`.

        The replay's stamp table *is* the result: no per-batch object
        is built unless an observer below asks for ``result.records``.
        """
        stamps, makespan = pipeline_fast.replay_serving(
            self._emb_raw, self._bot_raw, self._top_raw, arrivals,
            profiler=self.profiler,
        )
        result = PipelineRunResult(arrivals, stamps, makespan, "fast")
        self._observe_completions(result)
        self._explain_fast(result)
        return result

    def _run_des(self, arrivals: np.ndarray) -> PipelineRunResult:
        """Event-driven reference: one flow process per batch."""
        sim = Simulator()
        sim.profiler = self.profiler
        emb_server = Server(sim, names.STAGE_EMB)
        bot_server = Server(sim, names.STAGE_BOT)
        top_server = Server(sim, names.STAGE_TOP)
        records = [
            BatchRecord(index=i, arrival_ns=arrival)
            for i, arrival in enumerate(arrivals.tolist())
        ]

        def flow(record: BatchRecord) -> Generator:
            if record.arrival_ns > sim.now:
                yield sim.timeout(record.arrival_ns - sim.now)

            def emb_stage() -> Generator:
                record.emb_start_ns = max(sim.now, emb_server.free_at)
                yield emb_server.serve(self._emb(record.index))
                record.emb_done_ns = sim.now

            def bot_stage() -> Generator:
                bot_time = self._bot(record.index)
                record.bot_start_ns = max(sim.now, bot_server.free_at)
                if bot_time > 0:
                    yield bot_server.serve(bot_time)
                else:
                    record.bot_start_ns = sim.now
                record.bot_done_ns = sim.now

            yield sim.all_of([sim.process(emb_stage()), sim.process(bot_stage())])
            top_time = self._top(record.index)
            record.top_start_ns = max(sim.now, top_server.free_at)
            if top_time > 0:
                yield top_server.serve(top_time)
            else:
                record.top_start_ns = sim.now
            record.top_done_ns = sim.now

        for record in records:
            sim.process(flow(record))
        sim.run()
        result = PipelineRunResult.from_records(records, sim.now, "des")
        self._observe_completions(result)
        self._explain_des(result)
        return result

    def _emit_spans(self, records: Sequence[BatchRecord]) -> None:
        """Span tree per batch: queue wait, then the three stages.

        Concurrent in-flight batches land on separate ``serve.req``
        lanes; the bottom-MLP stage overlaps the embedding stage, so
        it lives on its own ``serve.bot`` lane group.
        """
        tracer = self.tracer
        for record in records:
            track = tracer.lane_track(
                "serve.req", record.arrival_ns, record.top_done_ns
            )
            tracer.add_span(
                names.SPAN_BATCH,
                record.arrival_ns,
                record.top_done_ns,
                cat="serve",
                track=track,
                args={"index": record.index},
            )
            if record.emb_start_ns > record.arrival_ns:
                tracer.add_span(
                    names.SPAN_QUEUE,
                    record.arrival_ns,
                    record.emb_start_ns,
                    cat="serve",
                    track=track,
                )
            tracer.add_span(
                names.STAGE_EMB, record.emb_start_ns, record.emb_done_ns,
                cat="serve", track=track,
            )
            tracer.add_span(
                names.STAGE_TOP, record.top_start_ns, record.top_done_ns,
                cat="serve", track=track,
            )
            if record.bot_done_ns > record.bot_start_ns:
                bot_track = tracer.lane_track(
                    "serve.bot", record.bot_start_ns, record.bot_done_ns
                )
                tracer.add_span(
                    names.STAGE_BOT,
                    record.bot_start_ns,
                    record.bot_done_ns,
                    cat="serve",
                    track=bot_track,
                    args={"index": record.index},
                )
