"""The six workloads: what one op is, how it is checked, what it digests.

Every workload offers the same few methods to ``child.py``:

* ``build(phases)`` — model, device or simulator, kernel search; fills
  the ``setup.*`` phase times it owns;
* ``make_op(index)`` — the op's generated input (untimed); inputs come
  from ``--seed`` only;
* ``run_op(op)`` — the one call into the program that is timed;
* ``check_op`` / ``digest_op`` / ``work`` — untimed: compare with an
  oracle that shares no code with the path under test, feed the
  simulated outputs to the digest, count the work done;
* ``once_checks`` — the cross-path checks (fast path against the
  event-driven reference) run once per child;
* ``extras`` — one-off probes outside the timed ops.

Parameters are fixed here, not on the command line: a workload with
other parameters is another workload (see README, "Adding a workload").
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from math import ceil
from typing import Dict, NamedTuple, Optional

import numpy as np

from benchmarks.perf.trace import SpanRecorder
from repro.core import device as device_module
from repro.core import lookup_engine, mlp_engine, pipeline_fast, pipeline_sim
from repro.core.device import RMSSD
from repro.embedding import translator
from repro.fpga import search as search_module
from repro.fpga.decompose import decompose_model
from repro.host import autoscale, cluster_serving, serving
from repro.models import build_model, get_config
from repro.obs import CritPathCollector, MetricsRegistry, critpath, profiler
from repro.ssd import controller, fastpath, flash
from repro.ssd.geometry import SSDGeometry
from repro.ssd.timing import SSDTimingModel
from repro.ssd.vcache import VectorCache
from repro.workloads import RequestGenerator, arrivals

#: Rows per embedding table of every model the benchmark builds.
ROWS = 8192
#: Share of lookups that go to the hot set (the paper's Fig. 14 K=0.3).
HOT_ACCESS_FRACTION = 0.65
#: Samples of the first op re-run on both lookup paths.
PREFIX_SAMPLES = 4
#: Engine clock period the serving layer assumes (200 MHz).
CYCLE_NS = 5.0
#: A latency is ``done - arrival`` at simulated instants near 1e12 ns,
#: so it carries their rounding; the floor check allows for it.
FLOOR_SLACK = 1e-9


class Work(NamedTuple):
    """What one op got done, for the throughput metrics."""

    inferences: int
    vectors: int = 0
    #: Vectors that reached the flash side (cache misses, or all).
    flash_reads: int = 0
    batches: int = 0


def _operating_point(model_key: str, phases: Dict[str, float]):
    """Kernel-search operating point of ``model_key`` at ``ROWS`` rows."""
    start = time.perf_counter()
    config = get_config(model_key)
    model = build_model(config, rows_per_table=ROWS)
    built = time.perf_counter()
    decomposed = decompose_model(model, config.lookups_per_table)
    flash_cycles = lookup_engine.flash_read_cycles(
        decomposed.vectors_per_inference,
        SSDGeometry(),
        SSDTimingModel(),
        config.ev_size,
    )
    result = search_module.kernel_search(decomposed, flash_cycles)
    phases["setup.model_build_s"] = built - start
    phases["setup.kernel_search_s"] = time.perf_counter() - built
    return result


def _floats(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


# ----------------------------------------------------------------------
# Device workloads
# ----------------------------------------------------------------------
class DeviceWorkload:
    """Closed loop of ``RMSSD.infer_batch`` calls on one device."""

    def __init__(
        self,
        name: str,
        model_key: str,
        batch: int,
        warmup_ops: int,
        min_ops: int,
        fastpath: Optional[bool] = None,
        vcache_share: float = 0.0,
    ) -> None:
        self.name = name
        self.model_key = model_key
        self.batch = batch
        self.warmup_ops = warmup_ops
        self.min_ops = min_ops
        self.fastpath = fastpath
        self.vcache_share = vcache_share
        self.sim: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}

    def _new_device(self, fastpath: Optional[bool]) -> RMSSD:
        cache = None
        if self.vcache_share > 0:
            cache = VectorCache(
                int(self.vcache_share * ROWS * self.config.num_tables), policy="lru"
            )
        return RMSSD(
            self.model, self.config.lookups_per_table, fastpath=fastpath, vcache=cache
        )

    def build(self, seed: int, phases: Dict[str, float]) -> None:
        start = time.perf_counter()
        self.config = get_config(self.model_key)
        self.model = build_model(self.config, rows_per_table=ROWS)
        built = time.perf_counter()
        # The constructor runs the kernel search; its span splits it off.
        recorder = SpanRecorder()
        recorder.wrap(device_module, "kernel_search", "kernel_search")
        recorder.install()
        try:
            self.device = self._new_device(self.fastpath)
        finally:
            recorder.remove()
        constructed = time.perf_counter()
        searched = recorder.ledger(extra=True)["kernel_search"]
        phases["setup.kernel_search_s"] = searched["busy_s"]
        self.generator = RequestGenerator(
            self.config, ROWS, hot_access_fraction=HOT_ACCESS_FRACTION, seed=seed
        )
        phases["setup.model_build_s"] = built - start
        phases["setup.device_construct_s"] = (
            constructed - built - phases["setup.kernel_search_s"]
        )
        phases["setup.inputs_s"] = time.perf_counter() - constructed

    def make_op(self, index: int):
        request = self.generator.request(self.batch)
        if index == 0:
            self.first_request = request
        self._before = self.device.stats.snapshot()
        return request

    def run_op(self, request):
        return self.device.infer_batch(request.dense, request.sparse)

    def work(self, request, result) -> Work:
        return Work(
            inferences=self.batch,
            vectors=self.batch * self.config.lookups_per_inference,
            flash_reads=self.device.stats.diff(self._before).flash_vector_reads,
        )

    def check_op(self, index: int, request, result) -> bool:
        """Outputs against the NumPy reference model, fp32 tolerance."""
        outputs, timing = result
        reference = self.model.forward(request.dense, request.sparse)
        if index == 0:
            self._read_sim(timing)
        return outputs.shape == reference.shape and bool(
            np.allclose(outputs, reference, rtol=1e-5, atol=1e-6)
        )

    def _read_sim(self, timing) -> None:
        window = self.device.stats.diff(self._before)
        self.sim["sim_qps"] = timing.nbatch / (timing.interval_ns / 1e9)
        self.sim["sim_vectors_read"] = window.flash_vector_reads
        self.counts.update(
            {
                "ssd.vcache.probes": window.vcache_hits + window.vcache_misses,
                "ssd.vcache.hits": window.vcache_hits,
                "ssd.vcache.hit_ratio": window.vcache_hit_ratio,
                "ssd.vcache.evictions": window.vcache_evictions,
                "ssd.stats.flash_bus_bytes": window.flash_bus_bytes,
                "ssd.stats.flash_amplification": window.flash_amplification,
            }
        )

    def digest_op(self, hasher, request, result) -> None:
        outputs, timing = result
        hasher.update(outputs.tobytes())
        hasher.update(_floats(dataclasses.astuple(timing)))
        window = self.device.stats.diff(self._before)
        hasher.update(json.dumps(window.as_dict(), sort_keys=True).encode())

    def eq1_error_pct(self, lookup) -> float:
        """Simulated lookup time against the paper's Eq. 1a closed form
        (``analytic_cycles``), the only reference the repo holds."""
        engine = self.device.lookup_engine
        analytic_ns = self.device.controller.timing.cycles_to_ns(
            engine.analytic_cycles(lookup.vectors_read)
        )
        return (lookup.elapsed_ns - analytic_ns) / analytic_ns * 100.0

    def once_checks(self) -> Dict[str, bool]:
        """A prefix of the first op on fresh devices, fast against DES:
        pooled bytes, elapsed time and I/O statistics must be equal."""
        prefix = self.first_request.sparse[:PREFIX_SAMPLES]
        prints = {}
        for fast in (True, False):
            fresh = self._new_device(fast)
            lookup = fresh.lookup_engine.lookup_batch(prefix, fast=fast)
            prints[lookup.path] = (
                lookup.pooled.tobytes(),
                _floats([lookup.elapsed_ns, lookup.vcache_ns]),
                json.dumps(fresh.stats.as_dict(), sort_keys=True),
            )
        return {
            "lookup_des_equals_fast": len(prints) == 2
            and prints["fast"] == prints["des"]
        }

    def extras(self, tracing: bool) -> None:
        """No one-off probes on the device workloads."""


# ----------------------------------------------------------------------
# serve_sweep_rmc2
# ----------------------------------------------------------------------
class ServeSweepWorkload:
    """Six-point Poisson load sweep on the RMC2 operating point."""

    name = "serve_sweep_rmc2"
    fractions = (0.2, 0.4, 0.6, 0.8, 0.9, 0.95)
    #: Index of the 0.9x point, where ``sim_p99_ms`` is read.
    p99_point = 4

    def __init__(self, queries: int, warmup_ops: int, min_ops: int) -> None:
        self.queries = queries
        self.warmup_ops = warmup_ops
        self.min_ops = min_ops
        self.sim: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}

    def build(self, seed: int, phases: Dict[str, float]) -> None:
        result = _operating_point("rmc2", phases)
        start = time.perf_counter()
        self.seed = seed
        self.nbatch = max(1, result.nbatch)
        self.serving = serving.ServingSimulator(result.times, nbatch=result.nbatch, seed=seed)
        #: Unloaded pipeline latency: the floor of every latency, and a
        #: quarter of the SLA.
        self.floor_ns = result.times.latency * CYCLE_NS
        self.sla_ns = 4.0 * self.floor_ns
        phases["setup.device_construct_s"] = time.perf_counter() - start
        phases["setup.inputs_s"] = 0.0

    def make_op(self, index: int) -> int:
        """The op's input is its arrival seed; the program draws the
        Poisson gaps from it."""
        return self.seed * 1000 + index

    def run_op(self, arrival_seed: int, queries: Optional[int] = None, fast=None):
        return self.serving.load_sweep(
            fractions=self.fractions,
            queries=queries or self.queries,
            seed=arrival_seed,
            fast=fast,
        )

    def work(self, arrival_seed, points) -> Work:
        return Work(
            inferences=len(points) * self.queries,
            batches=sum(len(point.latencies_ns) for point in points),
        )

    def check_op(self, index: int, arrival_seed, points) -> bool:
        """Conservation and the unloaded-latency floor at every point."""
        batches = ceil(self.queries / self.nbatch)
        ok = len(points) == len(self.fractions)
        for point in points:
            ok = (
                ok
                and len(point.latencies_ns) == batches
                and min(point.latencies_ns) >= self.floor_ns * (1 - FLOOR_SLACK)
                and point.p50_ns <= point.p95_ns <= point.p99_ns
                and point.achieved_qps > 0
            )
        if index == 0:
            over = sum(
                sum(1 for latency in point.latencies_ns if latency > self.sla_ns)
                for point in points
            )
            self.sim["sim_p99_ms"] = points[self.p99_point].p99_ns / 1e6
            self.sim["sim_sla_miss_share"] = over / (batches * len(points))
        return ok

    @staticmethod
    def _fingerprint(points) -> bytes:
        parts = []
        for point in points:
            scalars = [
                getattr(point, field.name)
                for field in dataclasses.fields(point)
                if field.name not in ("latencies_ns", "windows")
            ]
            parts.append(_floats(scalars))
            parts.append(_floats(point.latencies_ns))
        return b"".join(parts)

    def digest_op(self, hasher, arrival_seed, points) -> None:
        hasher.update(self._fingerprint(points))

    def once_checks(self) -> Dict[str, bool]:
        """The first sweep at 1/50 size, closed form against the DES,
        every ``LoadPoint`` field."""
        small = max(self.nbatch, self.queries // 50)
        first = self.make_op(0)
        fast = self.run_op(first, queries=small, fast=True)
        des = self.run_op(first, queries=small, fast=False)
        return {"sweep_des_equals_fast": self._fingerprint(fast) == self._fingerprint(des)}

    def extras(self, tracing: bool) -> None:
        """One SLA bisection, outside the timed ops."""
        search = self.serving.sla_search(
            self.sla_ns, queries=self.queries, seed=self.make_op(0)
        )
        self.sim["sim_max_qps_under_sla"] = search.max_qps
        self.counts["host.serving.sla_search.points_evaluated"] = len(search.points)


# ----------------------------------------------------------------------
# fleet_flash_crowd
# ----------------------------------------------------------------------
def dump_documents(documents) -> tuple:
    """Serialise the exported documents (traced as ``obs.json_dumps``)."""
    return tuple(json.dumps(document, sort_keys=True) for document in documents)


class FleetResult(NamedTuple):
    queries: int
    point: object
    texts: tuple


class FleetWorkload:
    """A flash-crowd trace through an autoscaled fleet, then exports."""

    name = "fleet_flash_crowd"
    base_load = 0.7
    burst_factor = 4.0
    sla_ns = 4e7
    #: Burn-rate alerts page on SLA/4, as in ``bench_ext_autoscale``.
    alert_divisor = 4.0
    window_ns = 2e6

    def __init__(self, duration_ns: float, warmup_ops: int, min_ops: int) -> None:
        self.duration_ns = duration_ns
        self.warmup_ops = warmup_ops
        self.min_ops = min_ops
        self.sim: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        #: Queries of the 4x probe trace (traced runs only).
        self.probe_queries = 0

    def build(self, seed: int, phases: Dict[str, float]) -> None:
        self.result = _operating_point("rmc1", phases)
        self.seed = seed
        self.replica_qps = self.result.times.throughput_qps(1e9 / CYCLE_NS)
        self.floor_ns = self.result.times.latency * CYCLE_NS
        phases["setup.device_construct_s"] = 0.0
        phases["setup.inputs_s"] = 0.0

    def make_op(self, index: int) -> int:
        return self.seed * 1000 + index

    def run_op(self, trace_seed: int, scale: float = 1.0, fast=None) -> FleetResult:
        duration_ns = self.duration_ns * scale
        trace = arrivals.flash_crowd_trace(
            self.base_load * self.replica_qps,
            duration_ns,
            burst_start_ns=0.3 * duration_ns,
            burst_duration_ns=0.4 * duration_ns,
            burst_factor=self.burst_factor,
            seed=trace_seed,
        )
        scaler = autoscale.Autoscaler(
            sla_ns=self.sla_ns / self.alert_divisor,
            quantile=99.0,
            window_ns=self.window_ns,
            min_replicas=1,
            max_replicas=6,
            scale_up_step=2,
            epoch_windows=2,
        )
        collector = CritPathCollector()
        run_profiler = profiler.Profiler()
        fleet = cluster_serving.ClusterServingSimulator(
            self.result.times,
            nbatch=self.result.nbatch,
            replicas=1,
            balancer="jsq",
            autoscaler=scaler,
            metrics=MetricsRegistry(window_ns=self.window_ns),
            profiler=run_profiler,
            critpath=collector,
        )
        point = fleet.serve_trace(trace, fast=fast)
        texts = dump_documents(
            (
                fleet.timeseries_document(),
                critpath.build_explain_document(collector.requests, top_k=3),
                run_profiler.as_dict(),
            )
        )
        return FleetResult(trace.count, point, texts)

    def work(self, trace_seed, result: FleetResult) -> Work:
        return Work(inferences=result.queries, batches=result.point.batches)

    def check_op(self, index: int, trace_seed, result: FleetResult) -> bool:
        """Every query is served exactly once, none faster than the
        unloaded pipeline."""
        point = result.point
        ok = (
            point.queries == result.queries
            and len(point.latencies_ns) == point.batches
            and sum(point.per_replica_batches) == point.batches
            and min(point.latencies_ns) >= self.floor_ns * (1 - FLOOR_SLACK)
            and all(result.texts)
        )
        if index == 0:
            over = sum(1 for latency in point.latencies_ns if latency > self.sla_ns)
            self.sim["sim_p99_ms"] = point.p99_ns / 1e6
            self.sim["sim_sla_miss_share"] = over / point.batches
            self.counts.update(
                {
                    "sim.replicas_peak": max(
                        [point.initial_replicas]
                        + [event.to_replicas for event in point.scale_events]
                    ),
                    "sim.scale_ups": point.scale_ups,
                    "sim.scale_downs": point.scale_downs,
                    "obs.json_dumps.bytes": sum(len(text) for text in result.texts),
                }
            )
        return ok

    @staticmethod
    def _fingerprint(result: FleetResult) -> bytes:
        point = result.point
        scalars = [
            point.offered_qps, point.achieved_qps, point.p50_ns, point.p95_ns,
            point.p99_ns, point.mean_ns, point.queries, point.batches,
            point.initial_replicas, point.final_replicas,
        ]
        return b"".join(
            [
                _floats(scalars),
                _floats(point.latencies_ns),
                _floats(point.per_replica_batches),
                *(text.encode() for text in result.texts),
            ]
        )

    def digest_op(self, hasher, trace_seed, result: FleetResult) -> None:
        hasher.update(self._fingerprint(result))

    def once_checks(self) -> Dict[str, bool]:
        """The first trace at 1/10 length, closed form against the DES:
        the load point and all three exported documents."""
        first = self.make_op(0)
        fast = self.run_op(first, scale=0.1, fast=True)
        des = self.run_op(first, scale=0.1, fast=False)
        return {
            "fleet_des_equals_fast": fast.point.path == "fast"
            and des.point.path == "des"
            and self._fingerprint(fast) == self._fingerprint(des)
        }

    def extras(self, tracing: bool) -> None:
        """Traced runs replay one 4x longer trace, so the superlinear
        growth of the dispatch plan is on record."""
        if tracing:
            self.probe_queries = self.run_op(self.make_op(0), scale=4.0).queries


# ----------------------------------------------------------------------
def layer_targets():
    """(owner, attribute, span name) of every entry point the traced
    run wraps — the same set on every workload, so a layer a workload
    never reaches shows up as zero calls, not as a missing row."""
    return [
        (RMSSD, "infer_batch", "core.device.infer_batch"),
        (lookup_engine.EmbeddingLookupEngine, "lookup_batch",
         "core.lookup_engine.lookup_batch"),
        (translator.EVTranslator, "translate_array",
         "embedding.translator.translate_array"),
        (controller.SSDController, "translate_vector_offsets",
         "ssd.controller.translate_vector_offsets"),
        (controller.SSDController, "serve_ftl_batch",
         "ssd.controller.serve_ftl_batch"),
        (fastpath, "replay_reads", "ssd.fastpath.replay_reads"),
        (flash.FlashArray, "peek_vectors", "ssd.flash.peek_vectors"),
        # lookup_engine binds segment_pool by name at import.
        (lookup_engine, "segment_pool", "embedding.pooling.segment_pool"),
        (mlp_engine.MLPAccelerationEngine, "forward_batch",
         "core.mlp_engine.forward_batch"),
        (mlp_engine.MLPAccelerationEngine, "stage_times_for",
         "core.mlp_engine.stage_times_for"),
        (pipeline_sim.PipelineSimulator, "run", "core.pipeline_sim.run"),
        (pipeline_fast, "replay_serving", "core.pipeline_fast.replay_serving"),
        (serving.ServingSimulator, "offered_load", "host.serving.offered_load"),
        (serving.ServingSimulator, "sla_search", "host.serving.sla_search"),
        (arrivals, "flash_crowd_trace", "workloads.arrivals.flash_crowd_trace"),
        (cluster_serving.ClusterServingSimulator, "serve_trace",
         "host.cluster_serving.serve_trace"),
        (autoscale.Autoscaler, "evaluate", "host.autoscale.evaluate"),
        (autoscale.Autoscaler, "causal_alerts", "host.autoscale.causal_alerts"),
        # cluster_serving binds build_document by name at import.
        (cluster_serving, "build_document", "obs.timeseries.build_document"),
        (critpath, "build_explain_document", "obs.critpath.build_explain_document"),
        (profiler.Profiler, "as_dict", "obs.profiler.export"),
        (sys.modules[__name__], "dump_documents", "obs.json_dumps"),
    ]


def make_workload(name: str, tiny: bool = False):
    """The workload called ``name``; ``tiny`` shrinks it for the
    self-test (same code path, a fraction of the work)."""
    if name == "lookup_rmc2":
        return DeviceWorkload(
            name, "rmc2", batch=4 if tiny else 32, warmup_ops=1 if tiny else 2,
            min_ops=2 if tiny else 4,
        )
    if name == "lookup_rmc1_vcache":
        return DeviceWorkload(
            name, "rmc1", batch=4 if tiny else 32, warmup_ops=1 if tiny else 3,
            min_ops=2 if tiny else 20, vcache_share=0.01,
        )
    if name == "mlp_rmc3":
        return DeviceWorkload(
            name, "rmc3", batch=1, warmup_ops=2 if tiny else 10,
            min_ops=4 if tiny else 100,
        )
    if name == "des_rmc1":
        return DeviceWorkload(
            name, "rmc1", batch=2 if tiny else 16, warmup_ops=1 if tiny else 2,
            min_ops=2 if tiny else 4, fastpath=False,
        )
    if name == "serve_sweep_rmc2":
        return ServeSweepWorkload(
            queries=500 if tiny else 20_000, warmup_ops=1 if tiny else 2,
            min_ops=2 if tiny else 4,
        )
    if name == "fleet_flash_crowd":
        return FleetWorkload(
            duration_ns=6e7 if tiny else 3e8, warmup_ops=1 if tiny else 2,
            min_ops=2 if tiny else 8,
        )
    raise KeyError(name)
