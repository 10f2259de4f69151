"""What the benchmark declares: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repo root carries the same declarations for
the driver; ``test_harness.py`` checks the two agree, so the harness
never reads a file outside its own directory.

Naming: ``host_*`` is host time (``time.perf_counter`` in the child
process), ``sim_*`` is simulated time or a simulated count (``sim.now``,
``DeviceTiming``, ``LoadPoint``).  Host metrics are noisy and carry a
bound; simulated metrics repeat exactly for a fixed seed.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

#: How long one run measures (``BENCHMARK.json`` ``run_seconds``).
RUN_S = 12
#: Every child runs single-threaded; the result records these.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which an end-to-end metric may
    #: get worse; ``None`` for per-layer metrics (no bound).
    bound: Optional[float] = None


#: name -> why the workload exists (one line each; README has more).
WORKLOADS: Dict[str, str] = {
    "lookup_rmc2": (
        "RMC2 32-sample batches on the fast path: flash replay + gather "
        "do nearly all the work, the MLP almost none"
    ),
    "lookup_rmc1_vcache": (
        "RMC1 32-sample batches behind a 1% LRU vector cache (~65% hits): "
        "hits skip FTL and flash, time moves into the probe loop"
    ),
    "mlp_rmc3": (
        "RMC3 batch-1 requests: forward_batch dominates, the lookup is "
        "paid as fixed per-call overhead"
    ),
    "des_rmc1": (
        "RMC1 16-sample batches with fastpath=False: the reference "
        "event-driven kernel, which fast-path work must leave unchanged"
    ),
    "serve_sweep_rmc2": (
        "six-point Poisson load sweep on the closed-form pipeline replay: "
        "stresses pipeline_fast and host.serving, touches no device code"
    ),
    "fleet_flash_crowd": (
        "flash-crowd trace through an autoscaled jsq fleet plus the obs "
        "exporters: dispatch planning, autoscaler epochs, JSON documents"
    ),
}

END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("host_op_p50_ms", "ms", "lower", 0.25),
    Metric("host_inferences_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
]

#: Split of ``setup_s``, measured on every workload.
SETUP_PHASES = (
    "setup.import_s",
    "setup.model_build_s",
    "setup.device_construct_s",
    "setup.kernel_search_s",
    "setup.inputs_s",
    "setup.warmup_s",
)

#: Wrapped entry points, ``<module>.<entry>``; each gets a ``.self_ms``
#: per-layer metric (host self time per op) — the ledger.
LAYERS = (
    "core.device.infer_batch",
    "core.lookup_engine.lookup_batch",
    "embedding.translator.translate_array",
    "ssd.controller.translate_vector_offsets",
    "ssd.controller.serve_ftl_batch",
    "ssd.fastpath.replay_reads",
    "ssd.flash.peek_vectors",
    "embedding.pooling.segment_pool",
    "core.mlp_engine.forward_batch",
    "core.mlp_engine.stage_times_for",
    "core.pipeline_sim.run",
    "core.pipeline_fast.replay_serving",
    "host.serving.offered_load",
    "workloads.arrivals.flash_crowd_trace",
    "host.cluster_serving.serve_trace",
    "host.autoscale.evaluate",
    "host.autoscale.causal_alerts",
    "obs.timeseries.build_document",
    "obs.critpath.build_explain_document",
    "obs.profiler.export",
    "obs.json_dumps",
)

#: Layers on the flash side of the lookup: their ``ns_per_vector`` is
#: per vector that reached flash, not per vector looked up.
FLASH_LAYERS = LAYERS[2:7]

PER_LAYER: List[Metric] = (
    [Metric(name, "s", "lower") for name in SETUP_PHASES]
    + [Metric(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    + [Metric("harness.op.self_ms", "ms", "lower")]
    + [Metric(f"{layer}.ns_per_vector", "ns", "lower") for layer in FLASH_LAYERS]
    + [
        Metric("embedding.pooling.segment_pool.ns_per_vector", "ns", "lower"),
        Metric("core.lookup_engine.lookup_batch.path_fast", "count", "higher"),
        Metric("core.lookup_engine.lookup_batch.path_des", "count", "lower"),
        Metric("core.lookup_engine.lookup_batch.sim_err_vs_eq1_pct", "%", "lower"),
        Metric("core.mlp_engine.forward_batch.ns_per_inference", "ns", "lower"),
        Metric("sim.engine.host_us_per_read", "us", "lower"),
        Metric("core.pipeline_fast.replay_serving.ns_per_batch", "ns", "lower"),
        Metric("host.serving.sla_search.busy_ms", "ms", "lower"),
        Metric("host.serving.sla_search.points_evaluated", "count", "lower"),
        Metric("host.cluster_serving.serve_trace.us_per_query", "us", "lower"),
        Metric("host.cluster_serving.serve_trace.us_per_query_4x", "us", "lower"),
        Metric("host.autoscale.evaluate.calls", "count", "lower"),
        Metric("host.autoscale.causal_alerts.calls", "count", "lower"),
        Metric("obs.json_dumps.bytes", "bytes", "lower"),
        Metric("ssd.vcache.probes", "count", "lower"),
        Metric("ssd.vcache.hits", "count", "higher"),
        Metric("ssd.vcache.hit_ratio", "ratio", "higher"),
        Metric("ssd.vcache.evictions", "count", "lower"),
        Metric("ssd.stats.flash_bus_bytes", "bytes", "lower"),
        Metric("ssd.stats.flash_amplification", "ratio", "lower"),
        Metric("sim.replicas_peak", "count", "lower"),
        Metric("sim.scale_ups", "count", "lower"),
        Metric("sim.scale_downs", "count", "lower"),
        Metric("sim_qps", "1/s", "higher"),
        Metric("sim_p99_ms", "ms", "lower"),
        Metric("sim_max_qps_under_sla", "1/s", "higher"),
        Metric("sim_sla_miss_share", "ratio", "lower"),
        Metric("sim_vectors_read", "count", "lower"),
        Metric("host_vectors_per_s", "1/s", "higher"),
        Metric("harness.calib_ms", "ms", "lower"),
        Metric("harness.trace_overhead_pct", "%", "lower"),
        Metric("harness.spans", "count", "lower"),
    ]
)

#: Simulated quantities every child reports (traced or not), so two
#: result files compare exactly whatever their mode.
SIM_METRICS = (
    "sim_qps",
    "sim_p99_ms",
    "sim_max_qps_under_sla",
    "sim_sla_miss_share",
    "sim_vectors_read",
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document these declarations imply."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_S,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
