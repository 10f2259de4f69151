"""Central catalogue of instrumentation names.

Every span, profiler-resource, metric, and DES server/resource name in
the simulator comes from this module — call sites never pass bare
string literals to the tracer/metrics/profiler APIs (lint rule R12
enforces this for ``src/repro``).  A single catalogue means:

* a typo in an instrumentation name is an ``AttributeError`` at import
  time, not a silently diverging trace;
* the DES and fast lookup paths emit the same constants, so the
  byte-identical profile tests compare like with like;
* names that stop being emitted show up as *orphans* instead of
  lingering in dashboards and ``tools/check_trace.py`` invocations.

Adding a name: define the constant here (grouped with its kin), use it
from the emitting call site, and keep emission mirrored between
``lookup_engine`` and ``fastpath`` when it lives on the lookup path —
see ``docs/correctness.md`` ("Whole-program rules").

Names with a per-instance component (channels, dies, FC layers) are
built by the factory helpers at the bottom so the *shape* of every
dynamic name is still catalogued.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Span names (Tracer.add_span) — the span taxonomy of docs/observability.md
# ---------------------------------------------------------------------------
#: Device batch root span (host track group).
SPAN_REQUEST = "request"
#: Host -> device descriptor/input DMA at the batch's front edge.
SPAN_IO_SEND = "io_send"
#: Device -> host status poll + result DMA at the batch's back edge.
SPAN_IO_RECV = "io_recv"
#: One batched embedding lookup (emb track group).
SPAN_LOOKUP_BATCH = "lookup_batch"
#: EV Translator pass (zero-width: translation is metadata-only).
SPAN_TRANSLATE = "translate"
#: Flash phase of a batched lookup (FTL + channels + dies).
SPAN_FLASH_READ = "flash_read"
#: Controller-DRAM vector-cache fetch overlapping the flash phase;
#: doubles as the profiler stream name and its ``kind``.
VCACHE = "vcache"
#: EV Sum fadd-array drain; doubles as the profiler stream name.
EV_SUM = "ev_sum"
#: Shared FTL MUX stage span (ssd.ftl track); doubles as the Server
#: ``kind`` of the FTL MUX.
FTL = "ftl"
#: Bottom/top FC chains (mlp track group).
SPAN_BOTTOM_MLP = "bottom_mlp"
SPAN_TOP_MLP = "top_mlp"
#: Pipeline-model serving spans (serve.req / serve.bot lanes).
SPAN_BATCH = "batch"
SPAN_QUEUE = "queue"
#: Host-runtime pipeline spans (host.send / host.device / host.recv).
SPAN_HOST_SEND = "send"
SPAN_HOST_DEVICE = "device"
SPAN_HOST_RECV = "recv"

# ---------------------------------------------------------------------------
# Pipeline stage names — Server names in the serving models *and* the
# matching span names on the serve.req track; PipelineSimulator._observe
# records the profiler's stage triples under them.
# ---------------------------------------------------------------------------
STAGE_EMB = "emb"
STAGE_BOT = "bot"
STAGE_TOP = "top"

# ---------------------------------------------------------------------------
# Profiler stream names (record_busy/record_service) and their kinds
# ---------------------------------------------------------------------------
#: Host-side DMA engine occupancy (send + recv edges of a batch).
RES_HOST_IO = "host.io"
#: The conventional design's single shared 16x16 GEMM kernel.
RES_GEMM_NAIVE = "gemm16x16"
#: Shared FTL MUX Server between the block and EV paths.
SERVER_FTL_MUX = "ftl-mux"

KIND_HOST_IO = "host-io"
KIND_MLP = "mlp"
KIND_EV_SUM = "ev-sum"
KIND_CHANNEL_BUS = "channel-bus"
KIND_DIE = "die"

# ---------------------------------------------------------------------------
# Metric names (MetricsRegistry counters/gauges/histograms)
# ---------------------------------------------------------------------------
METRIC_RUN_QPS = "run.qps"
METRIC_RUN_INFERENCES = "run.inferences"
METRIC_DEVICE_BATCHES = "device.batches"
METRIC_DEVICE_INFERENCES = "device.inferences"
METRIC_REQUEST_LATENCY = "request_latency_ns"
METRIC_STAGE_EMB = "stage.emb_ns"
METRIC_STAGE_BOT = "stage.bot_ns"
METRIC_STAGE_TOP = "stage.top_ns"
METRIC_STAGE_IO = "stage.io_ns"
METRIC_VCACHE_HITS = "vcache.hits"
METRIC_VCACHE_MISSES = "vcache.misses"
METRIC_VCACHE_EVICTIONS = "vcache.evictions"
METRIC_VCACHE_HIT_RATIO = "vcache.hit_ratio"
METRIC_SERVING_LATENCY = "serving.latency_ns"
METRIC_SERVING_QUEUE = "serving.queue_ns"
METRIC_SERVING_BATCHES = "serving.batches"
#: Cluster-serving metrics (repro.host.cluster_serving): active replica
#: count sampled at t=0 and at every scaling event, and the running
#: count of autoscaler actions.
METRIC_CLUSTER_REPLICAS = "cluster.replicas"
METRIC_CLUSTER_SCALE_EVENTS = "cluster.scale_events"

# ---------------------------------------------------------------------------
# SLO objective and alert names (repro.obs.slo) — objective names are
# fed to SLOEngine.objective (R12-checked like any emission name);
# alert events carry the type/severity constants below.
# ---------------------------------------------------------------------------
#: The serving tail-latency objective declared by ``rmssd-repro report``
#: and the SLA tooling: ``p<q>(serving.latency_ns) < threshold``.
SLO_SERVING_TAIL = "serving-tail-latency"
#: Structured alert event type emitted by the burn-rate engine.
ALERT_BURN_RATE = "burn-rate"
#: Alert severities of the default fast/slow burn-rate rule pair.
ALERT_PAGE = "page"
ALERT_TICKET = "ticket"
#: Scaling-event actions emitted by the autoscaler (repro.host.autoscale).
EVENT_SCALE_UP = "scale-up"
EVENT_SCALE_DOWN = "scale-down"

# ---------------------------------------------------------------------------
# Factory helpers for per-instance names
# ---------------------------------------------------------------------------
def channel_name(index: int) -> str:
    """Flash channel ``index`` (also its span name and track suffix)."""
    return f"channel{index}"


def channel_bus_name(index: int) -> str:
    """The shared bus Server of flash channel ``index``."""
    return f"channel{index}-bus"


def channel_die_name(index: int, die: int) -> str:
    """Die mutex Resource ``die`` of flash channel ``index``."""
    return f"channel{index}-die{die}"


def fc_name(layer_name: str) -> str:
    """One FC layer's span/profiler name (``fc:<layer>``)."""
    return f"fc:{layer_name}"
