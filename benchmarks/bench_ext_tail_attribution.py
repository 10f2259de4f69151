"""Tail-blame attribution across saturation: service -> queueing.

Serves a seeded flash-crowd arrival trace (3x burst) against a fixed
two-replica RMC2 fleet at rising base loads and asks the per-request
critical-path attribution (:mod:`repro.obs.critpath`) *why* the p99
tail is slow at each operating point:

* **light load** — the burst stays near fleet capacity, batches mostly
  find idle stages, and the tail's blame is dominated by *service*
  time (embedding + MLP compute).
* **saturation** — the burst outruns the fleet, the backlog grows for
  the whole burst window, and the blame shifts to *queueing*: the p99
  exemplars spend most of their latency waiting, not computing.

The payload commits that shift — ``queue_share_p99`` must rise from
the first load to the last — plus the explain equivalence contract:
the DES and closed-form replay must export byte-identical
``rmssd-explain/v1`` documents at every load.  The highest-load
document (sans per-request records) is embedded under ``explain`` so
``tools/bench_compare.py`` can print the cross-run regression
explainer's attribution lines when the gate fails.

Results land in ``BENCH_attribution.json`` for the
``tools/bench_compare.py`` gate.  Not part of ``make bench`` (no
``benchmark`` fixture); run via ``make bench-attribution``.
"""

import json
import time

from repro.analysis.report import Table, emit_json
from repro.core.device import operating_point
from repro.host.cluster_serving import ClusterServingSimulator
from repro.models import build_model, get_config
from repro.obs import CritPathCollector, build_explain_document
from repro.workloads.arrivals import flash_crowd_trace

MODEL = "rmc2"
SEED = 11
DURATION_NS = 1.2e9
BURST_START_NS = 3.6e8
BURST_DURATION_NS = 4.8e8
BURST_FACTOR = 3.0
#: Base load as a fraction of fleet capacity (replicas x replica QPS).
#: With the 3x burst the windows peak at ~0.15x, ~1.5x and ~2.55x
#: capacity — from a mostly-idle fleet to deep overload.
LOADS = (0.05, 0.5, 0.85)
REPLICAS = 2
BALANCER = "jsq"
QUANTILE = 99.0
TOP_K = 3


def _operating_point():
    config = get_config(MODEL)
    model = build_model(config, rows_per_table=64)
    return operating_point(model, config.lookups_per_table)


def _serve(result, trace, load, fast):
    collector = CritPathCollector()
    sim = ClusterServingSimulator(
        result.times,
        nbatch=result.nbatch,
        replicas=REPLICAS,
        balancer=BALANCER,
        critpath=collector,
    )
    point = sim.serve_trace(trace, fast=fast)
    document = build_explain_document(
        collector.requests,
        top_k=TOP_K,
        meta={
            "arrivals": "flash-crowd",
            "balancer": BALANCER,
            "load": load,
            "model": MODEL,
            "queries": trace.count,
            "replicas": REPLICAS,
            "seed": SEED,
        },
    )
    return point, document


def _p99_blame(document):
    """(queue share, service share) of the p99 tail's mean latency."""
    entry = next(q for q in document["quantiles"] if q["q"] == QUANTILE)
    blame = entry["tail"]["blame"]
    queue = blame["dispatch_wait_ns"] + blame["queue_ns"]
    service = blame["emb_ns"] + blame["bot_ns"] + blame["top_ns"]
    return queue, service


def test_tail_attribution_flash_crowd():
    result = _operating_point()
    fleet_qps = REPLICAS * result.times.throughput_qps(1e9 / 5.0)

    begin = time.perf_counter()
    queries, p99s_ns = [], []
    queue_shares, service_shares = [], []
    bitwise = True
    final_document = None
    for load in LOADS:
        trace = flash_crowd_trace(
            load * fleet_qps,
            DURATION_NS,
            burst_start_ns=BURST_START_NS,
            burst_duration_ns=BURST_DURATION_NS,
            burst_factor=BURST_FACTOR,
            seed=SEED,
        )
        point, document = _serve(result, trace, load, fast=False)
        _, fast_document = _serve(result, trace, load, fast=True)
        bitwise = bitwise and json.dumps(
            document, sort_keys=True
        ) == json.dumps(fast_document, sort_keys=True)
        queue_share, service_share = _p99_blame(document)
        queries.append(trace.count)
        p99s_ns.append(point.p99_ns)
        queue_shares.append(queue_share)
        service_shares.append(service_share)
        final_document = document
    wall_s = time.perf_counter() - begin

    # Equivalence first: both paths must export byte-identical explain
    # documents at every load.
    assert bitwise  # lint: ok[R2]

    # The claim: saturation moves the p99 tail's blame from service
    # time to queueing.
    assert queue_shares[-1] > queue_shares[0]

    table = Table(
        f"Flash crowd on {MODEL.upper()}: {BURST_FACTOR:g}x burst, "
        f"{REPLICAS} replicas, p{QUANTILE:g} tail blame",
        ["load", "queries", "p99 ms", "queue", "service"],
    )
    for index, load in enumerate(LOADS):
        table.add_row(
            f"{load:.2f}x", str(queries[index]),
            f"{p99s_ns[index] / 1e6:.2f}",
            f"{queue_shares[index]:.0%}", f"{service_shares[index]:.0%}",
        )
    table.print()

    # Embed the saturated document (sans per-request records) so the
    # bench_compare gate can attribute a failure, not just report it.
    embedded = {
        key: value for key, value in final_document.items()
        if key != "requests"
    }
    emit_json(
        "attribution",
        {
            "model": MODEL,
            "arrivals": "flash-crowd",
            "replicas": REPLICAS,
            "balancer": BALANCER,
            "burst_factor": BURST_FACTOR,
            "quantile": QUANTILE,
            "loads": list(LOADS),
            "queries": queries,
            "p99_ms": [p99 / 1e6 for p99 in p99s_ns],
            "queue_share_p99": queue_shares,
            "service_share_p99": service_shares,
            "bitwise_equal": bitwise,
            "explain": embedded,
            "wall_s": wall_s,
        },
    )
