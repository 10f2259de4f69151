"""Every byte the serving observers export, pinned.

The timeseries, explain and profile documents, the metrics registry and
its Prometheus rendering are what a run reports about itself; how the
observers record and fold their inputs may change underneath them, the
bytes may not.  Each scenario below runs a fleet (or one device) with
every observer attached and hashes each export exactly as it is
written: ``json.dumps(..., sort_keys=True)`` for documents, the text
itself for Prometheus.

The fleet literals were recorded before the observers took columns.
Each fleet and device runs on the closed-form replay and on the DES,
which must export the same bytes (a device's Chrome trace names the
lookup path, so it is pinned per path).  The ``smoke``-named tests are run by
``tools/check.sh`` under ``RMSSD_SANITIZE=1``.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.device import RMSSD
from repro.host.autoscale import Autoscaler
from repro.host.cluster_serving import (
    BALANCER_JSQ,
    BALANCER_LATENCY,
    BALANCER_ROUND_ROBIN,
    ClusterServingSimulator,
)
from repro.models import build_model, get_config
from repro.obs import (
    CritPathCollector,
    MetricsRegistry,
    Profiler,
    SLOEngine,
    Tracer,
    names,
    render_prometheus,
)
from repro.obs.critpath import build_explain_document
from repro.obs.timeseries import build_document
from repro.ssd.vcache import VectorCache
from repro.workloads.arrivals import diurnal_trace, flash_crowd_trace, poisson_trace
from tests.test_cluster_serving import UNLOADED_NS, simple_times

WINDOW_NS = 2e6


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def dumped(document) -> str:
    return sha(json.dumps(document, sort_keys=True))


def slo_engine(window_ns=WINDOW_NS):
    engine = SLOEngine(window_ns)
    engine.objective(
        names.SLO_SERVING_TAIL, names.METRIC_SERVING_LATENCY,
        quantile=99.0, threshold_ns=3 * UNLOADED_NS,
    )
    engine.objective(
        "queue-median", names.METRIC_SERVING_QUEUE,
        quantile=50.0, threshold_ns=UNLOADED_NS, budget=0.05,
    )
    return engine


def fleet_digests(trace, replicas, balancer, fast, autoscale):
    scaler = (
        Autoscaler(
            sla_ns=3 * UNLOADED_NS, window_ns=WINDOW_NS, epoch_windows=2,
            max_replicas=6, scale_up_step=2,
        )
        if autoscale
        else None
    )
    metrics = MetricsRegistry(window_ns=WINDOW_NS)
    profiler = Profiler()
    collector = CritPathCollector()
    fleet = ClusterServingSimulator(
        simple_times(), replicas=replicas, balancer=balancer, autoscaler=scaler,
        metrics=metrics, profiler=profiler, critpath=collector,
    )
    point = fleet.serve_trace(trace, fast=fast)
    assert point.path == ("fast" if fast else "des")
    digests = {
        "timeseries": dumped(fleet.timeseries_document(slo=slo_engine())),
        "explain": dumped(build_explain_document(collector.requests, top_k=3)),
        "profile": dumped(profiler.as_dict()),
        "metrics": dumped(metrics.as_dict()),
        "prometheus": sha(render_prometheus(metrics)),
    }
    if scaler is not None:
        digests["control"] = dumped(scaler.control.as_dict())
    return digests


FLEETS = {
    "jsq_autoscaled_flash_crowd": lambda fast: fleet_digests(
        flash_crowd_trace(600.0, 2e8, 6e7, 8e7, burst_factor=4.0, seed=5),
        1, BALANCER_JSQ, fast, autoscale=True,
    ),
    "round_robin_poisson": lambda fast: fleet_digests(
        poisson_trace(1100.0, 220, seed=3), 3, BALANCER_ROUND_ROBIN, fast,
        autoscale=False,
    ),
    "latency_weighted_diurnal": lambda fast: fleet_digests(
        diurnal_trace(1200.0, 2e8, 1e8, amplitude=0.9, seed=4),
        2, BALANCER_LATENCY, fast, autoscale=True,
    ),
}

#: Digest of every export per fleet, recorded before the observers
#: took columns; the DES and the closed-form replay must both match.
PINNED_FLEETS = {
    "jsq_autoscaled_flash_crowd": {
        "timeseries": "6acbf9837271a378d791237a5917880df8f30090fe3711546e4d09311a3f4031",
        "explain": "84e19c211efb2f46ada05cb235ec6219944ea95efe238f47250d2d120207ee4f",
        "profile": "abee59e9df6c023e7d20d2f7cddeba5b4a59d2bcb2808423f7c2760a60c3483f",
        "metrics": "511924feee63f3c2de66ef27a01500198cfb0c99f6fabcf39f982aca6d6dc55a",
        "prometheus": "2b7c2811c4377c9d76673c47c8e4dbcb225fbe8dce163f402da489e79d3cf225",
        "control": "30e016c550e4ff8c61d7be8c1603f8066a18b3a3714c2c4e2df0dfe3af89d754",
    },
    "round_robin_poisson": {
        "timeseries": "8ecb5aa2ff67f318d8cfa970e42dfef5e57845268a47fb538c16dbe627ef109a",
        "explain": "4b4828c5e9b4b375a40126b7d8b2e4b1fb1d76a9e3fc4f182ad3371a17b94e3d",
        "profile": "c74f294db604b6db4d3d16373184e8ad2a73cb88df5facb6afd24231ecf295eb",
        "metrics": "b119595479fb5a9f0785fde4fed1194d4b64bb0eae3837fef255358f1c43beb2",
        "prometheus": "e9431daf6acd348777beed87dcb9e8a0bc10945b1bbb3d192e3279315619811d",
    },
    "latency_weighted_diurnal": {
        "timeseries": "93dfe0227190ac37452784831e282cb07fa32bb470430f58acc471d994b4d812",
        "explain": "c9e8bf40c770e61f5c65a9d003a96f532ba6fcfb6adbfb90529235d0f188d1e4",
        "profile": "ab065672724f61cd81e37c98381e2ed2b9cb3677c6863baf5cbe2d1fa3264bef",
        "metrics": "73351d6360bcf3f85670f5412ccbc9ac7c33134f76fc9961cbc630f49395a62c",
        "prometheus": "062553df3ce74bcbb1caee1a7e090fe6c20e62ba24ad4f9b8a04793214c363fc",
        "control": "c01e51a19ef0e280bdae42ee4ebd8f14e4ff15aacc3b743bafffeada840a11f1",
    },
}


@pytest.mark.parametrize("fast", (True, False), ids=("fast", "des"))
@pytest.mark.parametrize("name", sorted(FLEETS))
def test_smoke_fleet_documents_pinned(name, fast):
    assert FLEETS[name](fast) == PINNED_FLEETS[name]


ROWS = 128


def device_digests(fast, mlp_design="optimized", vcache_share=0.0):
    """One RMC1 device, batch by batch, with a tracer, a profiler and a
    windowed, sketched registry: every observation goes through the
    scalar ``observe`` / ``inc`` / ``set`` calls of
    ``RMSSD._observe_metrics``, every span and busy interval through
    the device's and the lookup engine's per-batch walks."""
    config = get_config("rmc1")
    model = build_model(config, rows_per_table=ROWS, seed=3)
    vcache = None
    if vcache_share:
        vcache = VectorCache(
            int(vcache_share * ROWS * config.num_tables), policy="lru"
        )
    metrics = MetricsRegistry(window_ns=7e5, sketch_k=8)
    profiler = Profiler()
    tracer = Tracer()
    device = RMSSD(
        model, 6, metrics=metrics, profiler=profiler, tracer=tracer,
        fastpath=fast, mlp_design=mlp_design, vcache=vcache,
    )
    rng = np.random.default_rng(21)
    for samples in (1, 3, 2, 4, 1, 2, 3, 1, 2, 4, 2, 1):
        dense = rng.standard_normal((samples, config.dense_dim)).astype(np.float32)
        sparse = [
            [rng.integers(0, ROWS, size=6).tolist() for _ in range(config.num_tables)]
            for _ in range(samples)
        ]
        device.infer_batch(dense, sparse)
    if vcache is not None:
        assert vcache.hits and vcache.evictions
    return {
        "timeseries": dumped(build_document(metrics=metrics, profiler=profiler)),
        "profile": dumped(profiler.as_dict()),
        "metrics": dumped(metrics.as_dict()),
        "prometheus": sha(render_prometheus(metrics)),
        # The lookup and request spans name the path that served them.
        "trace_" + ("fast" if fast else "des"): dumped(tracer.chrome_events()),
    }


DEVICES = {
    "rmc1": lambda fast: device_digests(fast),
    "rmc1_naive": lambda fast: device_digests(fast, mlp_design="naive"),
    "rmc1_vcache_lru": lambda fast: device_digests(fast, vcache_share=0.01),
}

#: Digest of every export per device, recorded at the commit before
#: the device's tracer and profiler walks were merged; the Chrome trace
#: names the lookup path, so it is pinned per path.
PINNED_DEVICES = {
    "rmc1": {
        "timeseries": "062656da8b78b044c854dd7476e7a825cf42f77a08dd8cc017c0f8ae3e2422da",
        "profile": "7891c31db2605a2873c8703f9215a1d19dbfd1ebcdc3c792363171c9ddf988e6",
        "metrics": "d7cb005c41e341ecdfed4bb98f53687eaa367eb0ae5730f7fc687bb53accef89",
        "prometheus": "91b4469f29af3f09d93205516a80f78e0bca28aa12a35d34e8e79ec5b49bcf35",
        "trace_fast": "04a39543b7e0fcf9d6f3b7f96637f38381d8f36e06754fbb928716f628f1509f",
        "trace_des": "51d3ef70a4486168cf05cfd841f87e70acbb93ef6f263165e10b13339663966d",
    },
    "rmc1_naive": {
        "timeseries": "2ff9466b2aad40cf78433cc10cf137cdc4981b53790dd7644e87b697d869e763",
        "profile": "fe555afabc7645b2e9ab3ce68139ff4bba19de1534b8b12cdc4e0f68f77b9a7e",
        "metrics": "0dc7eb98c166c3b9d8489c5e65271fa836af57241e39ef785be58b9df1cd3b93",
        "prometheus": "46854be94fe3ef093bec30569c024dc2d0e99598a8d5e7fc57817277f9139111",
        "trace_fast": "47c280e53739fbdbccd25d0f98605d9144acb452424cb590b830d394b5b12706",
        "trace_des": "48fb735e18c99d45326074e79b062d3fc19988c79b73acade22c33de51e5f7cc",
    },
    "rmc1_vcache_lru": {
        "timeseries": "6732c99330d8e63786b91492a3052bea6f81a8f8242960e9bcd30033f7aa04b8",
        "profile": "f254abf3f1de433c0af1fcfab879d11615ee43f07ccf9bb6f191c24e004452cf",
        "metrics": "8286583b3c6b372bbc560720840d869b99f0f71e70705a06aba78ce09dbca2d6",
        "prometheus": "784273cca6c741c62d29f683daafd0a94f29b92ba0eec9a46761a34fbe5b48c3",
        "trace_fast": "caff9b81e2f775b232f2db6cca80671533e54d9211ae0f993f54d0e7f08ffe47",
        "trace_des": "5e6580607827a33a7e1df35f76c50a7a1fca7a8989710e2de8d2b9f55e64fd7b",
    },
}


@pytest.mark.parametrize("fast", (True, False), ids=("fast", "des"))
@pytest.mark.parametrize("name", sorted(DEVICES))
def test_smoke_device_documents_pinned(name, fast):
    digests = DEVICES[name](fast)
    assert digests == {key: PINNED_DEVICES[name][key] for key in digests}
