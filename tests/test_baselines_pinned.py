"""Every number the comparators report, pinned.

SSD-S / SSD-M charge each lookup by whether its 4 KB page hits the
capped OS page cache; RecSSD charges each lookup by whether it hits the
host-side vector cache and, failing that, the optional SSD-side cache.
How the hit mask is computed may change; the floats may not.  Each case
runs a request stream and hashes the ``repr`` of every breakdown value,
``total_ns``, every ``stats.as_dict()`` entry and the hit / miss /
eviction counters of every cache the backend holds: ``repr``
round-trips a float exactly, so one moved bit — a pairwise sum in place
of the sequential one, or a ``float`` turned into an ``np.float64`` —
changes the digest.  ``measured_cache_hit_ratio`` is pinned the same
way on two traces.

The literals were recorded while the caches were still a per-lookup
``OrderedDict`` LRU.

The cache-free comparators are pinned the same way: EMB-MMIO,
EMB-PageSum (analytic and on the DES), EMB-VectorSum and DRAM; the
RM-SSD backend in both MLP designs on both timing modes, its output
bytes hashed too; the multi-device cluster in both sharding modes,
every :class:`ClusterTiming` field; and the dynamic batcher's batch
sizes, query latencies and makespan.  Those literals were recorded
while each baseline still held its own copy of the in-SSD read cost
and the pooled-result return, RM-SSD's backend its own pipelined
total, and the batcher its own event-driven pipeline.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.baselines import (
    DRAMBackend,
    EMBMMIOBackend,
    EMBPageSumBackend,
    EMBVectorSumBackend,
    NaiveSSDBackend,
    RecSSDBackend,
    RMSSDBackend,
)
from repro.core.cluster import MODE_REPLICA, MODE_TABLE_SHARD, RMSSDCluster
from repro.host.batching import DynamicBatcher
from repro.host.costs import DEFAULT_HOST_COSTS
from repro.models import build_model, get_config
from repro.workloads.inputs import RequestGenerator
from repro.workloads.locality import hit_ratio_for_k, measured_cache_hit_ratio
from repro.workloads.tracegen import TraceGenerator

ROWS = 4096
REQUESTS = 4


def hash_fields(fields) -> str:
    """sha256 over ``name=repr(value)`` of each ``(name, value)``."""
    hasher = hashlib.sha256()
    for name, value in fields:
        hasher.update(f"{name}={value!r};".encode())
    return hasher.hexdigest()


def digest(result, caches, extra=()) -> str:
    """:func:`hash_fields` of the run, its caches, then ``extra``."""
    fields = [(key, value) for key, value in sorted(result.breakdown.items())]
    fields.append(("total_ns", result.total_ns))
    fields.extend(sorted(result.stats.as_dict().items()))
    for name, cache in caches:
        for counter in ("hits", "misses", "evictions"):
            fields.append((f"{name}.{counter}", getattr(cache, counter)))
    fields.extend(extra)
    return hash_fields(fields)


def bytes_digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


_models = {}


def model_and_requests(key, batch):
    if key not in _models:
        _models[key] = build_model(get_config(key), rows_per_table=ROWS, seed=0)
    generator = RequestGenerator(get_config(key), ROWS, seed=5)
    return _models[key], generator.requests(REQUESTS, batch_size=batch)


#: (model, batch, dram_fraction) -> digest.
NAIVE = {
    ("rmc1", 1, 0.25): "af0ef868b48aa19a15d063b348593083845e85fa55d799b6b3862255b31d9936",
    ("rmc1", 1, 0.5): "59ae0a812df581bb11a79209971d1a42eb82de92972196b3a13d9342201102d0",
    ("rmc1", 8, 0.25): "2fcfef46143f936839476eddc955e5ccf553ecbd760afce49a8b7f2a8b6ca87c",
    ("rmc1", 8, 0.5): "840db6962d92d8543b3a55ff1f845f10eef1d8907d37590ede81db93ec013823",
    ("rmc2", 1, 0.25): "77e223e7d476aeec1f4e20b8aed756189d04a44e7a79103bf8c1646940d62782",
    ("rmc2", 1, 0.5): "9a581adfc8c6b26e78b30a262e5827a61f7a5f9f26395aa22777176d3000d2e7",
    ("rmc2", 8, 0.25): "19e5a82576f9ff76614a628f748a5496dae469cb5153b678777ee746d65e14c8",
    ("rmc2", 8, 0.5): "b7b0d15bc48cd8d992b3d601557e020af7d22c64e058fc9ad439bc43ea074f3b",
    ("rmc3", 1, 0.25): "98de43ce510b13bf5a94d2ffb4c08f56dc34a0ec35bbfa2fa5a067a469036fd1",
    ("rmc3", 1, 0.5): "d2a897b98ac1a5aaafe83f1d7b7061cc134ff048faf22e8219e1d3ff2908b9e8",
    ("rmc3", 8, 0.25): "e48564fe4718facdfdc6b74ac12c519599493844bc371b8413c059ccd468a06e",
    ("rmc3", 8, 0.5): "f874979317c38b9278b1914497e5a998a2b88df98c559cd4e1ba67556cabbe25",
}

#: Costs whose sums are inexact in binary, so that adding them in any
#: other order than one lookup after another moves the last bits (the
#: default costs are round enough to sum exactly in any order).
ODD_COSTS = dataclasses.replace(
    DEFAULT_HOST_COSTS,
    syscall_ns=3000.1,
    pagecache_hit_ns=2000.3,
    pagecache_miss_stack_ns=20000.7,
    device_page_read_ns=20000.9,
    sls_per_vector_ns=25.1,
)
#: (model, batch, dram_fraction) -> digest under :data:`ODD_COSTS`.
NAIVE_ODD_COSTS = {
    ("rmc1", 8, 0.25): "70ab716cb605bb8fe7cc7b8fe73540f5652cf37966e7ceff9a7fe7418639602f",
    ("rmc2", 1, 0.5): "d9bc1fb9dd918cdc3f6bc85f5460e88acd414cc7cde51e0f29d196b9d804d6b1",
}

#: (model, case) -> digest; a case is RecSSDBackend's keyword arguments.
RECSSD_CASES = {
    "default": {},
    "cache_vectors=1": {"cache_vectors": 1},
    "ssd_cache_vectors=64": {"ssd_cache_vectors": 64},
    # A host cache smaller than the SSD cache, so the SSD cache hits.
    "cache_vectors=16,ssd_cache_vectors=64": {
        "cache_vectors": 16,
        "ssd_cache_vectors": 64,
    },
}
RECSSD = {
    ("rmc1", "default"): "68e3f16c38f580574f3d7f0e4e2606b169d3796d6b56158586b02a96dded58d9",
    ("rmc1", "cache_vectors=1"): "e554c61528232e33b14fe9ea5bde94efdcaf530087541c8b5a712f94739b6998",
    ("rmc1", "ssd_cache_vectors=64"): "eea372fdc2f5959851fb8f62f0ab0464703416783f21b7d6998a8f7d4090a456",
    ("rmc1", "cache_vectors=16,ssd_cache_vectors=64"): "1b52b976a5112f172ee8420172b0d67cc40c65df256b66303c320fba1641984e",
    ("rmc2", "default"): "dd15277b8a75e1706b693b4cf65fd7f33c31d9409695014350436347a843378f",
    ("rmc2", "cache_vectors=1"): "5b5725c0ef321cdd18af4c06b602f4235e1de9607a25412034f7150d6af319a1",
    ("rmc2", "ssd_cache_vectors=64"): "ff3dbc783f829871776e879da91c8c8cd8d88084263433848b2aa7c8f764a7bb",
    ("rmc2", "cache_vectors=16,ssd_cache_vectors=64"): "32d2e208688e8615ce2284f39789ab04e94fe64920d9ec9820229eee0707ed7c",
}

#: (K, capacity in hot sets) -> digest of the measured hit ratio.
HIT_RATIO = {
    (0.0, 8): "8f6c4c82d289c467b711e5f4c33694b4ca8e9ee68a31c2bac2d23da274c2d073",
    (2.0, 1): "afbb8126912f51143138b00ed10cd5930e7288f9a7d0f1f1c962d53426fc429a",
}


@pytest.mark.parametrize("key,batch,fraction", sorted(NAIVE))
def test_naive_ssd_run_pinned(key, batch, fraction):
    model, requests = model_and_requests(key, batch)
    backend = NaiveSSDBackend(model, fraction)
    result = backend.run(requests, compute=False)
    assert digest(result, [("page_cache", backend.page_cache)]) == NAIVE[
        (key, batch, fraction)
    ]


@pytest.mark.parametrize("key,batch,fraction", sorted(NAIVE_ODD_COSTS))
def test_naive_ssd_sums_in_lookup_order_pinned(key, batch, fraction):
    model, requests = model_and_requests(key, batch)
    backend = NaiveSSDBackend(model, fraction, costs=ODD_COSTS)
    result = backend.run(requests, compute=False)
    assert digest(result, [("page_cache", backend.page_cache)]) == NAIVE_ODD_COSTS[
        (key, batch, fraction)
    ]


@pytest.mark.parametrize("key,case", sorted(RECSSD))
def test_recssd_run_pinned(key, case):
    model, requests = model_and_requests(key, 8)
    backend = RecSSDBackend(model, **RECSSD_CASES[case])
    result = backend.run(requests, compute=False)
    caches = [("host_cache", backend.host_cache)]
    if "ssd_cache_vectors" in RECSSD_CASES[case]:
        caches.append(("ssd_cache", backend.ssd_cache))
    assert digest(result, caches) == RECSSD[(key, case)]


@pytest.mark.parametrize("k,hot_sets", sorted(HIT_RATIO))
def test_measured_cache_hit_ratio_pinned(k, hot_sets):
    trace = TraceGenerator(
        num_tables=4,
        rows_per_table=20_000,
        lookups_per_table=16,
        hot_access_fraction=hit_ratio_for_k(k),
        seed=9,
    )
    flat = trace.flat_indices(trace.generate(200))
    ratio = measured_cache_hit_ratio(flat, hot_sets * trace.hot_set_size)
    assert hashlib.sha256(repr(ratio).encode()).hexdigest() == HIT_RATIO[
        (k, hot_sets)
    ]


#: Comparator name -> its backend over a model.
COMPARATOR_BUILDERS = {
    "emb-mmio": EMBMMIOBackend,
    "emb-pagesum": EMBPageSumBackend,
    "emb-pagesum-des": lambda model: EMBPageSumBackend(model, use_des=True),
    "emb-vectorsum": EMBVectorSumBackend,
    "dram": DRAMBackend,
}
#: (comparator, model, batch) -> digest.
COMPARATORS = {
    ("emb-mmio", "rmc1", 1): "7fe306b18702de91fb98b91130a44d1e381e67101b87b166976ec4b805f33eb6",
    ("emb-mmio", "rmc1", 8): "db3e36e01f75bccdbf125d1db21b3500d58497e4767eb0d1d3ebb94b70be6910",
    ("emb-mmio", "rmc2", 8): "0ef022454623426a205b3f3c58271d55b1507be54200cab201786e8ca94424c4",
    ("emb-mmio", "rmc3", 8): "38e8dc5c589f43573a7d7d40a0e2e5f8d8db9986e17cae2479be24fd7f3947fd",
    ("emb-pagesum", "rmc1", 1): "703e8956214c6ebaee8fd025aa1ef80f934ad328ccc5e39dbe9d43abf87a5ffe",
    ("emb-pagesum", "rmc1", 8): "989a6d6475221c476abd7df22c7b8df8ed38b45288430fa854f309a2aefdb57d",
    ("emb-pagesum", "rmc2", 8): "ba72459d319cec4c3175847e689ff25c9bbcab6a20a7381c6188f61528e18701",
    ("emb-pagesum", "rmc3", 8): "21bcfcb9464d5bdcb1dbb1eb8f941105d2cc29004b00a07dadafe529a7455db5",
    ("emb-pagesum-des", "rmc1", 1): "abf5c797c886943499edd80c5ca58b87f0480e4179a13419c18f149bb513e084",
    ("emb-pagesum-des", "rmc1", 8): "52a5bf5edba20473894cd20fe876176de4bc11e1e52d5ad1db920c6278ebe537",
    ("emb-pagesum-des", "rmc2", 1): "92534f6526c232c9f00133d892e2642904fb908978eb4aae69287f48bfb5b344",
    ("emb-pagesum-des", "rmc3", 8): "5ead0a391bcdf1ca0fc3d7127f7a79a6daf991e090a9bb30c2967add373726d1",
    ("emb-vectorsum", "rmc1", 1): "895fb97f29d2880eaf711a57a745bc1153d5553b9d91f9b6978e6761c2ec4e2c",
    ("emb-vectorsum", "rmc1", 8): "0c63cf5fee1898985c6a78f1ab47969e54d1d11adb3ce77e6a1620cf911a9a6e",
    ("emb-vectorsum", "rmc2", 8): "141f196e998da7df20f752f9003a0c036579f7a6d4e0271187db3e7477cb76c5",
    ("emb-vectorsum", "rmc3", 8): "fb823c92fbd0228039161abda89369a40598e9b7a1181229bfabbada0a4a2bbf",
    ("dram", "rmc1", 1): "4e56ab159122ba97648aab21a5ffdbcdc030ac91a9e0f9642a26a9e159f03ba7",
    ("dram", "rmc2", 8): "f664358c8a6af6d33e3c21de9f8cd32840b878446da1f458027e1548cd0cb154",
    ("dram", "rmc3", 8): "0439abb9f74c800faaef85c4c963be1a4a1d3bdfb13c5e6c8cf31aeaae07f280",
}

#: (model, mlp_design, use_des, batch) -> digest of the run and its
#: output bytes.  RMC1/RMC2 carry one sample per device batch, RMC3
#: four, so batch 37 ends on a partial device batch.
RMSSD_RUNS = {
    ("rmc1", "optimized", False, 3): "2437ccbd4860e6f3cf47139e23e87f556357ea9c8f28e6238931ca2a9f1eddc3",
    ("rmc1", "optimized", True, 3): "9a3446e4e85149ba3f44bd1fc31dbf45a12ce065eff704c75f39c5686707b6a0",
    ("rmc1", "naive", False, 3): "179eba086d602ccde9a3c5567ac5f4541165b90bccdd55062effd87fedb584bb",
    ("rmc1", "naive", True, 3): "ab7d6bac963aaa4da0e7a4003fde5e9e54949703b90f40db383577fba763d7de",
    ("rmc2", "optimized", False, 3): "fbedaef5b9812a548422a02c183495139e5b747267313ca50319b3d752eb9653",
    ("rmc2", "optimized", True, 3): "e0cb2191582ccf73da138dd2b55b2dc66eb8f832ffb0a7b7a46aecaf5b540c41",
    ("rmc2", "naive", False, 3): "4ab4d76d1ab699257fd1ff55169258d8e57c374e8827cdbdeddf46ce0ebe3b1d",
    ("rmc2", "naive", True, 3): "e87c714e80ac70efd4bfc2fe1d6a7b714622599266ba2984a36116d1d263627c",
    ("rmc3", "optimized", False, 3): "8e2bf4e905ec93a2c5e66f3d6452ff8657450065ec15c5641705b62aef33a27e",
    ("rmc3", "optimized", True, 3): "32c07034cae9f1d408936d740b6c0b2df7ae7922c88cfa7eea262f7911498547",
    ("rmc3", "naive", False, 3): "7d53f5f3fd216faada6c87619b168f30397c920d0a32bf156ac316b13a58ca24",
    ("rmc3", "naive", True, 3): "fd28376b51e603c7475b125fbf4103bd78fd1e75e1690869e4c9f259b7d41a0c",
    ("rmc3", "optimized", False, 37): "14a46e2328ca9f56b37160615a792df1114f955a6b9711f490754bb478d83306",
    ("rmc3", "optimized", True, 37): "1e9bb39591449e59e59582fee3873ddc5058ba16883d517aea913f72b0088a57",
    ("rmc3", "naive", False, 37): "4767766d5cb65a4de8422bbbd14590e81a1fb382ebe6b685c182d8b023a3d692",
    ("rmc3", "naive", True, 37): "307cf4244ce81f4a46098d8298aec88b26cdf2dfadfde2ef2d363887b5e8ea72",
}

#: (mode, devices) -> digest of three RMC1 batches' outputs and every
#: ClusterTiming field, plus ``throughput_qps``.
CLUSTER = {
    (MODE_TABLE_SHARD, 1): "1754d969768aa13a2017c43103e33e741de9dcc68c75bb1223e9c377e8a2b87e",
    (MODE_TABLE_SHARD, 2): "1936a16d175ffbb63f9fc24322a91aa95a552207ca30ea151c9767249569e710",
    (MODE_REPLICA, 1): "1754d969768aa13a2017c43103e33e741de9dcc68c75bb1223e9c377e8a2b87e",
    (MODE_REPLICA, 2): "230f9c75d43a6f2178c560e2ae64409a4188d1d05bc3408cc81f24819b520631",
}

#: case -> (seed, queries, mean gap ns, max_batch, max_wait_ns, emb
#: fixed ns, emb per-sample ns, bot ns, top ns).  The stage times and
#: the gaps are inexact in binary, so a clock that adds them in another
#: order moves the last bits.
BATCHER_CASES = {
    "saturated": (1, 200, 30.3, 8, 200.7, 100.1, 2.3, 0.0, 20.9),
    "underloaded": (2, 60, 9_999.9, 8, 5_000.3, 100.1, 2.3, 40.7, 20.9),
    "singletons": (3, 120, 77.7, 1, 0.0, 61.3, 0.0, 12.1, 30.7),
    "zero-wait": (4, 120, 45.1, 4, 0.0, 90.9, 7.7, 0.0, 0.0),
    "bot-bound": (5, 150, 55.5, 6, 123.4, 33.3, 1.1, 250.5, 10.3),
}
#: case -> digest of batch sizes, query latencies and makespan.
BATCHER = {
    "saturated": "3b9bcc940056c53c1ae69408ce5c8139d76a3dbfc1d97782c6bb3408100e2999",
    "underloaded": "a2aef301a6bccaf6736e870d9bdc2390547dfe568fcd9938d991ec8ba44e9ea2",
    "singletons": "7a5b23e2cd3a9b632eacf1be9604f91dcff1dad5a438c6f07b6e63abdefa1f30",
    "zero-wait": "ec8e7c39604a6494b821fdb29a6617985936bc984ab90700f73c1ed8289c15e6",
    "bot-bound": "e5e05cb09bb570dff7498f80491a327e485120afc97e90c6d6214cda4d5fc5c9",
}


@pytest.mark.parametrize("system,key,batch", sorted(COMPARATORS))
def test_comparator_run_pinned(system, key, batch):
    model, requests = model_and_requests(key, batch)
    result = COMPARATOR_BUILDERS[system](model).run(requests, compute=False)
    assert digest(result, []) == COMPARATORS[(system, key, batch)]


@pytest.mark.parametrize("key,design,use_des,batch", sorted(RMSSD_RUNS))
def test_rmssd_backend_run_pinned(key, design, use_des, batch):
    model, requests = model_and_requests(key, batch)
    backend = RMSSDBackend(
        model, get_config(key).lookups_per_table, mlp_design=design,
        use_des=use_des,
    )
    result = backend.run(requests, compute=True)
    extra = [
        ("system", result.system),
        ("inferences", result.inferences),
        ("requests", result.requests),
        ("outputs.shape", result.outputs.shape),
        ("outputs", bytes_digest(result.outputs)),
    ]
    assert digest(result, [], extra) == RMSSD_RUNS[(key, design, use_des, batch)]


@pytest.mark.parametrize("mode,devices", sorted(CLUSTER))
def test_cluster_timing_pinned(mode, devices):
    config = get_config("rmc1")
    model = build_model(config, rows_per_table=ROWS, seed=0)
    cluster = RMSSDCluster(model, config.lookups_per_table, devices, mode)
    generator = RequestGenerator(config, ROWS, seed=5)
    fields = []
    for position, request in enumerate(generator.requests(3, batch_size=2)):
        outputs, timing = cluster.infer_batch(request.dense, request.sparse)
        fields.append((f"{position}.outputs", bytes_digest(outputs)))
        for name in (
            "nbatch", "per_device_emb_ns", "gather_ns", "bot_ns", "top_ns",
            "io_ns", "emb_ns", "mlp_ns", "interval_ns", "latency_ns",
        ):
            fields.append((f"{position}.{name}", getattr(timing, name)))
    fields.append(("throughput_qps", cluster.throughput_qps(nbatch=2, seed=1)))
    fields.append(("capacity", cluster.total_capacity_bytes))
    assert hash_fields(fields) == CLUSTER[(mode, devices)]


@pytest.mark.parametrize("fastpath", ["0", "1"])
@pytest.mark.parametrize("case", sorted(BATCHER))
def test_dynamic_batcher_pinned(case, fastpath, monkeypatch):
    """One literal per case on both serving paths."""
    monkeypatch.setenv("RMSSD_FASTPATH", fastpath)
    seed, queries, gap, max_batch, max_wait, emb, per_sample, bot, top = (
        BATCHER_CASES[case]
    )
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(gap, size=queries)).tolist()

    def stage_times(nbatch):
        return (emb + per_sample * nbatch, bot, top)

    result = DynamicBatcher(stage_times, max_batch, max_wait).run(arrivals)
    fields = [("batch_sizes", result.batch_sizes)]
    fields.append(("latencies", result.query_latencies_ns))
    fields.append(("makespan_ns", result.makespan_ns))
    assert hash_fields(fields) == BATCHER[case]
