"""Every number the cache-driven baselines report, pinned.

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
"""

import dataclasses
import hashlib

import pytest

from repro.baselines import NaiveSSDBackend, RecSSDBackend
from repro.host.costs import DEFAULT_HOST_COSTS
from repro.models import build_model, get_config
from repro.workloads.inputs import RequestGenerator
from repro.workloads.locality import hit_ratio_for_k, measured_cache_hit_ratio
from repro.workloads.tracegen import TraceGenerator

ROWS = 4096
REQUESTS = 4


def digest(result, caches) -> str:
    """sha256 over ``name=repr(value)`` of the run and its caches."""
    fields = [(key, value) for key, value in sorted(result.breakdown.items())]
    fields.append(("total_ns", result.total_ns))
    fields.extend(sorted(result.stats.as_dict().items()))
    for name, cache in caches:
        for counter in ("hits", "misses", "evictions"):
            fields.append((f"{name}.{counter}", getattr(cache, counter)))
    hasher = hashlib.sha256()
    for name, value in fields:
        hasher.update(f"{name}={value!r};".encode())
    return hasher.hexdigest()


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
