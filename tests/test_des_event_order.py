"""The event-driven kernel's step order, pinned.

Every simulated bit the DES produces follows from one sequence: which
process resumes, at which instant, in which order (a ``Resource``
grant is visible as the resume of the process it wakes).  The recorder
below wraps every generator handed to :meth:`Simulator.process` (the
only place processes start) and logs ``(now.hex(), process ordinal)``
on each resume; a scenario's digest is the sha256 of that log.

The literals were recorded from the kernel as it stood before its
allocation work (bootstrap ``Timeout`` per process, four generator
frames per read).  What may change underneath them: heap sequence
numbers, allocations, generator frames.  What may not: the step order
itself, which any reordering of schedules, grants or completions
changes.  Each scenario is also run with and without the sanitizer,
which must not move a single step.

The ``smoke``-named tests are run by ``tools/check.sh`` under
``RMSSD_SANITIZE=1``.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.core.device import RMSSD
from repro.core.pipeline_sim import PipelineSimulator
from repro.models import build_model, get_config
from repro.obs import Profiler
from repro.sim import Simulator
from repro.sim.sanitizer import ENV_FLAG
from repro.ssd.flash import FlashArray
from repro.ssd.geometry import SSDGeometry
from repro.ssd.vcache import VectorCache

ROWS = 128
LOOKUPS = 6
SAMPLES = 3


def _recorded(sim, generator, ordinal, log):
    """``generator`` unchanged, logging each resume before it runs."""
    value = None
    while True:
        log.append(f"{float(sim.now).hex()} {ordinal}")
        try:
            target = generator.send(value)
        except StopIteration as stop:
            return stop.value
        value = yield target


def step_log(scenario, monkeypatch, sanitize):
    """``(steps, sha256)`` of ``scenario()``'s resume log."""
    log = []
    ordinals = itertools.count()
    start = Simulator.process

    def process(sim, generator):
        return start(sim, _recorded(sim, generator, next(ordinals), log))

    with monkeypatch.context() as patch:
        patch.setenv(ENV_FLAG, "1" if sanitize else "0")
        patch.setattr(Simulator, "process", process)
        scenario()
    return len(log), hashlib.sha256("\n".join(log).encode()).hexdigest()


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def make_device(key, vcache=False, **kwargs):
    config = get_config(key)
    model = build_model(config, rows_per_table=ROWS, seed=3)
    cache = None
    if vcache:
        # 1 % of the rows, LRU; the batches below are skewed enough to hit.
        cache = VectorCache(max(1, ROWS * config.num_tables // 100))
    return RMSSD(model, LOOKUPS, vcache=cache, **kwargs), config


def skewed_batch(config, rng):
    """Half the lookups on eight hot rows, half uniform."""
    return [
        [
            [
                int(rng.integers(0, 8) if rng.random() < 0.5 else rng.integers(0, ROWS))
                for _ in range(LOOKUPS)
            ]
            for _ in range(config.num_tables)
        ]
        for _ in range(SAMPLES)
    ]


def lookups(key, vcache):
    def scenario():
        device, config = make_device(key, vcache)
        rng = np.random.default_rng(11)
        for _ in range(2):
            device.lookup_engine.lookup_batch(skewed_batch(config, rng), fast=False)
        if vcache:
            assert device.vcache.hits > 0

    return scenario


def background_block_reads():
    device, config = make_device("rmc1")
    rng = np.random.default_rng(12)
    device.start_background_block_reads([0, 1, 2, 5, 9, 1])
    device.lookup_engine.lookup_batch(skewed_batch(config, rng), fast=False)
    device.start_background_block_reads([3, 3, 4])
    device.lookup_engine.lookup_batch(skewed_batch(config, rng), fast=False)


def flash_pages_and_writes():
    geometry = SSDGeometry(
        channels=2, dies_per_channel=3, planes_per_die=1,
        blocks_per_plane=4, pages_per_block=8,
    )
    sim = Simulator()
    flash = FlashArray(sim, geometry)
    rng = np.random.default_rng(13)
    for page in (0, 7, 12, 13, 30):
        sim.process(flash.write_page_proc(page, rng.bytes(64)))
    pages = [int(page) for page in rng.integers(0, 40, size=24)]
    flash.run_reads(pages, vector=False, fast=False)
    for page in (1, 2, 8):
        sim.process(flash.write_page_proc(page, b"late"))
    flash.run_reads(
        [(page, 128 * (page % 4), 128) for page in pages[:12]],
        vector=True, fast=False,
    )


def jittered_pipeline():
    rng = np.random.default_rng(14)
    arrivals = np.add.accumulate(rng.exponential(180.0, size=120)).tolist()
    PipelineSimulator(
        lambda i: 100.0 + (i % 7) * 13.0,
        lambda i: (i % 3) * 40.0,
        lambda i: 20.0 + (i % 5),
    ).run(len(arrivals), arrival_times_ns=arrivals, fast=False)


def profiled_inference():
    device, config = make_device("rmc3", profiler=Profiler(), fastpath=False)
    rng = np.random.default_rng(15)
    dense = rng.standard_normal((SAMPLES, config.dense_dim)).astype(np.float32)
    device.start_background_block_reads([4, 6])
    device.infer_batch(dense, skewed_batch(config, rng))
    device.infer_batch(dense, skewed_batch(config, rng))
    assert len(device.profiler.as_dict()["resources"]) > 0


SCENARIOS = {
    "rmc1": lookups("rmc1", vcache=False),
    "rmc1_vcache": lookups("rmc1", vcache=True),
    "rmc2": lookups("rmc2", vcache=False),
    "rmc2_vcache": lookups("rmc2", vcache=True),
    "rmc3": lookups("rmc3", vcache=False),
    "rmc3_vcache": lookups("rmc3", vcache=True),
    "background_block_reads": background_block_reads,
    "flash_pages_and_writes": flash_pages_and_writes,
    "jittered_pipeline": jittered_pipeline,
    "profiled_inference": profiled_inference,
}

#: ``(steps, sha256)`` per scenario, recorded before the kernel's
#: allocation work.
PINNED = {
    "rmc1": (
        1732, "11f72e2861cfff61de9898c66e6a1e767d01d3dfb1f3d85eda63b8bc6e6fc4d8"
    ),
    "rmc1_vcache": (
        1552, "ba84e6c7e08770155c60ebf8a9a3b0bf97664de674cba6fce0d39945ea073fe2"
    ),
    "rmc2": (
        6916, "101d1be50568bb25a86a3faa28e7f012d2b2053aa7e69455fb8aa280050eede1"
    ),
    "rmc2_vcache": (
        6262, "dea57c733543cf464f728cd6286e2af6d6955a99255f55f99f46fb2beeb7d73d"
    ),
    "rmc3": (
        2164, "0d416307ceaef539bb5b43f13b5263e5804ed8e68907db6e841adb18b1f69a42"
    ),
    "rmc3_vcache": (
        1954, "00b38fb005d64dc8236ee9f82e1c0118ecfced6d1f146a9dcf2e80ec80375318"
    ),
    "background_block_reads": (
        1786, "459f706ad4326c0a31c978060a2f16065f4f29c26e24860e896022b68206d4fc"
    ),
    "flash_pages_and_writes": (
        220, "991174142ab60c01f87b90ecc8e44790b57384c872533f9b9c0749cef0adbfcd"
    ),
    "jittered_pipeline": (
        920, "ab24bedd6313fda05a05215d4a0e61ebfc94a5212d8a9c194688b79c811114d4"
    ),
    "profiled_inference": (
        2176, "3569c15001250e0bd2753512ecfc175ec86be00d12f0c5b56b1e8399e38ac885"
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_smoke_event_order_pinned(name, monkeypatch):
    sanitized = step_log(SCENARIOS[name], monkeypatch, sanitize=True)
    plain = step_log(SCENARIOS[name], monkeypatch, sanitize=False)
    assert sanitized == plain
    assert sanitized == PINNED[name]


def test_smoke_sanitizer_bookkeeping_pinned():
    """The sanitizer's check count and the final clock of one sanitized
    DES batch with block reads in flight: a step the kernel skipped or
    added (a lost schedule check, a grant that bypassed the queue)
    moves one of them even where the step order survives."""
    device, config = make_device("rmc1", sanitize=True)
    device.start_background_block_reads([0, 1, 2, 5])
    device.lookup_engine.lookup_batch(
        skewed_batch(config, np.random.default_rng(16)), fast=False
    )
    assert (device.sim.sanitizer.checks, device.sim.now.hex()) == (
        2851, "0x1.64fbd00000000p+19"
    )
