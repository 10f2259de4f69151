"""Who owns the lookup engine's workspace.

The fast path writes every batch-sized array of a batch into the
engine's ``Workspace`` and overwrites it on the next fast batch.  What
a caller receives must be fresh all the same: a later batch — smaller,
larger, with or without a vector cache, on either path — cannot change
an earlier result, every result equals a fresh engine's, and the
event-driven path, ``run_reads``, ``warm_vcache`` and the sanitizer's
gathers keep out of the engine's buffers.
"""

import numpy as np
import pytest

from repro.core.lookup_engine import EmbeddingLookupEngine
from repro.embedding.layout import EmbeddingLayout
from repro.embedding.table import EmbeddingTableSet
from repro.sim import Simulator
from repro.ssd.blockdev import BlockDevice
from repro.ssd.controller import SSDController
from repro.ssd.geometry import SSDGeometry
from repro.ssd.vcache import VectorCache

NUM_TABLES = 4
ROWS = 512
DIM = 16
LOOKUPS = 24
#: Fast batches of these sample counts, a DES batch after the first.
SAMPLES = (32, 4, 32)


def build_engine(cached):
    geometry = SSDGeometry(
        channels=2, dies_per_channel=2, planes_per_die=1,
        blocks_per_plane=8, pages_per_block=64,
    )
    cache = VectorCache(NUM_TABLES * ROWS // 100, "lru") if cached else None
    device = BlockDevice(SSDController(Simulator(), geometry, vcache=cache))
    tables = EmbeddingTableSet.uniform(NUM_TABLES, ROWS, DIM, seed=5)
    layout = EmbeddingLayout(device, tables)
    layout.create_all()
    return EmbeddingLookupEngine(device.controller, layout)


def make_batches(seed):
    """Skewed rows, so a 1 % cache hits."""
    rng = np.random.default_rng(seed)
    return [
        [
            [(rng.geometric(0.05, LOOKUPS) - 1).clip(max=ROWS - 1).tolist()
             for _ in range(NUM_TABLES)]
            for _ in range(samples)
        ]
        for samples in SAMPLES
    ]


def buffer_bytes(engine):
    return {name: buffer.tobytes() for name, buffer in engine.workspace.items()}


def shares_workspace(engine, array):
    return any(np.shares_memory(array, buffer) for buffer in engine.workspace.values())


def fresh_pooled(cached, batch, fast):
    return build_engine(cached).lookup_batch(batch, fast=fast).pooled.tobytes()


@pytest.mark.parametrize("cached", [False, True], ids=["no_cache", "lru_1pct"])
def test_results_survive_later_batches_and_equal_a_fresh_engine(cached):
    engine = build_engine(cached)
    batches = make_batches(11)
    first = engine.lookup_batch(batches[0], fast=True)
    kept = first.pooled.tobytes()
    assert first.path == "fast" and not shares_workspace(engine, first.pooled)
    # The DES batch neither reads nor writes the engine's workspace.
    before = buffer_bytes(engine)
    des = engine.lookup_batch(batches[1], fast=False)
    assert des.path == "des" and buffer_bytes(engine) == before
    results = [first, des] + [
        engine.lookup_batch(batch, fast=True) for batch in batches[1:]
    ]
    assert first.pooled.tobytes() == kept
    for batch, result in zip([batches[0], batches[1]] + batches[1:], results):
        assert not shares_workspace(engine, result.pooled)
        assert result.pooled.tobytes() == fresh_pooled(cached, batch, result.path == "fast")
    if cached:
        assert sum(result.vcache_hits for result in results) > 0


def test_run_reads_keeps_out_of_the_engine_workspace():
    engine = build_engine(False)
    batches = make_batches(12)
    engine.lookup_batch(batches[0], fast=True)
    before = buffer_bytes(engine)
    flash = engine.controller.flash
    elapsed = flash.run_reads([(page, 64, 64) for page in range(40)], vector=True, fast=True)
    assert elapsed > 0 and buffer_bytes(engine) == before
    assert engine.lookup_batch(batches[2], fast=True).pooled.tobytes() == fresh_pooled(
        False, batches[2], True
    )


def test_warm_and_sanitizer_rows_are_not_workspace_views(monkeypatch):
    engine = build_engine(True)
    batches = make_batches(13)
    engine.lookup_batch(batches[0], fast=True)
    cache = engine.controller.vcache
    handed = []
    warm = cache.warm
    monkeypatch.setattr(
        cache, "warm", lambda keys, rows: handed.append(rows) or warm(keys, rows)
    )
    engine.warm_vcache([(table, row) for table in range(NUM_TABLES) for row in range(3)])
    peek_rows = engine._peek_rows
    monkeypatch.setattr(
        engine, "_peek_rows", lambda *args: handed.append(peek_rows(*args)) or handed[-1]
    )
    result = engine.lookup_batch(batches[2], fast=True)
    assert result.vcache_hits > 0
    assert len(handed) == (2 if engine.controller.flash.sanitizer is not None else 1)
    assert not any(shares_workspace(engine, rows) for rows in handed)
    assert result.pooled.tobytes() == fresh_pooled(True, batches[2], True)
