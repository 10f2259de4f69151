"""The memory a steady-state lookup batch allocates, counted, not timed.

Once the engine's workspace has grown to a batch's size, a second batch
of that size writes its batch-sized arrays into it and allocates only
what it hands back and a few fixed-size blocks.  ``tracemalloc`` counts
that exactly, so a change that brings back one batch-sized int64
temporary — ``vectors * 8`` bytes — fails this test every time, on any
machine, where a wall-clock gate would drown in noise.
"""

import tracemalloc

import numpy as np

from repro.core.lookup_engine import EmbeddingLookupEngine
from repro.embedding.layout import EmbeddingLayout
from repro.embedding.table import EmbeddingTableSet
from repro.sim import Simulator
from repro.ssd.blockdev import BlockDevice
from repro.ssd.controller import SSDController

#: RMC2's shape (Table I): 32 tables of dim 64, 120 lookups each, in a
#: 32-sample batch: 122 880 vectors.
NUM_TABLES, DIM, LOOKUPS, SAMPLES = 32, 64, 120, 32
ROWS = 1024
#: Allowed peak, in batch-sized int64 arrays: the stable sort's order
#: (one) plus the replay scan's fixed-size windows.  The same batch
#: allocated about 14 before the workspace.
PEAK_ARRAYS = 3


def test_steady_rmc2_batch_allocates_under_three_index_arrays():
    # Sanitizer checks allocate by design; this counts the program.
    device = BlockDevice(SSDController(Simulator(sanitize=False)))
    tables = EmbeddingTableSet.uniform(NUM_TABLES, ROWS, DIM, seed=5)
    layout = EmbeddingLayout(device, tables)
    layout.create_all()
    engine = EmbeddingLookupEngine(device.controller, layout)
    rng = np.random.default_rng(0)
    warm, steady = (
        [[rng.integers(0, ROWS, LOOKUPS).tolist() for _ in range(NUM_TABLES)]
         for _ in range(SAMPLES)]
        for _ in range(2)
    )
    engine.lookup_batch(warm, fast=True)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = engine.lookup_batch(steady, fast=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    vectors = SAMPLES * NUM_TABLES * LOOKUPS
    assert result.path == "fast" and result.vectors_read == vectors
    assert peak - before <= PEAK_ARRAYS * vectors * 8, (
        f"steady batch peaked at {(peak - before) / (vectors * 8):.2f} "
        f"batch-sized int64 arrays"
    )
