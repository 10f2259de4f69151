"""SSD-S / SSD-M: the naive SSD deployment (Section III-B).

Embedding tables live in files on a commercial NVMe SSD; the customized
C++ SLS operator lseek/reads every vector through the file system, with
the OS page cache capped at a fraction of the tables' size (1/4 for
SSD-S, 1/2 for SSD-M).  Every cache miss drags in whole pages —
readahead included — which produces Fig. 3's ~26x read amplification.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from repro.baselines.base import InferenceBackend
from repro.host.costs import DEFAULT_HOST_COSTS, HostCostModel
from repro.ssd.vcache import VectorCache, encode
from repro.workloads.inputs import InferenceRequest

PAGE_SIZE = 4096


def _fold(steps: np.ndarray) -> float:
    """``0.0 + steps[0] + steps[1] + ...``, strictly left to right."""
    return float(np.add.accumulate(np.append(0.0, steps))[-1])


class NaiveSSDBackend(InferenceBackend):
    """fileIO-based embedding lookups with a capped page cache."""

    def __init__(
        self,
        model,
        dram_fraction: float = 0.25,
        costs: HostCostModel = DEFAULT_HOST_COSTS,
        name: str = None,
    ) -> None:
        if not (math.isfinite(dram_fraction) and dram_fraction > 0):
            raise ValueError(
                f"dram_fraction must be finite and positive, got {dram_fraction!r}"
            )
        super().__init__(model, costs)
        self.dram_fraction = dram_fraction
        self.name = name or ("SSD-S" if dram_fraction <= 0.26 else "SSD-M")
        self._slots_per_page = PAGE_SIZE // model.tables.ev_size
        # An LRU over the 4 KB pages of the tables; a capacity past the
        # pages the tables span would behave the same, so it is capped.
        pages = sum(-(-table.rows // self._slots_per_page) for table in model.tables)
        capacity_bytes = int(dram_fraction * model.tables.total_bytes)
        self.page_cache = VectorCache(min(capacity_bytes // PAGE_SIZE, pages))

    def request_cost_ns(self, request: InferenceRequest) -> Dict[str, float]:
        costs = self.costs
        tables, rows = self._lookups(request)
        hit = self.page_cache.hit_mask(encode(tables, rows // self._slots_per_page))
        hits = int(np.count_nonzero(hit))
        misses = hit.size - hits
        self.stats.cache_hits += hits
        self.stats.cache_misses += misses
        self.stats.record_host_transfer(
            read_bytes=misses * costs.readahead_pages * PAGE_SIZE
        )
        # Each lookup pays a syscall, then its page-cache hit or miss.
        pressure = costs.memory_pressure_factor(self.dram_fraction)
        fs_steps = np.empty(2 * hit.size)
        fs_steps[0::2] = costs.syscall_ns
        fs_steps[1::2] = np.where(
            hit,
            costs.pagecache_hit_ns * pressure,
            costs.pagecache_miss_stack_ns * pressure,
        )
        ssd_ns = _fold(
            np.full(misses, costs.readahead_pages * costs.device_page_read_ns)
        )
        op_ns = _fold(np.full(hit.size, costs.sls_per_vector_ns))
        op_ns += len(self.model.tables) * costs.framework_op_ns
        return self._emb_breakdown(request.batch_size, ssd_ns, _fold(fs_steps), op_ns)
