"""EMB-PageSum: page-granular in-SSD reads with in-SSD pooling.

The second rung (Section VI-B): pages never leave the device — the
pooling happens next to the flash and only the pooled vectors return —
but the flash channels still move whole pages, so channel-bus occupancy
stays 32x higher than the vector-grained path at 128 B vectors.
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.base import InSSDBackend
from repro.host.costs import DEFAULT_HOST_COSTS, HostCostModel
from repro.workloads.inputs import InferenceRequest


class EMBPageSumBackend(InSSDBackend):
    name = "EMB-PageSum"

    #: Per-page EV-path handling in the controller (translate, path
    #: buffer, DEMUX).
    PER_READ_CYCLES = 100

    def __init__(
        self,
        model,
        costs: HostCostModel = DEFAULT_HOST_COSTS,
        use_des: bool = False,
    ) -> None:
        super().__init__(model, costs)
        self._des_engine = None
        if use_des:
            # Execute the page reads on the discrete-event simulator
            # over a real on-flash layout (honest queueing; slower).
            from repro.core.page_lookup import PageLookupEngine
            from repro.embedding.layout import EmbeddingLayout
            from repro.sim import Simulator
            from repro.ssd.blockdev import BlockDevice
            from repro.ssd.controller import SSDController

            controller = SSDController(Simulator(), self.geometry, self.ssd_timing)
            layout = EmbeddingLayout(BlockDevice(controller), model.tables)
            layout.create_all()
            self._des_engine = PageLookupEngine(controller, layout)

    def request_cost_ns(self, request: InferenceRequest) -> Dict[str, float]:
        if self._des_engine is not None:
            _, device_ns, _ = self._des_engine.lookup_batch(request.sparse)
        else:
            pages = self._vectors_in(request)
            device_ns = self.ssd_timing.cycles_to_ns(self._read_cycles(pages))
        return_ns = self._pooled_return_ns(request.batch_size)
        return self._emb_breakdown(request.batch_size, device_ns, return_ns, 0.0)
