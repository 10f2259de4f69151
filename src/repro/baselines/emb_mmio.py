"""EMB-MMIO: page-granular fetches over MMIO, host-side sum.

The first rung of the in-storage ladder (Section VI-B): bypasses the
kernel I/O stack entirely — every required page crosses to userspace
over the MMIO/DMA window — but still moves whole pages and still sums
on the host CPU.  Device page reads pipeline across channels while the
PCIe link serializes the 4 KB transfers, so whichever is slower bounds
the embedding stage.
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.base import InSSDBackend
from repro.workloads.inputs import InferenceRequest

#: Per-page MMIO doorbell/completion handling on the host.
MMIO_PER_PAGE_NS = 500.0


class EMBMMIOBackend(InSSDBackend):
    name = "EMB-MMIO"

    def request_cost_ns(self, request: InferenceRequest) -> Dict[str, float]:
        pages = self._vectors_in(request)  # one page per lookup
        page_size = self.geometry.page_size
        device_ns = self.ssd_timing.cycles_to_ns(pages / self._reads_per_cycle)
        transfer_ns = pages * (
            self.costs.pcie_transfer_ns(page_size) + MMIO_PER_PAGE_NS
        )
        self.stats.record_host_transfer(read_bytes=pages * page_size)
        op_ns = (
            len(self.model.tables) * self.costs.framework_op_ns
            + pages * self.costs.sls_per_vector_ns
        )
        # Device reads overlap the PCIe stream; the slower one bounds
        # the stage.  Report the device part as emb-ssd and whatever
        # transfer time it cannot hide as emb-fs (interface time).
        exposed_transfer = max(0.0, transfer_ns - device_ns)
        return self._emb_breakdown(
            request.batch_size, device_ns, exposed_transfer, op_ns
        )
