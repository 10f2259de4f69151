"""EMB-VectorSum: RM-SSD's Embedding Lookup Engine, host-side MLP.

The third rung (Section VI-B): vector-grained in-SSD reads and in-SSD
pooling — the full Embedding Lookup Engine — with the MLP still on the
host CPU.  This is the ablation that isolates the lookup engine's
contribution from the MLP Acceleration Engine's.
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.base import InSSDBackend
from repro.core.lookup_engine import effective_vector_bandwidth
from repro.embedding.translator import EVTranslator
from repro.workloads.inputs import InferenceRequest


class EMBVectorSumBackend(InSSDBackend):
    name = "EMB-VectorSum"

    PER_READ_CYCLES = EVTranslator.CYCLES_PER_LOOKUP

    def _read_bandwidth(self) -> float:
        """Sustained reads per engine cycle: single vectors."""
        return effective_vector_bandwidth(
            self.geometry, self.ssd_timing, self.model.tables.ev_size
        )

    def request_cost_ns(self, request: InferenceRequest) -> Dict[str, float]:
        vectors = self._vectors_in(request)
        device_ns = self.ssd_timing.cycles_to_ns(self._read_cycles(vectors))
        return_ns = self._pooled_return_ns(request.batch_size)
        return self._emb_breakdown(request.batch_size, device_ns, return_ns, 0.0)
