"""Common backend interface and result type."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.lookup_engine import effective_page_bandwidth, flatten_batch
from repro.core.registers import pooled_return
from repro.host.costs import DEFAULT_HOST_COSTS, HostCostModel
from repro.sim.workspace import Workspace
from repro.ssd.geometry import SSDGeometry
from repro.ssd.stats import IOStatistics
from repro.ssd.timing import SSDTimingModel
from repro.workloads.inputs import InferenceRequest

# Breakdown keys, matching Fig. 2's legend.
EMB_SSD = "emb-ssd"  # time inside the device
EMB_FS = "emb-fs"  # kernel I/O stack / interface transfers
EMB_OP = "emb-op"  # userspace SLS / pooling
BOT_MLP = "bot-mlp"
TOP_MLP = "top-mlp"
CONCAT = "concat"
OTHERS = "others"

ALL_COMPONENTS = (EMB_SSD, EMB_FS, EMB_OP, BOT_MLP, TOP_MLP, CONCAT, OTHERS)


@dataclass
class RunResult:
    """Outcome of running a request stream on one backend."""

    system: str
    outputs: np.ndarray
    total_ns: float
    inferences: int  # total samples across all requests
    requests: int
    breakdown: Dict[str, float] = field(default_factory=dict)
    stats: IOStatistics = field(default_factory=IOStatistics)

    @property
    def total_s(self) -> float:
        return self.total_ns / 1e9

    @property
    def qps(self) -> float:
        """Samples per second."""
        return self.inferences / self.total_s if self.total_ns else float("inf")

    @property
    def latency_per_request_ns(self) -> float:
        return self.total_ns / self.requests if self.requests else 0.0

    @property
    def embedding_ns(self) -> float:
        return sum(self.breakdown.get(k, 0.0) for k in (EMB_SSD, EMB_FS, EMB_OP))

    @property
    def mlp_ns(self) -> float:
        return sum(self.breakdown.get(k, 0.0) for k in (BOT_MLP, TOP_MLP, CONCAT))

    def breakdown_fractions(self) -> Dict[str, float]:
        total = sum(self.breakdown.values())
        if total == 0:
            return {k: 0.0 for k in self.breakdown}
        return {k: v / total for k, v in self.breakdown.items()}


class InferenceBackend:
    """A system that can serve recommendation inference end to end."""

    name: str = "backend"

    def __init__(self, model, costs: HostCostModel = DEFAULT_HOST_COSTS) -> None:
        self.model = model
        self.costs = costs
        self.stats = IOStatistics()

    # ------------------------------------------------------------------
    # Shared numeric + cost helpers
    # ------------------------------------------------------------------
    def compute_outputs(self, request: InferenceRequest) -> np.ndarray:
        """Reference numeric forward pass (identical across backends)."""
        return self.model.forward(request.dense, request.sparse)

    def _mlp_breakdown_ns(self, batch: int) -> Dict[str, float]:
        """Host MLP cost split into bottom / top / concat components."""
        bottom_shapes = self.model.fc_shapes_bottom()
        top_shapes = self.model.fc_shapes_top()
        bottom_macs = sum(r * c for r, c in bottom_shapes)
        top_macs = sum(r * c for r, c in top_shapes)
        out: Dict[str, float] = {}
        if bottom_shapes:
            out[BOT_MLP] = self.costs.mlp_ns(bottom_macs, len(bottom_shapes), batch)
        out[TOP_MLP] = self.costs.mlp_ns(top_macs, len(top_shapes), batch)
        out[CONCAT] = self.costs.concat_ns()
        return out

    def _emb_breakdown(
        self, batch: int, ssd_ns: float, fs_ns: float, op_ns: float
    ) -> Dict[str, float]:
        """Fig. 2's embedding split, then the host MLP's: :meth:`run`
        sums the components in this insertion order."""
        breakdown = {EMB_SSD: ssd_ns, EMB_FS: fs_ns, EMB_OP: op_ns}
        breakdown.update(self._mlp_breakdown_ns(batch))
        return breakdown

    def _vectors_in(self, request: InferenceRequest) -> int:
        return sum(
            len(lookups) for sample in request.sparse for lookups in sample
        )

    def _lookups(self, request: InferenceRequest) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(tables, rows)`` of every lookup of ``request``, in
        issue order: sample by sample, table by table."""
        rows = np.array([table.rows for table in self.model.tables])
        return flatten_batch(request.sparse, rows, Workspace())[1:]

    # ------------------------------------------------------------------
    # The backend contract
    # ------------------------------------------------------------------
    def request_cost_ns(self, request: InferenceRequest) -> Dict[str, float]:
        """Time breakdown (ns) for serving one batched request.  A
        backend whose requests overlap states its cost in :meth:`run`
        instead."""
        raise NotImplementedError(
            f"{type(self).__name__} has no per-request cost; use run()"
        )

    def run(
        self, requests: Sequence[InferenceRequest], compute: bool = True
    ) -> RunResult:
        """Serve a request stream; ``compute=False`` skips numerics
        (timing-only sweeps)."""
        total_breakdown: Dict[str, float] = {}
        outputs: List[np.ndarray] = []
        inferences = 0
        for request in requests:
            breakdown = self.request_cost_ns(request)
            for key, value in breakdown.items():
                total_breakdown[key] = total_breakdown.get(key, 0.0) + value
            if compute:
                outputs.append(self.compute_outputs(request))
            inferences += request.batch_size
            self.stats.record_useful(self._vectors_in(request) * self.model.tables.ev_size)
        return RunResult(
            system=self.name,
            outputs=np.concatenate(outputs) if outputs else np.empty((0, 1)),
            total_ns=sum(total_breakdown.values()),
            inferences=inferences,
            requests=len(requests),
            breakdown=total_breakdown,
            stats=self.stats,
        )


class InSSDBackend(InferenceBackend):
    """A rung of Section VI-B's in-storage ladder: embedding reads run
    inside the default SSD, the MLP on the host.

    The rungs differ only in what they bypass, so what they share is
    stated here once: the geometry, its timing model and the sustained
    read bandwidth; the in-SSD read cost; and the return of the pooled
    vectors to the host.
    """

    #: Controller cycles each read spends on the EV path, spread over
    #: the channels.
    PER_READ_CYCLES = 0

    def __init__(self, model, costs: HostCostModel = DEFAULT_HOST_COSTS) -> None:
        super().__init__(model, costs)
        self.geometry = SSDGeometry()
        self.ssd_timing = SSDTimingModel()
        self._reads_per_cycle = self._read_bandwidth()

    def _read_bandwidth(self) -> float:
        """Sustained reads per engine cycle: whole pages."""
        return effective_page_bandwidth(self.geometry, self.ssd_timing)

    def _read_cycles(self, reads: int) -> float:
        """Device cycles of ``reads`` in-SSD reads: the bandwidth term
        plus each read's EV-path handling, spread over the channels."""
        spread = self.PER_READ_CYCLES * reads / max(1, self.geometry.channels)
        return reads / self._reads_per_cycle + spread

    def _pooled_return_ns(self, batch: int) -> float:
        """Return ``batch`` samples' pooled vectors to the host."""
        nbytes, return_ns = pooled_return(self.model.tables, batch, self.costs)
        self.stats.record_host_transfer(read_bytes=nbytes)
        return return_ns
