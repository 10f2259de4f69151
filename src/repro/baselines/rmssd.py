"""RM-SSD as a backend (full system, plus the RM-SSD-Naive variant).

Wraps :class:`repro.core.device.RMSSD` behind the common backend
interface.  ``use_des=True`` runs every embedding read through the
discrete-event flash simulator (accurate queueing, slower); analytic
mode uses the closed-form Eq. 1 stage times — the two agree within the
striping-efficiency factor checked in the tests.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.baselines.base import BOT_MLP, EMB_FS, EMB_SSD, TOP_MLP
from repro.baselines.base import InferenceBackend, RunResult
from repro.core.device import MLP_DESIGN_OPTIMIZED, RMSSD, DeviceTiming
from repro.ssd.vcache import VectorCache


def _stage_totals(timings: Sequence[DeviceTiming]) -> Dict[str, float]:
    """Each stage's time summed over device batches, left to right."""
    totals: Dict[str, float] = {}
    for timing in timings:
        for key, value in (
            (EMB_SSD, timing.emb_ns),
            (BOT_MLP, timing.bot_ns),
            (TOP_MLP, timing.top_ns),
            (EMB_FS, timing.io_ns),
        ):
            totals[key] = totals.get(key, 0.0) + value
    return totals


class RMSSDBackend(InferenceBackend):
    """Full RM-SSD (or RM-SSD-Naive with ``mlp_design="naive"``)."""

    def __init__(
        self,
        model,
        lookups_per_table: int,
        mlp_design: str = MLP_DESIGN_OPTIMIZED,
        use_des: bool = True,
        fastpath: Optional[bool] = None,
        tracer=None,
        metrics=None,
        vcache: Optional[VectorCache] = None,
        profiler=None,
    ) -> None:
        super().__init__(model)
        self.name = "RM-SSD" if mlp_design == MLP_DESIGN_OPTIMIZED else "RM-SSD-Naive"
        # ``fastpath=None`` defers to RMSSD_FASTPATH; vector reads then
        # take the DES-equivalent vectorized path when channels are idle.
        # ``tracer``/``metrics``/``profiler`` flow straight to the
        # device (see repro.obs): spans on the simulated clock, latency
        # histograms, per-resource utilization.
        # ``vcache`` enables the optional controller-DRAM hot-vector
        # cache (repro.ssd.vcache); ``None`` keeps the paper's
        # cache-free lookup path.
        self.device = RMSSD(
            model,
            lookups_per_table,
            mlp_design=mlp_design,
            use_des=use_des,
            fastpath=fastpath,
            tracer=tracer,
            metrics=metrics,
            vcache=vcache,
            profiler=profiler,
        )
        self.stats = self.device.stats

    @property
    def vcache(self) -> Optional[VectorCache]:
        return self.device.vcache

    def run(self, requests, compute: bool = True) -> RunResult:
        """Serve the stream as one device workload of device-sized
        batches, pipelined: unlike the host backends, consecutive
        device batches overlap, so each beyond the first costs its
        pipeline interval, not its latency (Section IV-D's pre-send
        optimization; :meth:`RMSSD.run_workload`).
        """
        dense_parts, sparse_parts = [], []
        for request in requests:
            dense, sparse = self.device.split_batch(request.dense, request.sparse)
            dense_parts += dense
            sparse_parts += sparse
        workload = self.device.run_workload(dense_parts, sparse_parts)
        return RunResult(
            system=self.name,
            outputs=workload.outputs if compute else np.empty((0, 1)),
            total_ns=workload.total_ns,
            inferences=workload.inferences,
            requests=len(requests),
            breakdown=_stage_totals(workload.batch_timings),
            stats=self.stats,
        )
