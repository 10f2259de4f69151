"""Deployment advisor.

A practitioner's question the paper implicitly answers model by model:
*given my recommendation model, is in-storage inference worth it?*
This module packages the reproduction's machinery into that decision:
it classifies the model (embedding- vs MLP-dominated), sizes the
RM-SSD pipeline for it, estimates the DRAM-host alternative from the
calibrated cost model, checks low-end-FPGA deployability, and states a
recommendation with its reasons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.device import operating_point
from repro.fpga.decompose import PLACEMENT_DRAM
from repro.fpga.specs import XC7A200T, FPGAPart
from repro.host.costs import DEFAULT_HOST_COSTS, HostCostModel
from repro.models.configs import ModelConfig
from repro.models import build_model
from repro.ssd.geometry import SSDGeometry
from repro.ssd.timing import SSDTimingModel


@dataclass
class Advice:
    """The advisor's verdict for one model configuration."""

    model_name: str
    dominated_by: str  # "embedding" | "mlp"
    rmssd_qps: float
    dram_qps_batch1: float
    dram_qps_batched: float
    device_nbatch: int
    fits_low_end: bool
    spilled_layers: List[str]
    embedding_bytes_paper: int
    recommendation: str
    reasons: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"model: {self.model_name} ({self.dominated_by}-dominated)",
            f"RM-SSD:  {self.rmssd_qps:.0f} QPS at device batch "
            f"{self.device_nbatch}",
            f"DRAM:    {self.dram_qps_batch1:.0f} QPS at batch 1, "
            f"{self.dram_qps_batched:.0f} QPS batched",
            f"low-end FPGA ({XC7A200T.name}): "
            f"{'fits' if self.fits_low_end else 'DOES NOT FIT'}"
            + (f" (DRAM-streamed: {', '.join(self.spilled_layers)})"
               if self.spilled_layers else ""),
            f"paper-scale embedding capacity: "
            f"{self.embedding_bytes_paper / (1 << 30):.0f} GB",
            f"recommendation: {self.recommendation}",
        ]
        for reason in self.reasons:
            lines.append(f"  - {reason}")
        return "\n".join(lines)


def advise(
    config: ModelConfig,
    geometry: Optional[SSDGeometry] = None,
    ssd_timing: Optional[SSDTimingModel] = None,
    costs: HostCostModel = DEFAULT_HOST_COSTS,
    target_part: FPGAPart = XC7A200T,
    low_end_bram_budget: int = 280,
    batched_batch: int = 32,
) -> Advice:
    """Evaluate one model configuration for in-storage deployment."""
    model = build_model(config, rows_per_table=64)

    # Device side: kernel search against the low-end budget.
    search = operating_point(
        model, config.lookups_per_table, geometry, ssd_timing,
        bram_budget_tiles=low_end_bram_budget,
    )
    rmssd_qps = search.times.throughput_qps(200e6)
    fits = target_part.fits(search.resources)
    spilled = [
        l.name for l in search.model.all_layers()
        if l.placement == PLACEMENT_DRAM
    ]

    # Host-DRAM alternative from the calibrated cost model.
    bottom_macs = sum(r * c for r, c in model.fc_shapes_bottom())
    top_macs = sum(r * c for r, c in model.fc_shapes_top())
    layers = len(model.fc_shapes_bottom()) + len(model.fc_shapes_top())

    def dram_qps(batch: int) -> float:
        vectors = config.lookups_per_inference * batch
        total_ns = (
            costs.sls_op_ns(config.num_tables, vectors)
            + costs.mlp_ns(bottom_macs + top_macs, layers, batch)
            + costs.concat_ns()
        )
        return batch / (total_ns / 1e9)

    dram_1 = dram_qps(1)
    dram_b = dram_qps(batched_batch)

    dominated = "mlp" if config.is_mlp_dominated else "embedding"
    reasons: List[str] = []
    if not fits:
        recommendation = "host-side serving (engine exceeds the low-end FPGA)"
        reasons.append("the kernel-searched engine does not fit the target part")
    elif rmssd_qps >= dram_b:
        recommendation = "RM-SSD"
        reasons.append("in-storage throughput beats even batched host DRAM")
    elif rmssd_qps >= dram_1:
        recommendation = "RM-SSD for latency-bound serving; DRAM for batch"
        reasons.append(
            "RM-SSD wins at interactive batch sizes; vectorized host math "
            "overtakes at large batch"
        )
    else:
        recommendation = "host DRAM (if capacity allows)"
        reasons.append("the host outruns the device at every batch size")
    if dominated == "embedding":
        reasons.append(
            "embedding-dominated: throughput is pinned to the flash read "
            "floor, so DRAM capacity is the only reason to stay on the host"
        )
    else:
        reasons.append(
            f"MLP-dominated: Rule Three batches {search.nbatch} samples to "
            "hide the FC stages under the embedding reads"
        )
    if spilled:
        reasons.append(
            f"{len(spilled)} layer(s) stream weights from device DRAM "
            "(double-buffered; throughput-neutral while embedding-bound)"
        )

    return Advice(
        model_name=config.name,
        dominated_by=dominated,
        rmssd_qps=rmssd_qps,
        dram_qps_batch1=dram_1,
        dram_qps_batched=dram_b,
        device_nbatch=search.nbatch,
        fits_low_end=fits,
        spilled_layers=spilled,
        embedding_bytes_paper=config.paper_rows_per_table()
        * config.num_tables
        * config.ev_size,
        recommendation=recommendation,
        reasons=reasons,
    )
