"""RM-SSD core: the paper's contribution, end to end.

Combines the Embedding Lookup Engine (Section IV-B), the MLP
Acceleration Engine (Section IV-C), the MMIO/RM-register interface
(Section IV-A) and the host software integration (Section IV-D) into a
single simulated device with both numeric and timing fidelity.
"""

from repro.core.device import DeviceTiming, RMSSD, operating_point
from repro.core.interfaces import RMRuntime
from repro.core.lookup_engine import (
    EmbeddingLookupEngine,
    effective_vector_bandwidth,
    flash_read_cycles,
)
from repro.core.mlp_engine import MLPAccelerationEngine
from repro.core.page_lookup import PageLookupEngine
from repro.core.pipeline_sim import PipelineSimulator
from repro.core.registers import MMIOManager, RMRegisters

__all__ = [
    "DeviceTiming",
    "EmbeddingLookupEngine",
    "MLPAccelerationEngine",
    "MMIOManager",
    "PageLookupEngine",
    "PipelineSimulator",
    "RMRegisters",
    "RMRuntime",
    "RMSSD",
    "effective_vector_bandwidth",
    "flash_read_cycles",
    "operating_point",
]
