"""RM Registers and the MMIO Manager (Section IV-A, Fig. 5).

The MMIO Manager is the inference-path front door of RM-SSD, separate
from the NVMe block path:

* **RM registers** exchange small control words (number of lookups,
  result-ready status) at MMIO latency — sub-microsecond per access;
* **DMA transfers** move bulk inputs (lookup indices, dense features)
  and outputs at PCIe bandwidth.

The paper measures the whole interface overhead at "less than tens of
microseconds (less than 1%) for each inference"; the defaults below
respect that bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Tuple

from repro.ssd.stats import IOStatistics


class DeviceStatus(Enum):
    """The result-status register the host polls before reading."""

    IDLE = 0
    BUSY = 1
    READY = 2


@dataclass
class RMRegisters:
    """The small control-register file exposed over MMIO."""

    num_lookups: int = 0
    nbatch: int = 0
    status: DeviceStatus = DeviceStatus.IDLE
    scratch: Dict[str, int] = field(default_factory=dict)

    def set_status(self, status: DeviceStatus) -> None:
        self.status = status

    def write(self, name: str, value: int) -> None:
        self.scratch[name] = value

    def read(self, name: str) -> int:
        return self.scratch[name]


@dataclass(frozen=True)
class MMIOCostModel:
    """Latency/bandwidth constants for the host<->device control path.

    * ``register_access_ns`` — one MMIO register read/write over PCIe
      (~0.7 us round trip).
    * ``dma_setup_ns`` — fixed DMA doorbell/descriptor cost.
    * ``dma_bytes_per_ns`` — PCIe gen3 x4-class effective bandwidth
      (~3.2 GB/s = 3.2 B/ns).
    """

    register_access_ns: float = 700.0
    dma_setup_ns: float = 2000.0
    dma_bytes_per_ns: float = 3.2

    def register_ns(self, accesses: int = 1) -> float:
        return accesses * self.register_access_ns

    def dma_ns(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if nbytes == 0:
            return 0.0
        return self.dma_setup_ns + nbytes / self.dma_bytes_per_ns


def pooled_return(tables, nbatch: int, costs) -> Tuple[int, float]:
    """Bytes and ns of returning ``nbatch`` samples' pooled fp32
    vectors, one per table, to the host: the transfer at ``costs``'
    PCIe bandwidth plus one DMA setup."""
    nbytes = nbatch * len(tables) * tables.dim * 4
    return nbytes, costs.pcie_transfer_ns(nbytes) + MMIOCostModel.dma_setup_ns


class MMIOManager:
    """Models the host-visible MMIO/DMA interface with accounting."""

    def __init__(
        self,
        stats: IOStatistics,
        costs: MMIOCostModel = MMIOCostModel(),
    ) -> None:
        self.stats = stats
        self.costs = costs
        self.registers = RMRegisters()

    def write_register(self, name: str, value: int) -> float:
        """Host register write; returns elapsed host time in ns."""
        self.registers.write(name, value)
        self.stats.record_host_transfer(write_bytes=8)
        return self.costs.register_ns()

    def read_register(self, name: str) -> tuple:
        """Host register read; returns ``(value, elapsed_ns)``."""
        value = self.registers.read(name)
        self.stats.record_host_transfer(read_bytes=8)
        return value, self.costs.register_ns()

    def poll_status(self) -> float:
        """One status-register poll (host checks result readiness)."""
        self.stats.record_host_transfer(read_bytes=8)
        return self.costs.register_ns()

    def dma_to_device(self, nbytes: int) -> float:
        """Bulk input transfer (indices, dense features); elapsed ns."""
        self.stats.record_host_transfer(write_bytes=nbytes)
        return self.costs.dma_ns(nbytes)

    def dma_from_device(self, nbytes: int) -> float:
        """Bulk result transfer back to the host; elapsed ns."""
        self.stats.record_host_transfer(read_bytes=nbytes)
        return self.costs.dma_ns(nbytes)
