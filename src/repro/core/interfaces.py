"""Host-side runtime library (Section IV-D).

The paper ships a C++/Cython runtime with four calls; this module is
its Python equivalent over the simulated device:

* ``RM_create_table(TableSize)`` — allocate a table file through the
  block-I/O path (permission-checked, persisted).
* ``RM_open_table(TableID, TablePath)`` — a one-time open that ships
  the file's extent list to the device and returns an fd used as the
  authentication token for later calls.
* ``RM_send_inputs(fd, IndicesPerLookup, SparseIn, DenseIn)`` — push
  one small batch of inference inputs (registers via MMIO, bulk via
  DMA).
* ``RM_read_outputs()`` — poll the status register, then DMA results.

The runtime also implements the system-level throughput optimization:
large host batches are partitioned into device-sized small batches and
the next batch's inputs are pre-sent while the device computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.device import RMSSD, WorkloadResult


class RMPermissionError(PermissionError):
    """Raised when a caller lacks access to a table (Section IV-D)."""


@dataclass
class _OpenTable:
    fd: int
    table_id: int
    owner: str


class RMRuntime:
    """User-space library over one RM-SSD device."""

    def __init__(self, device: RMSSD, user: str = "svc-recsys") -> None:
        self.device = device
        self.user = user
        self._owners: Dict[int, str] = {}
        self._open: Dict[int, _OpenTable] = {}
        self._next_fd = 3  # after stdin/stdout/stderr, like a real fd

    # ------------------------------------------------------------------
    # Table lifecycle
    # ------------------------------------------------------------------
    def rm_create_table(self, table_id: int, owner: Optional[str] = None) -> None:
        """Record ownership of a (already laid-out) table.

        The data write itself went through the normal block path when
        the device laid out the model; creation here persists the
        owner/permission metadata the open path checks.
        """
        if table_id in self._owners:
            raise ValueError(f"table {table_id} already created")
        if table_id not in self.device.layout.layouts:
            raise KeyError(f"table {table_id} does not exist on the device")
        self._owners[table_id] = owner or self.user

    def rm_open_table(self, table_id: int, user: Optional[str] = None) -> int:
        """Authorize and register extent metadata; returns an fd."""
        user = user or self.user
        owner = self._owners.get(table_id)
        if owner is None:
            raise FileNotFoundError(f"table {table_id} was never created")
        if owner != user:
            raise RMPermissionError(
                f"user {user!r} may not open table {table_id} owned by {owner!r}"
            )
        # Ship the extent list over MMIO (already staged in the
        # translator at layout time; account for the transfer).
        ranges = self.device.layout.layout_for(table_id).extent_ranges
        self.device.mmio.dma_to_device(len(ranges) * 24)  # id + range + LBA
        fd = self._next_fd
        self._next_fd += 1
        self._open[fd] = _OpenTable(fd=fd, table_id=table_id, owner=user)
        return fd

    def _check_fds(self, fds: Sequence[int]) -> None:
        for fd in fds:
            if fd not in self._open:
                raise RMPermissionError(f"invalid fd {fd}")

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def rm_infer(
        self,
        fds: Sequence[int],
        dense_batch: Optional[np.ndarray],
        sparse_batch: Sequence[Sequence[Sequence[int]]],
        pipelined: bool = True,
    ) -> Tuple[np.ndarray, WorkloadResult]:
        """Full send-inputs / read-outputs cycle for a host batch.

        Host batches larger than the device's supported ``Nbatch`` are
        partitioned into small batches; with ``pipelined`` the next
        small batch's inputs are pre-sent during device processing.
        """
        self._check_fds(fds)
        dense_parts, sparse_parts = self.device.split_batch(dense_batch, sparse_batch)
        result = self.device.run_workload(dense_parts, sparse_parts, pipelined)
        return result.outputs, result

    # Aliases matching the paper's interface names.
    RM_create_table = rm_create_table
    RM_open_table = rm_open_table
