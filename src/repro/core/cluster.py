"""Multi-device scale-out (extension).

The paper cites capacity-driven scale-out (Lui et al.) and
FPGA-cluster serving (FleetRec) as the context its single-device
design lives in.  This extension shards one recommendation model
across several RM-SSDs:

* **table sharding** — each device stores a subset of the embedding
  tables and runs its lookups locally; pooled vectors gather at an
  aggregator device that runs the MLP engine.  Embedding time divides
  across devices; the MLP stage and the gather hop set the floor.
* **replication** — every device holds the full model; requests
  load-balance round-robin, so throughput scales linearly at the cost
  of N copies of the capacity.

Numerics remain exact in both modes (same fp32 sums, same MLP).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.device import RMSSD
from repro.core.lookup_engine import EmbeddingLookupEngine
from repro.core.mlp_engine import forward_from_pooled
from repro.core.registers import MMIOCostModel, pooled_return
from repro.embedding.layout import EmbeddingLayout
from repro.embedding.table import EmbeddingTableSet
from repro.host.costs import DEFAULT_HOST_COSTS
from repro.sim import Simulator
from repro.ssd.blockdev import BlockDevice
from repro.ssd.controller import SSDController
from repro.ssd.vcache import _at_least

MODE_TABLE_SHARD = "tables"
MODE_REPLICA = "replicas"


@dataclass
class ClusterTiming:
    """Timing of one batch across the cluster.

    Throughput and latency read different compositions of the stage
    times: the steady-state *interval* is bounded by the slowest
    pipeline stage (``max``), while the per-batch *latency* is the
    serial critical path — the bottom MLP overlaps the embedding
    lookups (and the gather hop), the top MLP runs after both.
    """

    nbatch: int
    per_device_emb_ns: List[float]
    gather_ns: float
    bot_ns: float
    top_ns: float
    io_ns: float

    @property
    def emb_ns(self) -> float:
        return max(self.per_device_emb_ns) if self.per_device_emb_ns else 0.0

    @property
    def mlp_ns(self) -> float:
        """The MLP engine's pipeline-interval term: its two stages are
        themselves pipelined, so the slower one bounds throughput."""
        return max(self.bot_ns, self.top_ns)

    @property
    def interval_ns(self) -> float:
        return max(self.emb_ns + self.gather_ns, self.mlp_ns, self.io_ns, 1.0)

    @property
    def latency_ns(self) -> float:
        """Serial per-batch latency: the bottom MLP overlaps the
        embedding+gather phase; the top MLP and the I/O edges do not."""
        return (
            max(self.emb_ns + self.gather_ns, self.bot_ns)
            + self.top_ns
            + self.io_ns
        )


class _TableShard:
    """One device of a table-sharded cluster: a lookup engine over a
    subset of the model's tables."""

    def __init__(
        self, table_ids: Sequence[int], tables: EmbeddingTableSet, pooling: str
    ) -> None:
        self.table_ids = list(table_ids)
        subset = EmbeddingTableSet([tables[i] for i in self.table_ids])
        self.controller = SSDController(Simulator())
        device = BlockDevice(self.controller)
        layout = EmbeddingLayout(device, subset)
        layout.create_all()
        self.engine = EmbeddingLookupEngine(self.controller, layout, pooling=pooling)

    def lookup(self, sparse_batch):
        """Pooled vectors for this shard's tables, plus elapsed ns."""
        local = [
            [sample[table_id] for table_id in self.table_ids]
            for sample in sparse_batch
        ]
        return self.engine.lookup_batch(local)


class RMSSDCluster:
    """A recommendation model served by several RM-SSDs."""

    def __init__(
        self,
        model,
        lookups_per_table: int,
        num_devices: int = 2,
        mode: str = MODE_TABLE_SHARD,
    ) -> None:
        _at_least("num_devices", num_devices, 1)
        if mode not in (MODE_TABLE_SHARD, MODE_REPLICA):
            raise ValueError(f"unknown sharding mode {mode!r}")
        if mode == MODE_TABLE_SHARD and num_devices > len(model.tables):
            raise ValueError(
                f"{num_devices} devices for {len(model.tables)} tables"
            )
        self.model = model
        self.mode = mode
        self.num_devices = num_devices
        pooling = getattr(model, "pooling", "sum")

        # The aggregator runs the MLP engine (and, for replication,
        # everything): reuse the single-device assembly for its
        # kernel-searched stage times.
        self.aggregator = RMSSD(model, lookups_per_table, use_des=True)
        self.shards: List[_TableShard] = []
        if mode == MODE_TABLE_SHARD and num_devices > 1:
            assignment = [[] for _ in range(num_devices)]
            for table_id in range(len(model.tables)):
                assignment[table_id % num_devices].append(table_id)
            self.shards = [
                _TableShard(ids, model.tables, pooling)
                for ids in assignment
            ]

    # ------------------------------------------------------------------
    @property
    def total_capacity_bytes(self) -> int:
        """Embedding bytes stored across the cluster."""
        per_model = self.model.tables.total_bytes
        return per_model * (self.num_devices if self.mode == MODE_REPLICA else 1)

    # ------------------------------------------------------------------
    def infer_batch(
        self,
        dense_batch: Optional[np.ndarray],
        sparse_batch,
    ) -> Tuple[np.ndarray, ClusterTiming]:
        nbatch = len(sparse_batch)
        if nbatch < 1:
            raise ValueError("empty batch")

        if self.mode == MODE_REPLICA or self.num_devices == 1:
            outputs, timing = self.aggregator.infer_batch(dense_batch, sparse_batch)
            # Replication: N devices serve independent request streams;
            # per-batch timing is the single-device timing, and the
            # cluster's throughput multiplies by N (see throughput_qps).
            cluster_timing = ClusterTiming(
                nbatch=nbatch,
                per_device_emb_ns=[timing.emb_ns],
                gather_ns=0.0,
                bot_ns=timing.bot_ns,
                top_ns=timing.top_ns,
                io_ns=timing.io_ns,
            )
            return outputs, cluster_timing

        # Table sharding: per-shard lookups, gather, aggregate MLP.
        per_device_ns: List[float] = []
        pooled_parts = {}
        for shard in self.shards:
            result = shard.lookup(sparse_batch)
            per_device_ns.append(result.elapsed_ns)
            for position, table_id in enumerate(shard.table_ids):
                dim = self.model.tables.dim
                pooled_parts[table_id] = result.pooled[
                    :, position * dim : (position + 1) * dim
                ]
        pooled = np.concatenate(
            [pooled_parts[t] for t in range(len(self.model.tables))], axis=1
        )
        outputs = np.stack(
            [
                forward_from_pooled(
                    self.model,
                    None if dense_batch is None else dense_batch[i],
                    pooled[i],
                )
                for i in range(nbatch)
            ]
        )
        stages = self.aggregator.mlp_engine.stage_times_for(nbatch)
        settings = self.aggregator.settings
        # The shards' pooled vectors reach the aggregator as a pooled
        # return would reach the host.
        _, gather_ns = pooled_return(self.model.tables, nbatch, DEFAULT_HOST_COSTS)
        timing = ClusterTiming(
            nbatch=nbatch,
            per_device_emb_ns=per_device_ns,
            gather_ns=gather_ns,
            bot_ns=settings.cycles_to_ns(stages.tbot),
            top_ns=settings.cycles_to_ns(stages.ttop),
            io_ns=2 * MMIOCostModel.dma_setup_ns,
        )
        return outputs, timing

    def throughput_qps(self, nbatch: int = 1, seed: int = 0) -> float:
        """Steady-state cluster QPS for random requests of ``nbatch``."""
        rng = np.random.default_rng(seed)
        lookups = self.aggregator.lookups_per_table
        # Draw each table's indices against its *own* row count:
        # production models mix tiny and enormous tables, and indices
        # drawn from tables[0] would be out of range (or biased) there.
        sparse = [
            [
                list(rng.integers(0, table.rows, size=lookups))
                for table in self.model.tables
            ]
            for _ in range(nbatch)
        ]
        dense_dim = getattr(self.model, "dense_dim", 0)
        dense = (
            rng.standard_normal((nbatch, dense_dim)).astype(np.float32)
            if dense_dim
            else None
        )
        _, timing = self.infer_batch(dense, sparse)
        base = nbatch / (timing.interval_ns / 1e9)
        if self.mode == MODE_REPLICA:
            return base * self.num_devices
        return base
