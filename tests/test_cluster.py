"""Tests for the multi-device scale-out extension."""

import numpy as np
import pytest

from repro.core.cluster import (
    MODE_REPLICA,
    MODE_TABLE_SHARD,
    ClusterTiming,
    RMSSDCluster,
)
from repro.embedding.table import EmbeddingTable, EmbeddingTableSet
from repro.models import build_model, get_config
from repro.models.dlrm import DLRM
from repro.models.mlp import MLP

ROWS = 64


def build(key="rmc1", devices=2, mode=MODE_TABLE_SHARD):
    config = get_config(key)
    model = build_model(config, rows_per_table=ROWS, seed=3)
    cluster = RMSSDCluster(
        model, lookups_per_table=4, num_devices=devices, mode=mode
    )
    return config, model, cluster


def random_batch(config, batch=2, lookups=4, seed=0):
    rng = np.random.default_rng(seed)
    sparse = [
        [list(rng.integers(0, ROWS, size=lookups)) for _ in range(config.num_tables)]
        for _ in range(batch)
    ]
    dense = rng.standard_normal((batch, config.dense_dim)).astype(np.float32)
    return dense, sparse


class TestNumerics:
    def test_table_shard_outputs_match_reference(self):
        config, model, cluster = build(devices=4)
        dense, sparse = random_batch(config)
        outputs, _ = cluster.infer_batch(dense, sparse)
        np.testing.assert_allclose(
            outputs, model.forward(dense, sparse), rtol=1e-5, atol=1e-6
        )

    def test_replica_outputs_match_reference(self):
        config, model, cluster = build(devices=3, mode=MODE_REPLICA)
        dense, sparse = random_batch(config, seed=1)
        outputs, _ = cluster.infer_batch(dense, sparse)
        np.testing.assert_allclose(
            outputs, model.forward(dense, sparse), rtol=1e-5, atol=1e-6
        )

    def test_uneven_shard_split(self):
        # 8 tables over 3 devices: 3+3+2.
        config, model, cluster = build(devices=3)
        sizes = sorted(len(s.table_ids) for s in cluster.shards)
        assert sizes == [2, 3, 3]
        dense, sparse = random_batch(config, seed=2)
        outputs, _ = cluster.infer_batch(dense, sparse)
        np.testing.assert_allclose(
            outputs, model.forward(dense, sparse), rtol=1e-5, atol=1e-6
        )


class TestScaling:
    def test_table_sharding_cuts_embedding_time(self):
        _, _, single = build(devices=1)
        _, _, quad = build(devices=4)
        config = get_config("rmc1")
        dense, sparse = random_batch(config, seed=4)
        _, t1 = single.infer_batch(dense, sparse)
        _, t4 = quad.infer_batch(dense, sparse)
        assert t4.emb_ns < t1.emb_ns

    def test_replica_throughput_scales_linearly(self):
        _, _, single = build(devices=1, mode=MODE_REPLICA)
        _, _, quad = build(devices=4, mode=MODE_REPLICA)
        q1 = single.throughput_qps(nbatch=2)
        q4 = quad.throughput_qps(nbatch=2)
        assert q4 == pytest.approx(4 * q1, rel=0.05)

    def test_capacity_accounting(self):
        _, model, shard = build(devices=2)
        _, _, replica = build(devices=2, mode=MODE_REPLICA)
        assert shard.total_capacity_bytes == model.tables.total_bytes
        assert replica.total_capacity_bytes == 2 * model.tables.total_bytes

    def test_timing_structure(self):
        config, _, cluster = build(devices=2)
        dense, sparse = random_batch(config, seed=5)
        _, timing = cluster.infer_batch(dense, sparse)
        assert len(timing.per_device_emb_ns) == 2
        assert timing.latency_ns >= timing.interval_ns
        assert timing.gather_ns > 0

    def test_interval_and_latency_accounting_separate(self):
        """Regression: latency is the serial critical path, not the
        pipelined interval term.  With emb=4, bot=6, top=5 the serial
        MLP latency is max(emb, bot) + top = 11, while the interval is
        bounded by the slowest stage (bot = 6); the old accounting
        collapsed both into max(bot, top) and understated latency."""
        timing = ClusterTiming(
            nbatch=1,
            per_device_emb_ns=[4.0],
            gather_ns=0.0,
            bot_ns=6.0,
            top_ns=5.0,
            io_ns=2.0,
        )
        assert timing.mlp_ns == pytest.approx(6.0)
        assert timing.interval_ns == pytest.approx(6.0)
        # Serial path: bot (6) overlaps emb (4), then top (5) + io (2).
        assert timing.latency_ns == pytest.approx(13.0)
        # The buggy composition emb + max(bot, top) + io would be 12.
        assert timing.latency_ns > timing.emb_ns + timing.mlp_ns + timing.io_ns

    def test_replica_latency_is_serial_not_interval(self):
        config, _, cluster = build(devices=2, mode=MODE_REPLICA)
        dense, sparse = random_batch(config, seed=8)
        _, timing = cluster.infer_batch(dense, sparse)
        # Latency follows the device's serial accounting (bottom MLP
        # overlaps embedding, top MLP after both, I/O on the edges)...
        expected = (
            max(timing.emb_ns, timing.bot_ns) + timing.top_ns + timing.io_ns
        )
        assert timing.latency_ns == pytest.approx(expected)
        # ...while the throughput interval stays the max-stage term.
        assert timing.interval_ns == pytest.approx(
            max(timing.emb_ns, timing.bot_ns, timing.top_ns, timing.io_ns, 1.0)
        )


class TestHeterogeneousTables:
    def build_hetero(self, mode=MODE_REPLICA, devices=2):
        tables = EmbeddingTableSet(
            [
                EmbeddingTable("large", 512, 16, seed=1),
                EmbeddingTable("tiny", 4, 16, seed=2),
            ]
        )
        bottom = MLP.from_widths(8, [16], seed=3)
        top = MLP.from_widths(2 * 16 + 16, [8, 1], seed=4)
        model = DLRM("hetero", tables, bottom, top)
        return RMSSDCluster(
            model, lookups_per_table=2, num_devices=devices, mode=mode
        )

    def test_throughput_qps_draws_per_table_indices(self):
        """Regression: random requests must respect each table's own
        row count.  Drawing every table's indices from tables[0].rows
        (512) sent out-of-range indices to the 4-row table."""
        cluster = self.build_hetero()
        qps = cluster.throughput_qps(nbatch=2, seed=0)
        assert qps > 0

    def test_throughput_qps_sharded_heterogeneous(self):
        cluster = self.build_hetero(mode=MODE_TABLE_SHARD, devices=2)
        assert cluster.throughput_qps(nbatch=1, seed=1) > 0


class TestValidation:
    def test_too_many_devices_rejected(self):
        with pytest.raises(ValueError):
            build(devices=9)  # RMC1 has 8 tables

    def test_unknown_mode_rejected(self):
        config = get_config("rmc1")
        model = build_model(config, rows_per_table=ROWS)
        with pytest.raises(ValueError):
            RMSSDCluster(model, 4, num_devices=2, mode="rings")

    def test_zero_devices_rejected(self):
        config = get_config("rmc1")
        model = build_model(config, rows_per_table=ROWS)
        with pytest.raises(ValueError):
            RMSSDCluster(model, 4, num_devices=0)

    @pytest.mark.parametrize("devices", [2.5, True, 1.0])
    def test_hostile_device_count_is_named(self, devices):
        """A device count that is not an integer is refused by name:
        2.5 used to raise range()'s unnamed TypeError, and True and 1.0
        were taken as one device."""
        config = get_config("rmc1")
        model = build_model(config, rows_per_table=ROWS)
        with pytest.raises(ValueError, match="^num_devices "):
            RMSSDCluster(model, 4, num_devices=devices)

    def test_empty_batch_rejected(self):
        _, _, cluster = build(devices=2)
        with pytest.raises(ValueError):
            cluster.infer_batch(None, [])
