"""Tests for the host cost model and pipelining helper."""

import pytest

from repro.host.costs import HostCostModel
from repro.host.runtime import HostPipeline


class TestHostCostModel:
    def test_dram_rmc1_inference_near_paper(self):
        # Fig. 2(a): DRAM-only RMC1 batch-1 is ~1.4 ms per inference.
        costs = HostCostModel()
        emb = costs.sls_op_ns(tables=8, total_vectors=640)
        mlp = costs.mlp_ns(10_240, 2, 1) + costs.mlp_ns(90_176, 3, 1)
        total_ns = emb + mlp + costs.concat_ns()
        assert 0.8e6 < total_ns < 2.0e6

    def test_fileio_miss_costs_more_than_hit(self):
        costs = HostCostModel()
        assert costs.fileio_lookup_ns(True, 0.25) > 5 * costs.fileio_lookup_ns(
            False, 0.25
        )

    def test_memory_pressure_orders_ssd_s_and_m(self):
        costs = HostCostModel()
        assert costs.memory_pressure_factor(0.25) > costs.memory_pressure_factor(0.5)
        assert costs.memory_pressure_factor(1.0) == 1.0

    def test_negative_dram_fraction_rejected(self):
        with pytest.raises(ValueError):
            HostCostModel().memory_pressure_factor(-0.1)

    def test_fileio_miss_includes_readahead_device_time(self):
        costs = HostCostModel()
        miss = costs.fileio_lookup_ns(True, 1.0)
        assert miss >= costs.readahead_pages * costs.device_page_read_ns

    def test_mlp_batched_amortizes_dispatch(self):
        # Small models are dispatch-bound: 32x the work costs far less
        # than 32x the time (Fig. 2's sub-linear DRAM batch scaling).
        costs = HostCostModel()
        single = costs.mlp_ns(10_000, 3, 1)
        batched = costs.mlp_ns(10_000, 3, 32)
        assert batched < 2 * single

    def test_pcie_transfer_linear(self):
        costs = HostCostModel()
        assert costs.pcie_transfer_ns(4096) == pytest.approx(4096 / 3.2)


class TestHostPipeline:
    def test_serial_total(self):
        pipe = HostPipeline(pipelined=False)
        pipe.add(10, 100, 5)
        pipe.add(10, 100, 5)
        assert pipe.total_ns() == 230

    def test_pipelined_total(self):
        pipe = HostPipeline(pipelined=True)
        pipe.add(10, 100, 5)
        pipe.add(10, 100, 5)
        pipe.add(10, 100, 5)
        # First fills (115), the rest cost their bottleneck (100).
        assert pipe.total_ns() == 115 + 200

    def test_pipelined_total_is_the_stage_recurrence(self):
        # Non-uniform stages: request 1's send (10-110) overlaps request
        # 0's device time, its device starts at 110 and its receive
        # ends at 125 -- not first fill + bottleneck (115 + 100).
        pipe = HostPipeline(pipelined=True)
        pipe.extend([(10, 100, 5), (100, 10, 5)])
        assert pipe.total_ns() == 125
        assert pipe.emit_trace(None) == 125

    def test_speedup_from_pipelining(self):
        pipe = HostPipeline(pipelined=True)
        for _ in range(100):
            pipe.add(50, 100, 50)
        assert pipe.speedup_from_pipelining() > 1.5

    def test_empty_pipeline(self):
        assert HostPipeline().total_ns() == 0.0

    def test_extend(self):
        pipe = HostPipeline()
        pipe.extend([(1, 2, 3), (4, 5, 6)])
        assert pipe.requests == 2
