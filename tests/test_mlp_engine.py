"""Tests for the MLP Acceleration Engine runtime and resource model."""

import numpy as np
import pytest

from repro.core.device import operating_point
from repro.core.mlp_engine import (
    MLPAccelerationEngine,
    dlrm_forward_decomposed,
    forward_from_pooled,
)
from repro.embedding.pooling import sls_all_tables
from repro.fpga.decompose import (
    PLACEMENT_BRAM,
    PLACEMENT_DRAM,
    LayerAssignment,
)
from repro.fpga.kernel import KernelSize
from repro.fpga.resources import (
    ResourceVector,
    engine_resources,
    layer_resources,
    mac_units,
    naive_gemm_resources,
    weight_bram_tiles,
)
from repro.models import build_model, get_config


def make_engine(key="rmc1", rows=64):
    config = get_config(key)
    model = build_model(config, rows_per_table=rows, seed=2)
    result = operating_point(model, config.lookups_per_table)
    return config, model, MLPAccelerationEngine(model, result)


class TestEngineRuntime:
    def test_forward_batch_matches_model(self):
        config, model, engine = make_engine()
        rng = np.random.default_rng(0)
        sparse = [[1, 2]] * config.num_tables
        pooled = np.stack([sls_all_tables(model.tables, sparse)])
        dense = rng.standard_normal((1, config.dense_dim)).astype(np.float32)
        outputs = engine.forward_batch(dense, pooled)
        np.testing.assert_allclose(
            outputs, model.forward(dense, [sparse]), rtol=1e-5, atol=1e-6
        )

    def test_stage_times_scale_with_batch(self):
        config, model, engine = make_engine()
        t1 = engine.stage_times_for(1)
        t16 = engine.stage_times_for(16)
        assert t16.temb > t1.temb  # flash grows linearly
        assert t16.tbot >= t1.tbot  # MLP grows in II steps

    def test_interval_and_latency_ns(self):
        config, model, engine = make_engine()
        assert engine.interval_ns(1) > 0
        assert engine.latency_ns(1) >= engine.interval_ns(1)

    def test_supported_nbatch_exposed(self):
        config, model, engine = make_engine("rmc3", rows=32)
        assert engine.supported_nbatch == 4

    def test_forward_from_pooled_rejects_bad_width(self):
        config, model, engine = make_engine()
        with pytest.raises(ValueError):
            forward_from_pooled(model, np.zeros(config.dense_dim), np.zeros(3))

    def test_forward_from_pooled_unknown_model(self):
        class Strange:
            tables = build_model(get_config("rmc1"), rows_per_table=8).tables

        with pytest.raises(TypeError):
            forward_from_pooled(Strange(), None, np.zeros(8 * 32, dtype=np.float32))

    def test_decomposed_forward_handles_relu_interaction(self):
        # The decomposition must agree even when L0's pre-activation is
        # negative (ReLU clamps identically on both paths).
        config, model, _ = make_engine()
        dense = -np.ones(config.dense_dim, dtype=np.float32)
        sparse = [[0]] * config.num_tables
        pooled = sls_all_tables(model.tables, sparse)
        np.testing.assert_allclose(
            dlrm_forward_decomposed(model, dense, pooled),
            model.forward_one(dense, sparse),
            rtol=1e-5, atol=1e-6,
        )


class TestResourceModel:
    def _layer(self, kernel, placement=PLACEMENT_BRAM, rows=64, cols=64):
        return LayerAssignment("L", rows, cols, placement, kernel)

    def test_mac_units_ii_reuse(self):
        assert mac_units(self._layer(KernelSize(4, 2))) == 1
        assert mac_units(self._layer(KernelSize(16, 16))) == 32

    def test_mac_units_requires_kernel(self):
        with pytest.raises(ValueError):
            mac_units(LayerAssignment("L", 4, 4))

    def test_weight_bram_tiles(self):
        assert weight_bram_tiles(4608) == 1
        assert weight_bram_tiles(4609) == 2

    def test_bram_layer_banks_at_least_units(self):
        # A tiny-weight layer with a big kernel still needs one bank
        # per MAC unit.
        usage = layer_resources(self._layer(KernelSize(16, 16), rows=8, cols=8))
        assert usage.bram >= 32

    def test_dram_layer_has_no_weight_bram(self):
        bram_layer = layer_resources(
            self._layer(KernelSize(16, 8), rows=2560, cols=1024)
        )
        dram_layer = layer_resources(
            self._layer(KernelSize(16, 8), PLACEMENT_DRAM, rows=2560, cols=1024)
        )
        assert dram_layer.bram < bram_layer.bram / 10
        assert dram_layer.lut > bram_layer.lut  # fetch/DMA logic

    def test_engine_resources_sum_layers(self):
        config, model, engine = make_engine()
        total = engine_resources(engine.search.model)
        parts = ResourceVector()
        for layer in engine.search.model.all_layers():
            parts = parts + layer_resources(layer)
        assert total.as_dict() == parts.as_dict()

    def test_resource_vector_dominates(self):
        big = ResourceVector(10, 10, 10, 10)
        small = ResourceVector(1, 1, 1, 1)
        assert big.dominates(small)
        assert not small.dominates(big)

    def test_naive_gemm_grows_with_input_width(self):
        narrow = naive_gemm_resources([(128, 64)])
        wide = naive_gemm_resources([(2560, 64)])
        assert wide.lut > narrow.lut
        assert wide.dsp == narrow.dsp  # fixed array

    def test_naive_gemm_streams_when_weights_overflow(self):
        small = naive_gemm_resources([(128, 64)])
        huge = naive_gemm_resources([(2560, 1024), (1024, 1024)])
        # Streaming designs cap their BRAM.
        assert huge.bram < weight_bram_tiles(2560 * 1024 * 4 + 1024 * 1024 * 4)

    def test_naive_gemm_empty_rejected(self):
        with pytest.raises(ValueError):
            naive_gemm_resources([])
