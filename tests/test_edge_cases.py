"""Edge-case coverage across modules: empty inputs, error paths,
bookkeeping corners that the main suites do not reach."""

import numpy as np
import pytest

from repro.baselines import (
    DRAMBackend,
    EMBPageSumBackend,
    EMBVectorSumBackend,
    NaiveSSDBackend,
    RMSSDBackend,
)
from repro.models import build_model, get_config
from repro.sim import Simulator, Store
from repro.sim.resources import drain
from repro.workloads.inputs import InferenceRequest


class TestSimHelpers:
    def test_drain_collects_in_order(self):
        sim = Simulator()
        store = Store(sim)
        for item in ("a", "b", "c"):
            store.put(item)
        proc = sim.process(drain(sim, store, 3))
        sim.run()
        assert proc.value == ["a", "b", "c"]

    def test_drain_waits_for_late_items(self):
        sim = Simulator()
        store = Store(sim)

        def producer():
            yield sim.timeout(5)
            store.put(1)
            yield sim.timeout(5)
            store.put(2)

        sim.process(producer())
        proc = sim.process(drain(sim, store, 2))
        sim.run()
        assert proc.value == [1, 2]
        assert sim.now == 10


class TestBackendEdges:
    @pytest.fixture(scope="class")
    def model(self):
        return build_model(get_config("rmc1"), rows_per_table=64, seed=1)

    def _empty_lookup_request(self, model):
        # Samples whose tables have zero lookups each.
        sparse = [[[] for _ in range(len(model.tables))]]
        dense = np.zeros((1, model.dense_dim), dtype=np.float32)
        return InferenceRequest(dense=dense, sparse=sparse)

    def test_zero_lookup_request_dram(self, model):
        backend = DRAMBackend(model)
        request = self._empty_lookup_request(model)
        result = backend.run([request], compute=True)
        # Zero lookups pool to zero vectors; the MLP still runs.
        assert result.outputs.shape == (1, 1)
        assert result.total_ns > 0

    def test_zero_lookup_request_isc_paths(self, model):
        request = self._empty_lookup_request(model)
        for backend in (EMBPageSumBackend(model), EMBVectorSumBackend(model)):
            result = backend.run([request], compute=False)
            assert result.total_ns > 0  # MLP + transfer costs remain

    def test_compute_false_returns_empty_outputs(self, model):
        backend = DRAMBackend(model)
        request = self._empty_lookup_request(model)
        result = backend.run([request], compute=False)
        assert result.outputs.size == 0

    def test_run_with_no_requests(self, model):
        backend = DRAMBackend(model)
        result = backend.run([], compute=False)
        assert result.inferences == 0
        assert result.total_ns == 0

    def test_naive_ssd_invalid_fraction(self, model):
        with pytest.raises(ValueError):
            NaiveSSDBackend(model, 0.0)

    def test_naive_ssd_custom_name(self, model):
        backend = NaiveSSDBackend(model, 0.25, name="SSD-X")
        assert backend.name == "SSD-X"

    def _rmssd_request(self, model):
        config = get_config("rmc1")
        backend = RMSSDBackend(model, config.lookups_per_table, use_des=False)
        rng = np.random.default_rng(0)
        request = InferenceRequest(
            dense=rng.standard_normal((1, config.dense_dim)).astype(np.float32),
            sparse=[
                [list(rng.integers(0, 64, size=2))
                 for _ in range(config.num_tables)]
            ],
        )
        return backend, request

    def test_rmssd_backend_request_cost_keys(self, model):
        backend, request = self._rmssd_request(model)
        cost = backend.run([request], compute=False).breakdown
        assert set(cost) == {"emb-ssd", "bot-mlp", "top-mlp", "emb-fs"}
        assert all(v >= 0 for v in cost.values())

    def test_rmssd_backend_costs_requests_only_through_run(self, model):
        """RM-SSD's device batches overlap, so a request has no cost of
        its own: asking for one names ``run``, and no batch is served."""
        backend, request = self._rmssd_request(model)
        with pytest.raises(NotImplementedError, match=r"RMSSDBackend.*run\(\)"):
            backend.request_cost_ns(request)
        assert backend.stats.flash_vector_reads == 0

    def test_stats_accumulate_across_runs(self, model):
        backend = EMBVectorSumBackend(model)
        request = self._empty_lookup_request(model)
        backend.run([request], compute=False)
        first = backend.stats.host_read_bytes
        backend.run([request], compute=False)
        assert backend.stats.host_read_bytes == 2 * first


class TestDeviceEdges:
    def test_device_with_single_table_model(self):
        from repro.core.device import RMSSD
        from repro.embedding.table import EmbeddingTableSet
        from repro.models.dlrm import DLRM
        from repro.models.mlp import MLP
        from repro.models.layers import Activation

        tables = EmbeddingTableSet.uniform(1, 32, 16, seed=0)
        bottom = MLP.from_widths(8, [16])
        top = MLP.from_widths(16 + 16, [8, 1],
                              final_activation=Activation.SIGMOID)
        model = DLRM("tiny", tables, bottom, top)
        device = RMSSD(model, lookups_per_table=2)
        sparse = [[[0, 1]]]
        dense = np.zeros((1, 8), dtype=np.float32)
        outputs, timing = device.infer_batch(dense, sparse)
        np.testing.assert_allclose(
            outputs, model.forward(dense, sparse), rtol=1e-5, atol=1e-6
        )
        assert timing.interval_ns > 0

    def test_lookup_batch_with_one_empty_table(self):
        from repro.core.device import RMSSD

        model = build_model(get_config("rmc1"), rows_per_table=32, seed=2)
        device = RMSSD(model, lookups_per_table=2)
        sparse = [[[0, 1]] + [[]] * (len(model.tables) - 1)]
        result = device.lookup_engine.lookup_batch(sparse)
        # Empty tables pool to zeros.
        assert np.all(result.pooled[0, 32:] == 0)
        assert result.vectors_read == 2
