"""Tests for the deadline-aware dynamic batcher."""

import numpy as np
import pytest

from repro.host.batching import DynamicBatcher


def constant_stage_fn(emb=100.0, bot=0.0, top=20.0, per_sample_emb=0.0):
    def fn(nbatch):
        return (emb + per_sample_emb * nbatch, bot, top)

    return fn


class TestDispatchPolicy:
    def test_full_batch_dispatches_immediately(self):
        batcher = DynamicBatcher(constant_stage_fn(), max_batch=4, max_wait_ns=1e9)
        # 4 queries at t=0: batch forms without waiting for the deadline.
        result = batcher.run([0, 0, 0, 0])
        assert result.batch_sizes == [4]
        assert result.makespan_ns == pytest.approx(120)  # emb + top

    def test_deadline_flushes_partial_batch(self):
        batcher = DynamicBatcher(constant_stage_fn(), max_batch=8, max_wait_ns=50)
        result = batcher.run([0, 10])
        assert result.batch_sizes == [2]
        # Dispatch at deadline (t=50), finish at 50 + 120.
        assert result.makespan_ns == pytest.approx(170)

    def test_zero_wait_serves_singletons(self):
        batcher = DynamicBatcher(constant_stage_fn(), max_batch=8, max_wait_ns=0)
        result = batcher.run([0, 300, 600])
        assert result.batch_sizes == [1, 1, 1]

    def test_spread_arrivals_split_batches(self):
        batcher = DynamicBatcher(constant_stage_fn(), max_batch=4, max_wait_ns=30)
        result = batcher.run([0, 10, 1000, 1010])
        assert result.batch_sizes == [2, 2]

    def test_latencies_include_queueing(self):
        batcher = DynamicBatcher(constant_stage_fn(), max_batch=2, max_wait_ns=1e9)
        result = batcher.run([0, 40])
        # Query 0 waits for query 1 (40 ns) then 120 ns of service.
        assert result.query_latencies_ns[0] == pytest.approx(160)
        assert result.query_latencies_ns[1] == pytest.approx(120)

    def test_unsorted_arrivals_rejected(self):
        batcher = DynamicBatcher(constant_stage_fn(), max_batch=2, max_wait_ns=10)
        with pytest.raises(ValueError):
            batcher.run([10, 0])

    def test_empty_rejected(self):
        batcher = DynamicBatcher(constant_stage_fn(), max_batch=2, max_wait_ns=10)
        with pytest.raises(ValueError):
            batcher.run([])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DynamicBatcher(constant_stage_fn(), max_batch=0, max_wait_ns=1)
        with pytest.raises(ValueError):
            DynamicBatcher(constant_stage_fn(), max_batch=1, max_wait_ns=-1)


class TestBoundaries:
    """Hostile batcher parameters and arrival instants are refused with
    a ValueError naming them, before any stage time is asked for."""

    @pytest.mark.parametrize(
        "max_batch, max_wait_ns, name",
        [
            (2.5, 10.0, "max_batch"),  # formed batches of 3
            (True, 10.0, "max_batch"),  # taken as 1
            (4, float("nan"), "max_wait_ns"),  # silently served singletons
            (4, float("inf"), "max_wait_ns"),  # the kernel's SimulationError
        ],
    )
    def test_hostile_parameter_is_named(self, max_batch, max_wait_ns, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            DynamicBatcher(constant_stage_fn(), max_batch, max_wait_ns)

    @pytest.mark.parametrize(
        "arrivals",
        [
            [0.0, float("inf")],  # the kernel's SimulationError
            [0.0, float("nan"), 20.0],  # NaN latencies
        ],
    )
    def test_non_finite_arrival_is_refused_before_serving(self, arrivals):
        calls = []

        def stage_fn(nbatch):
            calls.append(nbatch)
            return (100.0, 0.0, 20.0)

        batcher = DynamicBatcher(stage_fn, max_batch=4, max_wait_ns=10.0)
        with pytest.raises(ValueError, match="^arrival times must be finite"):
            batcher.run(arrivals)
        assert calls == []


class TestTradeoff:
    def test_batching_raises_throughput_on_amortized_service(self):
        # Embedding cost dominated by a fixed term: batching amortizes.
        rng = np.random.default_rng(0)
        arrivals = np.cumsum(rng.exponential(30.0, size=400)).tolist()
        fn = constant_stage_fn(emb=100.0, per_sample_emb=2.0)
        singles = DynamicBatcher(fn, max_batch=1, max_wait_ns=0).run(arrivals)
        batched = DynamicBatcher(fn, max_batch=8, max_wait_ns=200).run(arrivals)
        assert batched.makespan_ns < singles.makespan_ns
        assert batched.mean_batch_size > 2

    def test_batching_adds_latency_when_underloaded(self):
        # Sparse arrivals: waiting for the deadline only hurts.
        arrivals = [i * 10_000.0 for i in range(20)]
        fn = constant_stage_fn()
        eager = DynamicBatcher(fn, max_batch=8, max_wait_ns=0).run(arrivals)
        patient = DynamicBatcher(fn, max_batch=8, max_wait_ns=5_000).run(arrivals)
        assert patient.latency_percentile_ns(50) > eager.latency_percentile_ns(50)

    def test_from_engine(self):
        from repro.core.device import RMSSD
        from repro.models import build_model, get_config

        config = get_config("rmc1")
        model = build_model(config, rows_per_table=32)
        device = RMSSD(model, lookups_per_table=4, use_des=False)
        batcher = DynamicBatcher.from_engine(
            device.mlp_engine, max_batch=4, max_wait_ns=1e6
        )
        result = batcher.run([0.0, 100.0, 200.0, 300.0])
        assert result.queries == 4
        assert result.qps > 0
