"""Tests for the DES pipeline simulator and its agreement with Eq. 1."""

import numpy as np
import pytest

from repro.core.device import operating_point
from repro.core.pipeline_sim import STAMP_FIELDS, PipelineSimulator
from repro.models import build_model, get_config
from repro.obs.critpath import CritPathCollector
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Profiler


class TestPipelineBasics:
    def test_single_batch_latency_is_stage_sum(self):
        pipe = PipelineSimulator(emb_ns=100, bot_ns=60, top_ns=40)
        result = pipe.run(1)
        # emb || bot, then top: max(100, 60) + 40.
        assert result.makespan_ns == pytest.approx(140)
        assert result.latencies_ns[0] == pytest.approx(140)

    def test_steady_state_interval_is_bottleneck_stage(self):
        pipe = PipelineSimulator(emb_ns=100, bot_ns=60, top_ns=40)
        result = pipe.run(20)
        assert result.steady_interval_ns == pytest.approx(100, rel=0.01)

    def test_top_bound_pipeline(self):
        pipe = PipelineSimulator(emb_ns=10, bot_ns=10, top_ns=100)
        result = pipe.run(20)
        assert result.steady_interval_ns == pytest.approx(100, rel=0.01)

    def test_zero_bottom_stage(self):
        # NCF/WnD have no bottom chain.
        pipe = PipelineSimulator(emb_ns=50, bot_ns=0, top_ns=20)
        result = pipe.run(10)
        assert result.steady_interval_ns == pytest.approx(50, rel=0.02)

    def test_open_loop_arrivals_respected(self):
        pipe = PipelineSimulator(emb_ns=10, bot_ns=0, top_ns=5)
        result = pipe.run(5, arrival_interval_ns=100)
        # Underloaded: completions track arrivals, not the bottleneck.
        assert result.steady_interval_ns == pytest.approx(100, rel=0.01)
        assert result.mean_latency_ns == pytest.approx(15, rel=0.01)

    def test_jittered_service_times(self):
        # Alternating slow/fast embedding: interval averages out.
        pipe = PipelineSimulator(
            emb_ns=lambda i: 150 if i % 2 else 50, bot_ns=0, top_ns=10
        )
        result = pipe.run(40)
        assert result.steady_interval_ns == pytest.approx(100, rel=0.05)

    def test_invalid_batches(self):
        with pytest.raises(ValueError):
            PipelineSimulator(1, 1, 1).run(0)

    def test_ordering_preserved(self):
        pipe = PipelineSimulator(emb_ns=10, bot_ns=5, top_ns=3)
        result = pipe.run(8)
        completions = result.stamps_ns[:, STAMP_FIELDS.index("top_done_ns")].tolist()
        assert completions == sorted(completions)


class TestArrivalValidation:
    @pytest.mark.parametrize("fast", (False, True))
    @pytest.mark.parametrize(
        "arrivals", ([0.0, float("nan"), 5.0], [0.0, 1.0, float("inf")])
    )
    def test_non_finite_arrivals_rejected_on_both_paths(self, fast, arrivals):
        # NaN passes a `diff < 0` sortedness test; it must be refused
        # before either path runs or any observer is fed.
        profiler = Profiler()
        metrics = MetricsRegistry()
        critpath = CritPathCollector()
        pipe = PipelineSimulator(
            10.0, 5.0, 2.0, profiler=profiler, metrics=metrics, critpath=critpath
        )
        with pytest.raises(ValueError, match="arrival times must be finite"):
            pipe.run(3, arrival_times_ns=arrivals, fast=fast)
        assert len(profiler) == 0
        assert metrics.as_dict()["histograms"] == {}
        assert len(critpath) == 0

    def test_non_finite_interval_rejected(self):
        with pytest.raises(ValueError, match="arrival times must be finite"):
            PipelineSimulator(10.0, 5.0, 2.0).run(3, arrival_interval_ns=float("nan"))

    @pytest.mark.parametrize("fast", (False, True))
    def test_unsorted_and_miscounted_arrivals_still_rejected(self, fast):
        pipe = PipelineSimulator(10.0, 5.0, 2.0)
        with pytest.raises(ValueError, match="must be sorted"):
            pipe.run(3, arrival_times_ns=np.array([0.0, 9.0, 5.0]), fast=fast)
        with pytest.raises(ValueError, match="one arrival time per batch"):
            pipe.run(3, arrival_times_ns=np.array([0.0, 9.0]), fast=fast)


class TestColumnarResult:
    """``PipelineRunResult`` is columns, on both paths."""

    @staticmethod
    def jittered(**observers):
        return PipelineSimulator(
            emb_ns=lambda i: 100.0 + (i % 7) * 13.0,
            bot_ns=lambda i: (i % 3) * 40.0,
            top_ns=lambda i: 20.0 + (i % 5),
            **observers,
        )

    @staticmethod
    def arrivals(n=300):
        rng = np.random.default_rng(16)
        return np.add.accumulate(rng.exponential(150.0, size=n))

    def test_records_from_columns_equal_native_des_records(self):
        # The DES fills its table row by row, the replay column by
        # column; they are one table, bit for bit.
        arrivals = self.arrivals()
        des = self.jittered().run(len(arrivals), arrival_times_ns=arrivals, fast=False)
        fast = self.jittered().run(len(arrivals), arrival_times_ns=arrivals, fast=True)
        assert (des.path, fast.path) == ("des", "fast")
        assert des.stamps_ns.shape == fast.stamps_ns.shape == (len(arrivals), 6)
        assert des.stamps_ns.dtype == fast.stamps_ns.dtype == np.float64
        assert np.array_equal(des.stamps_ns.view(np.int64), fast.stamps_ns.view(np.int64))
        assert np.array_equal(des.arrivals_ns, fast.arrivals_ns)
        assert des.makespan_ns == fast.makespan_ns  # lint: ok[R2]

    @pytest.mark.parametrize("fast", (False, True))
    @pytest.mark.parametrize("batches", (1, 2, 3, 300))
    def test_summaries_equal_their_record_based_values(self, fast, batches):
        arrivals = self.arrivals(batches)
        result = self.jittered().run(batches, arrival_times_ns=arrivals, fast=fast)
        rows = result.stamps_ns.tolist()
        assert result.batches == len(rows) == batches
        # The per-batch scalar definitions the column properties state.
        top_done = STAMP_FIELDS.index("top_done_ns")
        emb_start = STAMP_FIELDS.index("emb_start_ns")
        latencies = [row[top_done] - a for row, a in zip(rows, arrivals.tolist())]
        queue_waits = [row[emb_start] - a for row, a in zip(rows, arrivals.tolist())]
        mean_latency = sum(latencies) / len(latencies)
        completions = [row[top_done] for row in rows]
        if len(completions) < 3:
            steady = result.makespan_ns / max(1, len(completions))
        else:
            gaps = [b - a for a, b in zip(completions[1:], completions[2:])]
            steady = sum(gaps) / len(gaps)
        # Exact: same floats added in the same order.
        assert result.mean_latency_ns == mean_latency  # lint: ok[R2]
        assert result.steady_interval_ns == steady  # lint: ok[R2]
        assert result.latencies_ns.tolist() == latencies
        assert result.queue_waits_ns.tolist() == queue_waits


class TestAgreementWithEq1:
    """The DES pipeline reproduces the analytic interval for the real
    kernel-searched models."""

    @pytest.mark.parametrize("key", ["rmc1", "rmc2", "rmc3", "ncf", "wnd"])
    def test_steady_interval_matches_analytic(self, key):
        config = get_config(key)
        model = build_model(config, rows_per_table=32)
        result = operating_point(model, config.lookups_per_table)
        pipe = PipelineSimulator.from_stage_times(result.times)
        run = pipe.run(16)
        analytic_ns = result.times.interval * 5.0
        assert run.steady_interval_ns == pytest.approx(analytic_ns, rel=0.02)

    def test_des_flash_times_through_pipeline_match_device_qps(self):
        """Feeding *measured* per-batch flash times into the pipeline
        simulator reproduces the device's own workload throughput."""
        import numpy as np

        from repro.core.device import RMSSD

        config = get_config("rmc1")
        model = build_model(config, rows_per_table=256, seed=0)
        device = RMSSD(model, lookups_per_table=8)
        rng = np.random.default_rng(3)
        emb_times = []
        stage_bot = stage_top = 0.0
        batches = 8
        for _ in range(batches):
            sparse = [
                [list(rng.integers(0, 256, size=8))
                 for _ in range(config.num_tables)]
            ]
            dense = np.zeros((1, config.dense_dim), dtype=np.float32)
            _, timing = device.infer_batch(dense, sparse)
            emb_times.append(timing.emb_ns)
            stage_bot, stage_top = timing.bot_ns, timing.top_ns
        pipe = PipelineSimulator(
            emb_ns=lambda i: emb_times[i], bot_ns=stage_bot, top_ns=stage_top
        )
        run = pipe.run(batches)
        # Embedding-bound: the pipeline's steady interval equals the
        # mean measured flash time.
        assert run.steady_interval_ns == pytest.approx(
            sum(emb_times[2:]) / (batches - 2), rel=0.15
        )

    def test_latency_matches_analytic(self):
        config = get_config("rmc1")
        model = build_model(config, rows_per_table=32)
        result = operating_point(model, config.lookups_per_table)
        pipe = PipelineSimulator.from_stage_times(result.times)
        run = pipe.run(1)
        assert run.latencies_ns[0] == pytest.approx(
            result.times.latency * 5.0, rel=0.01
        )
