"""Tests for the open-loop serving / SLA simulator."""

import pytest

from repro.core.device import operating_point
from repro.fpga.compose import StageTimes
from repro.host.serving import ServingSimulator
from repro.models import build_model, get_config
from repro.obs.critpath import CritPathCollector


def simple_times(temb=200_000, tbot=50_000, ttop=30_000, nbatch=1):
    return StageTimes(
        temb=temb, tbot=tbot, ttop=ttop, nbatch=nbatch, flash_cycles=temb
    )


def rmc1_serving():
    config = get_config("rmc1")
    model = build_model(config, rows_per_table=32)
    result = operating_point(model, config.lookups_per_table)
    return ServingSimulator(result.times, nbatch=result.nbatch, seed=1)


class TestServingSimulator:
    def test_light_load_latency_near_service_time(self):
        serving = ServingSimulator(simple_times(), seed=0)
        point = serving.offered_load(serving.saturation_qps * 0.1, queries=100)
        unloaded_ns = (200_000 + 30_000) * 5.0
        assert point.p50_ns == pytest.approx(unloaded_ns, rel=0.1)

    def test_latency_grows_with_load(self):
        serving = ServingSimulator(simple_times(), seed=0)
        sweep = serving.load_sweep(fractions=(0.3, 0.9), queries=150)
        assert sweep[1].p99_ns > sweep[0].p99_ns
        assert sweep[1].mean_ns > sweep[0].mean_ns

    def test_achieved_tracks_offered_when_underloaded(self):
        serving = ServingSimulator(simple_times(), seed=2)
        point = serving.offered_load(serving.saturation_qps * 0.5, queries=200)
        assert point.achieved_qps == pytest.approx(point.offered_qps, rel=0.15)

    def test_invalid_load_rejected(self):
        serving = ServingSimulator(simple_times())
        with pytest.raises(ValueError):
            serving.offered_load(0)

    def test_zero_queries_rejected(self):
        serving = ServingSimulator(simple_times())
        with pytest.raises(ValueError):
            serving.offered_load(1000.0, queries=0)

    @pytest.mark.parametrize("nbatch", (0, -3))
    def test_non_positive_nbatch_rejected(self, nbatch):
        # Used to be clamped to 1 silently; batch_arrivals and the
        # replica count already refuse the same mistake.
        with pytest.raises(ValueError, match="nbatch must be positive"):
            ServingSimulator(simple_times(), nbatch=nbatch)

    @pytest.mark.parametrize("fast", (False, True))
    def test_collector_sees_one_request_per_batch(self, fast):
        collector = CritPathCollector()
        serving = ServingSimulator(
            simple_times(nbatch=2), nbatch=2, seed=7, window_ns=2e6,
            critpath=collector,
        )
        point = serving.offered_load(
            0.6 * serving.saturation_qps, queries=120, fast=fast
        )
        assert len(point.latencies_ns) == len(collector) == 60 and point.windows

    def test_remainder_queries_served_as_short_batch(self):
        """queries % nbatch must not be dropped: 10 queries at nbatch=4
        are served as batches of 4+4+2, and the achieved total is the
        offered total."""
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        serving = ServingSimulator(
            simple_times(nbatch=4), nbatch=4, seed=0, metrics=metrics
        )
        point = serving.offered_load(serving.saturation_qps * 0.3, queries=10)
        assert metrics.counter("serving.batches").value == 3
        assert len(point.latencies_ns) == 3
        # achieved = served queries / makespan, with all 10 counted.
        assert point.achieved_qps == pytest.approx(point.offered_qps, rel=0.7)

    def test_fewer_queries_than_batch_still_served(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        serving = ServingSimulator(
            simple_times(nbatch=8), nbatch=8, seed=1, metrics=metrics
        )
        point = serving.offered_load(serving.saturation_qps * 0.5, queries=3)
        assert metrics.counter("serving.batches").value == 1
        assert point.p50_ns > 0

    def test_offered_and_achieved_totals_agree_underloaded(self):
        serving = ServingSimulator(simple_times(nbatch=4), nbatch=4, seed=5)
        point = serving.offered_load(serving.saturation_qps * 0.4, queries=207)
        assert point.achieved_qps == pytest.approx(point.offered_qps, rel=0.15)

    def test_meets_sla_any_quantile(self):
        """SLA checks accept arbitrary quantiles, not just 50/95/99."""
        serving = ServingSimulator(simple_times(), seed=6)
        point = serving.offered_load(serving.saturation_qps * 0.5, queries=100)
        assert point.latencies_ns
        # Pinned quantiles agree with the stored fields.
        assert point.meets_sla(point.p50_ns, quantile=50.0)
        assert point.meets_sla(point.p99_ns, quantile=99.0)
        # In-between quantiles are computed from the raw latencies and
        # are monotone between the pinned points.
        assert point.meets_sla(point.p95_ns, quantile=90.0)
        if point.p99_ns > point.p50_ns:
            assert not point.meets_sla(point.p50_ns * 0.99, quantile=98.0) or (
                point.p95_ns <= point.p50_ns
            )
        with pytest.raises(ValueError):
            point.meets_sla(1.0, quantile=101.0)

    def test_meets_sla_interpolates_without_raw_latencies(self):
        from repro.host.serving import LoadPoint

        point = LoadPoint(
            offered_qps=1.0, achieved_qps=1.0,
            p50_ns=100.0, p95_ns=200.0, p99_ns=300.0, mean_ns=120.0,
        )
        # q=97 interpolates halfway between p95 and p99 -> 250 ns.
        assert point.meets_sla(250.0, quantile=97.0)
        assert not point.meets_sla(249.0, quantile=97.0)
        # Below p50 clamps to p50; above p99 clamps to p99.
        assert point.meets_sla(100.0, quantile=10.0)
        assert not point.meets_sla(299.0, quantile=99.5)

    def test_meets_sla_edge_quantiles_with_raw_latencies(self):
        """q=0 and q=100 miss the pinned 50/95/99 dict and must read
        the raw latency extremes."""
        from repro.host.serving import LoadPoint

        point = LoadPoint(
            offered_qps=1.0, achieved_qps=1.0,
            p50_ns=200.0, p95_ns=400.0, p99_ns=500.0, mean_ns=250.0,
            latencies_ns=(100.0, 200.0, 300.0, 400.0, 500.0),
        )
        # q=0 is the observed minimum, q=100 the observed maximum.
        assert point.meets_sla(100.0, quantile=0.0)
        assert not point.meets_sla(99.0, quantile=0.0)
        assert point.meets_sla(500.0, quantile=100.0)
        assert not point.meets_sla(499.0, quantile=100.0)

    def test_meets_sla_edge_quantiles_interpolation_clamps(self):
        """Without raw latencies, q=0 clamps to the pinned p50 and
        q=100 clamps to the pinned p99 (np.interp endpoint clamping)."""
        from repro.host.serving import LoadPoint

        point = LoadPoint(
            offered_qps=1.0, achieved_qps=1.0,
            p50_ns=100.0, p95_ns=200.0, p99_ns=300.0, mean_ns=120.0,
        )
        assert point.meets_sla(100.0, quantile=0.0)
        assert not point.meets_sla(99.0, quantile=0.0)
        assert point.meets_sla(300.0, quantile=100.0)
        assert not point.meets_sla(299.0, quantile=100.0)

    def test_sla_search_between_zero_and_saturation(self):
        serving = ServingSimulator(simple_times(), seed=3)
        unloaded_ns = (200_000 + 30_000) * 5.0
        max_qps = serving.max_qps_under_sla(sla_ns=3 * unloaded_ns, queries=120)
        assert 0.0 < max_qps <= serving.saturation_qps

    def test_impossible_sla_returns_zero(self):
        serving = ServingSimulator(simple_times(), seed=4)
        unloaded_ns = (200_000 + 30_000) * 5.0
        assert serving.max_qps_under_sla(sla_ns=unloaded_ns / 10) == 0.0

    def test_looser_sla_allows_more_load(self):
        serving = ServingSimulator(simple_times(), seed=5)
        unloaded_ns = (200_000 + 30_000) * 5.0
        tight = serving.max_qps_under_sla(sla_ns=1.3 * unloaded_ns, queries=120)
        loose = serving.max_qps_under_sla(sla_ns=5 * unloaded_ns, queries=120)
        assert loose >= tight

    def test_first_batch_keeps_its_arrival_gap(self):
        """Regression: batch 0's Erlang gap must not be clamped to
        t=0 — the clamp deterministically pinned the first completion
        into window 0 and biased short-run tails."""
        window_ns = 1e6
        serving = ServingSimulator(simple_times(), seed=9, window_ns=window_ns)
        # Mean inter-arrival 20 ms >> the 1 ms windows: batch 0 arrives
        # well after window 0, so its completion cannot land there.
        point = serving.offered_load(50.0, queries=5)
        assert point.windows[0].index > 0

    def test_rmc1_sla_study_runs(self):
        serving = rmc1_serving()
        point = serving.offered_load(serving.saturation_qps * 0.5, queries=64)
        # RMC1 unloaded latency ~1.2 ms; p99 at half load stays within
        # a small multiple of it.
        assert point.p99_ns < 5e6
        assert point.p50_ns > 1e6


class TestWindowStats:
    def test_windows_off_by_default(self):
        serving = ServingSimulator(simple_times(), seed=6)
        point = serving.offered_load(serving.saturation_qps * 0.5, queries=20)
        assert point.windows == ()
        assert point.worst_window() is None

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ServingSimulator(simple_times(), window_ns=0.0)

    def test_windows_partition_completions(self):
        window_ns = 5e6
        serving = ServingSimulator(simple_times(), seed=6, window_ns=window_ns)
        point = serving.offered_load(serving.saturation_qps * 0.5, queries=40)
        assert point.windows
        # Every batch lands in exactly one window.
        assert sum(w.count for w in point.windows) == len(point.latencies_ns)
        indices = [w.index for w in point.windows]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)
        for window in point.windows:
            assert window.start_ns == pytest.approx(window.index * window_ns)
            assert window.count >= 1

    def test_worst_window_is_max_percentile(self):
        serving = ServingSimulator(simple_times(), seed=7, window_ns=5e6)
        point = serving.offered_load(serving.saturation_qps * 0.9, queries=60)
        worst = point.worst_window(99.0)
        assert worst is not None
        assert worst.percentile(99.0) == max(
            w.percentile(99.0) for w in point.windows
        )
        # The worst window's tail can only be >= the run aggregate p99.
        assert worst.percentile(99.0) >= point.p99_ns * 0.999

    def test_worst_window_earliest_wins_ties(self):
        from repro.host.serving import LoadPoint, WindowStat

        a = WindowStat(index=0, start_ns=0.0, latencies_ns=(100.0,))
        b = WindowStat(index=3, start_ns=3.0, latencies_ns=(100.0,))
        point = LoadPoint(
            offered_qps=1.0, achieved_qps=1.0, p50_ns=100.0,
            p95_ns=100.0, p99_ns=100.0, mean_ns=100.0,
            windows=(a, b),
        )
        assert point.worst_window().index == 0

    def test_worst_window_empty_and_singleton(self):
        from repro.host.serving import LoadPoint, WindowStat

        empty = LoadPoint(
            offered_qps=1.0, achieved_qps=1.0, p50_ns=100.0,
            p95_ns=100.0, p99_ns=100.0, mean_ns=100.0, windows=(),
        )
        assert empty.worst_window() is None
        only = WindowStat(index=7, start_ns=7.0, latencies_ns=(42.0,))
        singleton = LoadPoint(
            offered_qps=1.0, achieved_qps=1.0, p50_ns=42.0,
            p95_ns=42.0, p99_ns=42.0, mean_ns=42.0, windows=(only,),
        )
        # A singleton window is the worst window at any quantile, and
        # a one-sample window reports that sample at every quantile.
        assert singleton.worst_window(0.0) is only
        assert singleton.worst_window(100.0) is only
        assert only.percentile(0.0) == pytest.approx(42.0)
        assert only.percentile(100.0) == pytest.approx(42.0)
