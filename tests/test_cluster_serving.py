"""Tests for open-loop cluster serving and SLA autoscaling."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline_sim import PipelineSimulator
from repro.fpga.compose import StageTimes
from repro.host.autoscale import Autoscaler, EpochSignal
from repro.host.serving import ServingSimulator
from repro.host.cluster_serving import (
    BALANCER_JSQ,
    BALANCER_LATENCY,
    BALANCER_ROUND_ROBIN,
    ClusterServingSimulator,
    _ReplicaModel,
    make_balancer,
)
from repro.obs import CritPathCollector, names
from repro.obs.metrics import MetricsRegistry
from repro.workloads.arrivals import flash_crowd_trace, poisson_trace
from tests.timer import returns_within

EMB, BOT, TOP = 200_000, 50_000, 30_000
UNLOADED_NS = (EMB + TOP) * 5.0


def simple_times(temb=EMB, tbot=BOT, ttop=TOP, nbatch=1):
    return StageTimes(
        temb=temb, tbot=tbot, ttop=ttop, nbatch=nbatch, flash_cycles=temb
    )


def cluster(replicas=2, balancer=BALANCER_ROUND_ROBIN, **kwargs):
    return ClusterServingSimulator(
        simple_times(), replicas=replicas, balancer=balancer, **kwargs
    )


_STAGE_NS = st.one_of(st.just(0.0), st.integers(1, 300).map(float))


class TestReplicaModel:
    def test_mirror_is_exact_against_pipeline(self):
        """The analytic dispatcher predicts the DES's completion times
        bitwise, for an irregular sorted arrival pattern."""
        trace = poisson_trace(1500.0, 60, seed=13)
        times = simple_times()
        cycle = 5.0
        model = _ReplicaModel(times.temb * cycle, times.tbot * cycle, times.ttop * cycle)
        predicted = [model.commit(a) for a in trace.times_ns]
        pipeline = PipelineSimulator(
            emb_ns=times.temb * cycle,
            bot_ns=times.tbot * cycle,
            top_ns=times.ttop * cycle,
        )
        for fast in (False, True):
            result = pipeline.run(
                trace.count, arrival_times_ns=list(trace.times_ns), fast=fast
            )
            assert result.completions_ns.tolist() == predicted

    @settings(max_examples=80, deadline=None)
    @given(
        first=st.one_of(st.just(-0.0), st.integers(0, 9).map(float)),
        gaps=st.lists(
            st.one_of(st.just(0.0), st.integers(1, 4).map(float),
                      st.floats(0.0, 400.0)),
            max_size=40,
        ),
        stages=st.tuples(_STAGE_NS, _STAGE_NS, _STAGE_NS),
    )
    def test_property_mirror_is_exact_against_pipeline(self, first, gaps, stages):
        """Tied, integer-grid and free-float arrivals, a -0.0 first
        arrival, zero-length stages (bot/top then skip their server):
        every committed completion is the pipeline's, bit for bit, on
        both paths."""
        arrivals = np.add.accumulate([first] + gaps).tolist()
        model = _ReplicaModel(*stages)
        predicted = np.array([model.commit(a) for a in arrivals])
        pipeline = PipelineSimulator(*stages)
        for fast in (False, True):
            result = pipeline.run(len(arrivals), arrival_times_ns=arrivals, fast=fast)
            assert np.array_equal(
                result.completions_ns.view(np.int64), predicted.view(np.int64)
            )

    def test_backlog_counts_in_flight(self):
        model = _ReplicaModel(100.0, 0.0, 50.0)
        done = model.commit(0.0)  # completes at 150
        assert model.backlog(10.0) == 1
        assert model.backlog(done) == 0


class TestBalancers:
    def test_round_robin_cycles(self):
        sim = cluster(replicas=3)
        trace = poisson_trace(1000.0, 9, seed=1)
        point = sim.serve_trace(trace)
        assert point.per_replica_batches == (3, 3, 3)

    def test_jsq_prefers_idle_replica(self):
        balancer = make_balancer(BALANCER_JSQ)
        busy = _ReplicaModel(1000.0, 0.0, 0.0)
        idle = _ReplicaModel(1000.0, 0.0, 0.0)
        busy.commit(0.0)
        assert balancer.pick(10.0, [busy, idle], [0, 1]) == 1
        # Ties resolve to the lowest replica id.
        assert balancer.pick(5000.0, [busy, idle], [0, 1]) == 0

    def test_latency_weighted_prefers_fastest_completion(self):
        balancer = make_balancer(BALANCER_LATENCY)
        busy = _ReplicaModel(1000.0, 0.0, 0.0)
        idle = _ReplicaModel(1000.0, 0.0, 0.0)
        for _ in range(3):
            busy.commit(0.0)
        assert balancer.pick(10.0, [busy, idle], [0, 1]) == 1

    def test_jsq_beats_round_robin_under_skew(self):
        """With queue-aware dispatch the tail under bursty load is no
        worse than blind round-robin."""
        trace = flash_crowd_trace(1200.0, 1e8, 3e7, 3e7, burst_factor=3.0, seed=5)
        rr = cluster(replicas=2, balancer=BALANCER_ROUND_ROBIN).serve_trace(trace)
        jsq = cluster(replicas=2, balancer=BALANCER_JSQ).serve_trace(trace)
        assert jsq.p99_ns <= rr.p99_ns * 1.001

    def test_unknown_balancer_rejected(self):
        with pytest.raises(ValueError):
            make_balancer("random")
        with pytest.raises(ValueError):
            cluster(balancer="random")


class TestClusterServing:
    def test_single_replica_matches_pipeline(self):
        trace = poisson_trace(800.0, 40, seed=2)
        sim = cluster(replicas=1)
        point = sim.serve_trace(trace)
        pipeline = PipelineSimulator(
            emb_ns=EMB * 5.0, bot_ns=BOT * 5.0, top_ns=TOP * 5.0
        )
        result = pipeline.run(
            trace.count, arrival_times_ns=list(trace.times_ns)
        )
        assert list(point.latencies_ns) == result.latencies_ns.tolist()

    def test_more_replicas_cut_tail_latency(self):
        trace = poisson_trace(1800.0, 150, seed=3)
        one = cluster(replicas=1).serve_trace(trace)
        three = cluster(replicas=3).serve_trace(trace)
        assert three.p99_ns < one.p99_ns

    def test_des_and_fast_paths_bitwise_equal(self):
        trace = flash_crowd_trace(900.0, 1e8, 3e7, 2e7, burst_factor=3.0, seed=7)
        points = {}
        docs = {}
        requests = {}
        for fast in (False, True):
            scaler = Autoscaler(
                sla_ns=3 * UNLOADED_NS, window_ns=2e6, max_replicas=6,
                epoch_windows=2,
            )
            metrics = MetricsRegistry(window_ns=2e6)
            collector = CritPathCollector()
            sim = ClusterServingSimulator(
                simple_times(), replicas=1, balancer=BALANCER_JSQ,
                autoscaler=scaler, metrics=metrics, critpath=collector,
            )
            point = sim.serve_trace(trace, fast=fast)
            points[fast] = point
            requests[fast] = collector.requests
            docs[fast] = json.dumps(
                sim.timeseries_document(), sort_keys=True
            )
        assert points[False].path == "des"
        assert points[True].path == "fast"
        assert (  # lint: ok[R2]
            points[False].latencies_ns == points[True].latencies_ns
        )
        des, fast = points[False], points[True]
        assert fast.mean_ns == sum(des.latencies_ns) / des.batches  # lint: ok[R2]
        assert (fast.achieved_qps, fast.p99_ns) == (des.achieved_qps, des.p99_ns)
        assert des.scale_events == fast.scale_events
        assert docs[False] == docs[True]
        assert len(requests[True]) == fast.batches
        assert requests[False] == requests[True]

    def test_batches_fold_queries(self):
        trace = poisson_trace(1000.0, 10, seed=4)
        sim = ClusterServingSimulator(
            simple_times(nbatch=4), nbatch=4, replicas=2
        )
        point = sim.serve_trace(trace)
        assert point.queries == 10
        assert point.batches == 3  # 4 + 4 + 2

    def test_cluster_metrics_emitted(self):
        metrics = MetricsRegistry(window_ns=5e6)
        trace = poisson_trace(1000.0, 20, seed=6)
        sim = cluster(replicas=2, metrics=metrics)
        sim.serve_trace(trace)
        assert metrics.counter(names.METRIC_CLUSTER_SCALE_EVENTS).value == 0
        series = metrics.series(names.METRIC_CLUSTER_REPLICAS)
        assert series is not None  # gauge sampled at t=0
        assert (
            metrics.counter(names.METRIC_SERVING_BATCHES).value
            == trace.count
        )

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            cluster().serve_trace(())

    @pytest.mark.parametrize(
        "instants, message",
        [
            ([0.0, float("inf")], "finite"),
            ([0.0, float("nan"), 3.0], "finite"),
            ([0.0, 9e6, 5e6], "sorted"),
            ([-1.0, 2.0], "non-negative"),
        ],
    )
    def test_hostile_raw_instants_rejected_before_any_state(self, instants, message):
        """Raw instants are validated at the boundary: before the fix,
        ``inf`` spun `_plan`'s epoch loop forever and NaN / unsorted
        input reached the replica replay only after the plan had fed
        the autoscaler's control registry."""
        scaler = Autoscaler(sla_ns=3 * UNLOADED_NS, window_ns=2e6, epoch_windows=2)
        metrics = MetricsRegistry(window_ns=2e6)
        sim = cluster(replicas=1, autoscaler=scaler, metrics=metrics)
        with returns_within(5.0, "serve_trace"):
            with pytest.raises(ValueError, match=f"arrival times must be {message}"):
                sim.serve_trace(instants)
        assert scaler.control.as_dict()["histograms"] == {}
        assert scaler.events == [] and scaler._epoch == 0
        assert metrics.as_dict()["histograms"] == {}
        assert metrics.as_dict()["gauges"] == {}

    @pytest.mark.parametrize("simulator", (ServingSimulator, ClusterServingSimulator))
    @pytest.mark.parametrize("cycle_ns", (0.0, -5.0, float("nan"), float("inf")))
    def test_hostile_cycle_ns_rejected(self, simulator, cycle_ns):
        """Before the check, 0 divided by zero for the saturation
        rate and the cluster took -5 / NaN / inf as far as ``_replay``,
        after ``_plan`` had fed the autoscaler their latencies."""
        with pytest.raises(ValueError, match="cycle_ns must be positive and finite"):
            simulator(simple_times(), cycle_ns=cycle_ns)

    def test_invalid_replicas_rejected(self):
        with pytest.raises(ValueError):
            cluster(replicas=0)

    @pytest.mark.parametrize("nbatch", (0, -3))
    def test_non_positive_nbatch_rejected(self, nbatch):
        with pytest.raises(ValueError, match="nbatch must be positive"):
            cluster(nbatch=nbatch)

    def test_meets_sla_validates_quantile(self):
        point = cluster().serve_trace(poisson_trace(500.0, 5, seed=8))
        with pytest.raises(ValueError):
            point.meets_sla(1.0, quantile=101.0)

    def test_document_requires_a_run(self):
        with pytest.raises(ValueError):
            cluster(metrics=MetricsRegistry(window_ns=1e6)).timeseries_document()

    def test_bottleneck_signal(self):
        emb_led = cluster()
        assert emb_led._bottleneck() == ("emb", True)
        mlp_led = ClusterServingSimulator(
            simple_times(temb=10_000, tbot=90_000, ttop=20_000)
        )
        assert mlp_led._bottleneck() == ("bot", False)
        # Ties resolve to the earliest stage key: emb before bot/top,
        # bot before top.
        three_way = ClusterServingSimulator(
            simple_times(temb=50_000, tbot=50_000, ttop=50_000)
        )
        assert three_way._bottleneck() == ("emb", True)
        mlp_tie = ClusterServingSimulator(
            simple_times(temb=10_000, tbot=70_000, ttop=70_000)
        )
        assert mlp_tie._bottleneck() == ("bot", False)


class TestAutoscaler:
    def flash_run(self, balancer=BALANCER_JSQ, autoscale=True, max_replicas=8):
        trace = flash_crowd_trace(
            600.0, 2e8, 6e7, 8e7, burst_factor=4.0, seed=3
        )
        scaler = None
        if autoscale:
            scaler = Autoscaler(
                sla_ns=3 * UNLOADED_NS,
                window_ns=2e6,
                max_replicas=max_replicas,
                epoch_windows=2,
            )
        sim = ClusterServingSimulator(
            simple_times(), replicas=1, balancer=balancer, autoscaler=scaler
        )
        return sim.serve_trace(trace)

    def test_flash_crowd_triggers_scale_up(self):
        point = self.flash_run()
        assert point.scale_ups >= 1
        up = next(
            e for e in point.scale_events
            if e.action == names.EVENT_SCALE_UP
        )
        assert up.reason == "burn-rate"
        assert up.severity == names.ALERT_PAGE
        assert up.to_replicas == up.from_replicas + 1
        assert up.bottleneck_stage == "emb"
        assert up.invariant_holds

    def test_autoscaling_beats_fixed_fleet_tail(self):
        fixed = self.flash_run(autoscale=False)
        scaled = self.flash_run(autoscale=True)
        assert scaled.p99_ns < fixed.p99_ns

    def test_idle_tail_scales_back_down(self):
        point = self.flash_run()
        assert point.scale_downs >= 1
        down = next(
            e for e in point.scale_events
            if e.action == names.EVENT_SCALE_DOWN
        )
        assert down.reason == "idle-capacity"
        assert down.utilization < 0.5

    def test_never_exceeds_max_replicas(self):
        point = self.flash_run(max_replicas=2)
        assert max(e.to_replicas for e in point.scale_events) <= 2
        assert point.final_replicas >= 1

    def test_scaling_events_are_time_ordered(self):
        point = self.flash_run()
        stamps = [e.t_ns for e in point.scale_events]
        assert stamps == sorted(stamps)
        # Consecutive replica counts chain: each event starts from the
        # previous event's target.
        for before, after in zip(point.scale_events, point.scale_events[1:]):
            assert after.from_replicas == before.to_replicas

    def test_cooldown_blocks_immediate_scale_down(self):
        """A scale-down never lands in the epoch right after an action
        (cooldown_epochs=1 default)."""
        point = self.flash_run()
        epoch_ns = 2 * 2e6
        for before, after in zip(point.scale_events, point.scale_events[1:]):
            if after.action == names.EVENT_SCALE_DOWN:
                assert after.t_ns - before.t_ns > epoch_ns

    def test_evaluate_holds_without_alerts(self):
        scaler = Autoscaler(sla_ns=1e6, window_ns=1e6)
        signal = EpochSignal(
            t_ns=4e6, replicas=2, alerts=(), offered_qps=900.0,
            capacity_qps=1000.0, bottleneck_stage="emb",
            invariant_holds=True,
        )
        # High utilization, no alerts: hold.
        assert scaler.evaluate(signal) == 0
        assert scaler.events == []

    def test_report_dict_shape(self):
        scaler = Autoscaler(sla_ns=2e6, window_ns=1e6, max_replicas=4)
        report = scaler.report_dict()
        assert report["sla_ns"] == pytest.approx(2e6)
        assert report["max_replicas"] == 4
        assert report["events"] == []

    def test_validation(self):
        with pytest.raises(ValueError):
            Autoscaler(sla_ns=1e6, min_replicas=0)
        with pytest.raises(ValueError):
            Autoscaler(sla_ns=1e6, min_replicas=4, max_replicas=2)
        with pytest.raises(ValueError):
            Autoscaler(sla_ns=1e6, scale_up_step=0)
        with pytest.raises(ValueError):
            Autoscaler(sla_ns=1e6, epoch_windows=0)
        with pytest.raises(ValueError):
            Autoscaler(sla_ns=1e6, scale_down_utilization=1.5)


class TestTimeseriesDocument:
    def test_cluster_section_contents(self):
        scaler = Autoscaler(
            sla_ns=3 * UNLOADED_NS, window_ns=2e6, max_replicas=4,
            epoch_windows=2,
        )
        metrics = MetricsRegistry(window_ns=2e6)
        sim = ClusterServingSimulator(
            simple_times(), replicas=1, balancer=BALANCER_JSQ,
            autoscaler=scaler, metrics=metrics,
        )
        trace = flash_crowd_trace(
            600.0, 2e8, 6e7, 8e7, burst_factor=4.0, seed=3
        )
        point = sim.serve_trace(trace)
        doc = sim.timeseries_document(slo=scaler.engine)
        assert doc["schema"] == "rmssd-timeseries/v1"
        section = doc["cluster"]
        assert section["balancer"] == BALANCER_JSQ
        assert section["initial_replicas"] == 1
        assert len(section["scaling_events"]) == len(point.scale_events)
        assert section["autoscaler"]["max_replicas"] == 4
        assert "path" not in section
        # The shared registry fed the serving series too.
        assert names.METRIC_SERVING_LATENCY in doc["series"]
