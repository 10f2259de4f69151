"""The burn-rate fold against the rescan it replaced.

`repro.obs.slo.BurnRateFold` reads every window once and keeps running
counts; `tests/slo_oracle.py` is the old implementation, which re-derives
every alert from every window on every call.  The two must agree on
every alert dict — floats included, bit for bit — at *every* autoscaler
epoch, not just at the end of a run, because the controller acts on the
stream as it unfolds.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.host.autoscale import Autoscaler
from repro.host.cluster_serving import BALANCERS, ClusterServingSimulator
from repro.obs import BurnRateRule, MetricsRegistry, SLOEngine, names
from repro.obs.timeseries import WindowedLatency, window_index
from repro.sim.engine import SimulationError
from repro.workloads.arrivals import (
    diurnal_trace,
    flash_crowd_trace,
    poisson_trace,
)
from tests.slo_oracle import (
    rescan_alerts,
    rescan_causal_alerts,
    rescan_report,
)
from tests.test_cluster_serving import UNLOADED_NS, simple_times

WINDOW_NS = 2e6


class CheckedAutoscaler(Autoscaler):
    """An autoscaler that compares its alerts to the rescan oracle at
    every epoch it is asked for them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.epochs = 0
        self.alerts_seen = 0
        self._oracle_last_ns = 0.0

    def causal_alerts(self, t_ns):
        got = super().causal_alerts(t_ns)
        want = rescan_causal_alerts(
            self.engine, self.control, self._oracle_last_ns, t_ns
        )
        assert got == want, f"epoch at {t_ns} ns"
        # Equal dicts with equal floats serialise to the same bytes.
        assert json.dumps(got) == json.dumps(want)
        self._oracle_last_ns = t_ns
        self.epochs += 1
        self.alerts_seen += len(got)
        return got


def fleet_trace(kind, seed):
    if kind == "flash-crowd":
        return flash_crowd_trace(600.0, 2e8, 6e7, 8e7, burst_factor=4.0, seed=seed)
    if kind == "diurnal":
        return diurnal_trace(1200.0, 2e8, 1e8, amplitude=0.9, seed=seed)
    return poisson_trace(1100.0, 220, seed=seed)


def checked_run(trace, replicas, balancer, fast=True, **scaler_kwargs):
    scaler_kwargs.setdefault("epoch_windows", 2)
    scaler = CheckedAutoscaler(
        sla_ns=3 * UNLOADED_NS, window_ns=WINDOW_NS, max_replicas=8, **scaler_kwargs
    )
    fleet = ClusterServingSimulator(
        simple_times(), replicas=replicas, balancer=balancer, autoscaler=scaler
    )
    point = fleet.serve_trace(trace, fast=fast)
    return scaler, point


class TestFoldMatchesRescanAtEveryEpoch:
    """(a) Seeded fleets: multi-replica completions reach the control
    registry out of window order, and the fold must not care."""

    @pytest.mark.parametrize("balancer", BALANCERS)
    @pytest.mark.parametrize("replicas", (1, 2, 3, 6))
    @pytest.mark.parametrize("kind", ("flash-crowd", "diurnal", "poisson"))
    def test_seeded_fleet(self, kind, replicas, balancer):
        alerts = 0
        for seed in (3, 11):
            scaler, point = checked_run(fleet_trace(kind, seed), replicas, balancer)
            assert scaler.epochs >= 40
            assert point.batches == sum(point.per_replica_batches)
            alerts += scaler.alerts_seen
        if replicas == 1:
            # One replica under these traces pages: the comparison is
            # not vacuous.
            assert alerts > 0

    @pytest.mark.parametrize("epoch_windows", (1, 3, 4))
    def test_smoke_flash_crowd_other_cadences(self, epoch_windows):
        scaler, point = checked_run(
            fleet_trace("flash-crowd", 7), 1, "jsq", epoch_windows=epoch_windows
        )
        assert scaler.alerts_seen > 0 and point.scale_ups >= 1

    def test_smoke_des_replay_sees_the_same_plan(self):
        trace = fleet_trace("flash-crowd", 5)
        fast_scaler, fast = checked_run(trace, 1, "jsq", fast=True)
        des_scaler, des = checked_run(trace, 1, "jsq", fast=False)
        assert fast.path == "fast" and des.path == "des"
        assert fast.latencies_ns == des.latencies_ns  # lint: ok[R2]
        assert fast_scaler.report_dict() == des_scaler.report_dict()


# ----------------------------------------------------------------------
# (b) Random streams, fed epoch by epoch
# ----------------------------------------------------------------------
THRESHOLD_NS = 1000.0
LATENCIES = st.sampled_from((100.0, 900.0, 1000.0, 1500.0, 5000.0, 2e11))
#: Stamp offsets past the previous epoch boundary, in windows: mostly
#: near, sometimes far in the future.
OFFSETS = st.one_of(
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
)
OBSERVATIONS = st.lists(st.tuples(LATENCIES, OFFSETS), max_size=6)
RULES = st.lists(
    st.builds(
        lambda severity, long_windows, short, threshold: BurnRateRule(
            severity, long_windows, min(short, long_windows), threshold
        ),
        st.sampled_from((names.ALERT_PAGE, names.ALERT_TICKET, "info")),
        st.integers(1, 9),
        st.integers(1, 9),
        st.sampled_from((2.0, 10.0, 34.0, 50.0, 100.0)),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda rule: rule.severity,
)


def feed_and_compare(epochs, epoch_windows, rules, window_ns=1000.0, per_epoch=True):
    """Observe each epoch's stream, then compare fold and rescan at
    the epoch boundary.  Stamps never precede the previous boundary —
    the dispatcher's causality, which `observe` checks."""
    scaler = Autoscaler(
        sla_ns=THRESHOLD_NS, window_ns=window_ns, epoch_windows=epoch_windows,
        rules=rules,
    )
    last_ns = 0.0
    seen = []
    for number, observations in enumerate(epochs, start=1):
        for latency, offset in observations:
            scaler.observe(latency, last_ns + offset * window_ns)
        t_ns = number * scaler.epoch_ns
        got = scaler.causal_alerts(t_ns)
        if per_epoch:
            assert got == rescan_causal_alerts(
                scaler.engine, scaler.control, last_ns, t_ns
            )
        seen.extend(got)
        last_ns = t_ns
    # Nothing is lost or repeated across epochs: the stream so far is
    # the rescan's whole history over the closed windows.
    closed = window_index(last_ns, window_ns)
    assert seen == [
        alert for alert in rescan_alerts(scaler.engine, scaler.control)
        if alert["window"] < closed
    ]
    return seen


class TestFoldProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        epochs=st.lists(OBSERVATIONS, min_size=1, max_size=14),
        epoch_windows=st.integers(1, 4),
        rules=RULES,
    )
    # Closed empty windows past the last data window: ten silent epochs.
    @example(
        epochs=[[(5000.0, 0.5)]] + [[]] * 10,
        epoch_windows=2,
        rules=[BurnRateRule(names.ALERT_PAGE, 6, 2, 10.0)],
    )
    # Data only far in the future: closed windows all precede it.
    @example(
        epochs=[[(5000.0, 150.0)], [], [(5000.0, 0.0)], []],
        epoch_windows=2,
        rules=[BurnRateRule(names.ALERT_PAGE, 6, 2, 10.0)],
    )
    def test_random_streams(self, epochs, epoch_windows, rules):
        feed_and_compare(epochs, epoch_windows, rules)

    def test_rules_sharing_a_severity_are_refused(self):
        # Found by the property above: with (1/1, 2x) and (2/2, 2x)
        # both "page", a violation in window 0 clears the shared flag
        # in the *empty* window 1 and the second rule then rises there.
        # An alert in a complying window would make "closed windows
        # are final" false, so the configuration is not representable.
        rules = [
            BurnRateRule(names.ALERT_PAGE, 1, 1, 2.0),
            BurnRateRule(names.ALERT_PAGE, 2, 2, 2.0),
        ]
        with pytest.raises(ValueError, match="distinct severities"):
            SLOEngine(1000.0, rules=rules)
        with pytest.raises(ValueError, match="distinct severities"):
            Autoscaler(sla_ns=THRESHOLD_NS, window_ns=1000.0, rules=rules)

    def test_alert_rising_exactly_on_an_epoch_boundary(self):
        # Window 1 violates; its alert is stamped 2 * window == the
        # first epoch boundary, and belongs to that epoch (<=), not
        # the next.
        rules = [BurnRateRule(names.ALERT_PAGE, 6, 2, 10.0)]
        seen = feed_and_compare([[(5000.0, 1.5)], [], []], 2, rules)
        assert [alert["t_ns"] for alert in seen] == [2000.0]
        scaler = Autoscaler(sla_ns=THRESHOLD_NS, window_ns=1000.0, epoch_windows=2)
        scaler.observe(5000.0, 1500.0)
        assert [a["window"] for a in scaler.causal_alerts(2000.0)] == [1, 1]
        assert scaler.causal_alerts(4000.0) == ()

    def test_non_integral_window_width(self):
        # With a width that is not a whole number of ns, the rounded
        # product (index + 1) * window_ns and floor(t / window_ns) can
        # disagree by one window at an epoch boundary.  The fold closes
        # windows by the same floor division that files observations
        # into them, so a stamp *on* the boundary (offset 0.0) is never
        # late — where the rescan, filtering on the product, could have
        # reported a window one epoch before its last observation.  The
        # streams still agree over the closed windows as a whole.
        rules = [BurnRateRule(names.ALERT_PAGE, 3, 1, 30.0)]
        epochs = [[(5000.0, 0.2), (100.0, 1.7)], [(5000.0, 0.9)], [], [(5000.0, 0.0)]]
        seen = feed_and_compare(
            epochs * 5, 3, rules, window_ns=1100000.0000000002, per_epoch=False
        )
        assert seen


# ----------------------------------------------------------------------
# (c) Work done, counted (not timed)
# ----------------------------------------------------------------------
class TestFoldReadsEachWindowOnce:
    @pytest.mark.parametrize("scale", (1, 4))
    def test_window_percentile_calls_are_linear(self, scale, monkeypatch):
        calls = []
        real = WindowedLatency.window_percentile

        def counting(self, index, q):
            calls.append(index)
            return real(self, index, q)

        monkeypatch.setattr(WindowedLatency, "window_percentile", counting)
        duration_ns = 1e8 * scale
        trace = flash_crowd_trace(
            600.0, duration_ns, 0.3 * duration_ns, 0.4 * duration_ns,
            burst_factor=4.0, seed=3,
        )
        scaler = Autoscaler(
            sla_ns=3 * UNLOADED_NS, window_ns=WINDOW_NS, epoch_windows=2
        )
        ClusterServingSimulator(
            simple_times(), replicas=1, balancer="jsq", autoscaler=scaler
        ).serve_trace(trace)
        windows = int(trace.duration_ns // WINDOW_NS) + 1
        assert 0 < len(calls) <= windows + 2
        assert len(set(calls)) == len(calls)  # no window read twice
        # The rescan would have made epochs x windows of them.
        assert scaler._epoch >= windows // 2 - 1


# ----------------------------------------------------------------------
# (d) The causality invariant is checked
# ----------------------------------------------------------------------
class TestCausalityInvariant:
    def test_stale_observation_raises_before_it_is_recorded(self):
        scaler = Autoscaler(sla_ns=1e6, window_ns=1e6, epoch_windows=2)
        scaler.observe(5e5, 2.5e6)
        scaler.causal_alerts(4e6)  # closes windows 0..3
        series = scaler.control.series(names.METRIC_SERVING_LATENCY)
        before = series.total
        with pytest.raises(SimulationError, match="closed at an earlier epoch"):
            scaler.observe(5e5, 3.9e6)
        assert series.total == before
        # The window still open at the boundary is fair game.
        scaler.observe(5e5, 4e6)
        assert series.total == before + 1

    def test_fleet_runs_never_trip_it(self):
        for balancer in BALANCERS:
            scaler, _ = checked_run(fleet_trace("flash-crowd", 9), 2, balancer)
            assert scaler.epochs > 0


# ----------------------------------------------------------------------
# (e) The engine's whole-run views
# ----------------------------------------------------------------------
class TestEngineViews:
    def test_fleet_registry_report_matches_rescan(self):
        metrics = MetricsRegistry(window_ns=WINDOW_NS)
        fleet = ClusterServingSimulator(
            simple_times(), replicas=2, balancer="round-robin", metrics=metrics
        )
        fleet.serve_trace(fleet_trace("flash-crowd", 3))
        engine = SLOEngine(WINDOW_NS)
        engine.objective(
            names.SLO_SERVING_TAIL, names.METRIC_SERVING_LATENCY,
            quantile=99.0, threshold_ns=3 * UNLOADED_NS,
        )
        engine.objective(
            "queue-median", names.METRIC_SERVING_QUEUE,
            quantile=50.0, threshold_ns=UNLOADED_NS, budget=0.05,
        )
        assert engine.alerts(metrics), "scenario should alert"
        assert json.dumps(engine.report_dict(metrics), sort_keys=True) == json.dumps(
            rescan_report(engine, metrics), sort_keys=True
        )
        assert engine.alerts(metrics) == rescan_alerts(engine, metrics)
