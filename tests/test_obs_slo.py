"""SLO engine: declarative objectives and burn-rate alerting.

The load-bearing pin: an *injected* SLA violation fires the alert in
exactly the window where it happened — and nowhere else.  Plus
rising-edge semantics (no re-fire while the condition holds, re-arm
after it clears), default fast/slow rule pairing, validation, and the
report shape embedded in the timeseries document.
"""

import json
import math

import pytest

from repro.obs import BurnRateRule, MetricsRegistry, Objective, SLOEngine, names
from tests.slo_oracle import rescan_alerts, rescan_evaluate, rescan_report

WINDOW_NS = 1000.0


class OracleCheckedEngine(SLOEngine):
    """The engine every scenario in this file runs on: each evaluation
    (so each `alerts` / `report_dict` too) is also compared, as bytes,
    to the full rescan the fold replaced (tests/slo_oracle.py)."""

    def evaluate(self, metrics):
        records = super().evaluate(metrics)
        assert json.dumps(records, sort_keys=True) == json.dumps(
            rescan_evaluate(self, metrics), sort_keys=True
        )
        return records


def windowed_metrics(latency_by_window):
    """A registry whose serving-latency series has one observation per
    (window, latency) pair."""
    metrics = MetricsRegistry(window_ns=WINDOW_NS)
    histogram = metrics.histogram(names.METRIC_SERVING_LATENCY)
    for index, latencies in latency_by_window.items():
        for latency in latencies:
            histogram.observe(latency, t_ns=index * WINDOW_NS + 1.0)
    return metrics


def engine_with_objective(threshold_ns=1000.0, quantile=99.0):
    engine = OracleCheckedEngine(WINDOW_NS)
    engine.objective(
        names.SLO_SERVING_TAIL,
        names.METRIC_SERVING_LATENCY,
        quantile=quantile,
        threshold_ns=threshold_ns,
    )
    return engine


def test_injected_violation_fires_in_that_window_only():
    # Windows 0-9 comply; window 5 blows through the threshold.
    data = {i: [100.0] for i in range(10)}
    data[5] = [5000.0]
    metrics = windowed_metrics(data)
    engine = engine_with_objective()
    alerts = engine.alerts(metrics)
    assert alerts, "injected violation produced no alert"
    assert {a["window"] for a in alerts} == {5}
    assert {a["severity"] for a in alerts} == {
        names.ALERT_PAGE, names.ALERT_TICKET,
    }
    for alert in alerts:
        assert alert["type"] == names.ALERT_BURN_RATE
        assert alert["objective"] == names.SLO_SERVING_TAIL
        assert alert["t_ns"] == 6 * WINDOW_NS  # end of window 5


def test_no_violation_no_alert():
    metrics = windowed_metrics({i: [100.0] for i in range(30)})
    engine = engine_with_objective()
    assert engine.alerts(metrics) == []
    report = engine.evaluate(metrics)[0]
    assert all(w["ok"] for w in report["windows"])


def test_rising_edge_no_refire_while_held():
    # Consecutive violating windows: one page alert, at the first.
    data = {i: [100.0] for i in range(10)}
    data[5] = data[6] = [5000.0]
    metrics = windowed_metrics(data)
    engine = engine_with_objective()
    pages = [
        a for a in engine.alerts(metrics)
        if a["severity"] == names.ALERT_PAGE
    ]
    assert [a["window"] for a in pages] == [5]


def test_rearm_after_clear():
    # Two incidents separated by a long compliant gap: two page alerts.
    data = {i: [100.0] for i in range(30)}
    data[5] = [5000.0]
    data[20] = [5000.0]
    metrics = windowed_metrics(data)
    engine = engine_with_objective()
    pages = [
        a for a in engine.alerts(metrics)
        if a["severity"] == names.ALERT_PAGE
    ]
    assert [a["window"] for a in pages] == [5, 20]


def test_windows_without_data_comply():
    # A gap in completions (windows 3-7 empty) is not a violation.
    data = {0: [100.0], 1: [100.0], 2: [100.0], 8: [100.0]}
    metrics = windowed_metrics(data)
    engine = engine_with_objective()
    report = engine.evaluate(metrics)[0]
    by_index = {w["index"]: w for w in report["windows"]}
    assert by_index[5]["count"] == 0
    assert by_index[5]["ok"]
    assert engine.alerts(metrics) == []


def test_quantile_respects_threshold():
    # One 5 us outlier among 100 fast requests: invisible to a p50
    # objective, a violation for a p99.9 one (target rank 99.9 crosses
    # into the outlier's bucket; rank 99 stays in the fast bucket).
    data = {0: [100.0] * 99 + [5000.0]}
    metrics = windowed_metrics(data)
    p50_engine = engine_with_objective(quantile=50.0)
    tail_engine = engine_with_objective(quantile=99.9)
    assert p50_engine.evaluate(metrics)[0]["windows"][0]["ok"]
    assert not tail_engine.evaluate(metrics)[0]["windows"][0]["ok"]


def test_missing_metric_is_empty_report():
    metrics = MetricsRegistry(window_ns=WINDOW_NS)
    engine = engine_with_objective()
    report = engine.evaluate(metrics)[0]
    assert report["windows"] == []
    assert report["alerts"] == []


def test_report_dict_shape():
    metrics = windowed_metrics({0: [100.0]})
    engine = engine_with_objective()
    report = engine.report_dict(metrics)
    assert report["window_ns"] == WINDOW_NS
    assert [rule["severity"] for rule in report["rules"]] == [
        names.ALERT_PAGE, names.ALERT_TICKET,
    ]
    (objective,) = report["objectives"]
    assert objective["name"] == names.SLO_SERVING_TAIL
    assert objective["metric"] == names.METRIC_SERVING_LATENCY


def test_validation():
    with pytest.raises(ValueError):
        SLOEngine(0.0)
    with pytest.raises(ValueError):
        Objective("o", "m", quantile=0.0, threshold_ns=1.0)
    with pytest.raises(ValueError):
        Objective("o", "m", quantile=50.0, threshold_ns=0.0)
    with pytest.raises(ValueError):
        Objective("o", "m", quantile=50.0, threshold_ns=1.0, budget=0.0)
    with pytest.raises(ValueError):
        BurnRateRule("sev", long_windows=2, short_windows=4, burn_threshold=1.0)
    with pytest.raises(ValueError):
        BurnRateRule("sev", long_windows=0, short_windows=0, burn_threshold=1.0)
    with pytest.raises(ValueError):
        BurnRateRule("sev", long_windows=4, short_windows=2, burn_threshold=0.0)

    # Non-finite thresholds are never reached, so they would silently
    # disable the objective or the rule; fractional spans are not spans.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="threshold_ns must be positive and finite"):
            Objective("o", "m", quantile=50.0, threshold_ns=bad)
        with pytest.raises(ValueError, match="burn_threshold must be positive and finite"):
            BurnRateRule("sev", long_windows=4, short_windows=2, burn_threshold=bad)
    with pytest.raises(ValueError, match="long_windows must be an integer"):
        BurnRateRule("sev", long_windows=2.5, short_windows=2, burn_threshold=1.0)
    with pytest.raises(ValueError, match="short_windows must be an integer"):
        BurnRateRule("sev", long_windows=4, short_windows=1.5, burn_threshold=1.0)


def test_custom_rule_threshold():
    # A rule needing 100% of the short span violating fires only once
    # both trailing windows are bad.
    data = {i: [100.0] for i in range(10)}
    data[4] = data[5] = [5000.0]
    metrics = windowed_metrics(data)
    engine = OracleCheckedEngine(
        WINDOW_NS,
        rules=(
            BurnRateRule(
                severity=names.ALERT_PAGE,
                long_windows=2,
                short_windows=2,
                burn_threshold=100.0,  # 2/2/0.01 == 100: both bad
            ),
        ),
    )
    engine.objective(
        names.SLO_SERVING_TAIL,
        names.METRIC_SERVING_LATENCY,
        quantile=99.0,
        threshold_ns=1000.0,
    )
    assert [a["window"] for a in engine.alerts(metrics)] == [5]


@pytest.mark.parametrize(
    "bad_windows",
    [(), (5,), (5, 6), (5, 20), (0, 1, 2, 3), (29,), (3, 9, 15, 21, 27)],
)
def test_views_match_the_rescan_oracle(bad_windows):
    # The sorted alert stream and the whole `slo` document section,
    # byte for byte, with a gap of empty windows thrown in.
    data = {i: [100.0] for i in range(30) if not 10 <= i < 13}
    for index in bad_windows:
        data[index] = [100.0, 5000.0]
    metrics = windowed_metrics(data)
    engine = engine_with_objective()
    engine.objective("median", names.METRIC_SERVING_LATENCY, quantile=50.0,
                     threshold_ns=2000.0, budget=0.2)
    assert engine.alerts(metrics) == rescan_alerts(engine, metrics)
    assert json.dumps(engine.report_dict(metrics), sort_keys=True) == json.dumps(
        rescan_report(engine, metrics), sort_keys=True
    )
    assert bool(engine.alerts(metrics)) == bool(bad_windows)
