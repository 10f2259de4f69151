"""Extension — per-window SLO timeline under a flash crowd.

The serving benchmarks report run-aggregate percentiles, which is how
a flash crowd hides: a two-window overload inside a long compliant run
barely moves the run p99.  This extension drives the serving pipeline
with an explicit flash-crowd arrival pattern (steady Poisson load with
a dense mid-run burst), rolls completions into fixed windows on the
simulated clock, and evaluates the serving-tail SLO per window with
multi-window burn-rate alerting.  The timeline shows what the
aggregate cannot: the exact windows where the tail objective burned
through its budget, and the page/ticket alerts firing there and
nowhere else.
"""

import numpy as np
import pytest

from repro.analysis.report import Table
from repro.core.device import operating_point
from repro.host.serving import ServingSimulator
from repro.models import build_model, get_config
from repro.obs import MetricsRegistry, SLOEngine, names

MODEL = "rmc1"
#: Windows of steady load before / after the crowd.
STEADY_BATCHES = 60
#: Batches packed into the crowd.
CROWD_BATCHES = 40
#: SLO: per-window p99 under this multiple of the unloaded latency.
SLA_FACTOR = 5.0


def _serving_for(key, window_ns):
    config = get_config(key)
    model = build_model(config, rows_per_table=64)
    result = operating_point(model, config.lookups_per_table)
    metrics = MetricsRegistry(window_ns=window_ns)
    return (
        ServingSimulator(
            result.times,
            nbatch=result.nbatch,
            seed=13,
            metrics=metrics,
            window_ns=window_ns,
        ),
        metrics,
    )


def _flash_crowd_arrivals(serving, rng):
    """Steady Erlang-thinned Poisson at 30% saturation with a dense
    burst (back-to-back batches) injected in the middle."""
    steady_gap_ns = serving.nbatch * 1e9 / (0.3 * serving.saturation_qps)
    crowd_gap_ns = serving.nbatch * 1e9 / (5.0 * serving.saturation_qps)
    gaps = np.concatenate([
        rng.exponential(steady_gap_ns, size=STEADY_BATCHES),
        rng.exponential(crowd_gap_ns, size=CROWD_BATCHES),
        rng.exponential(steady_gap_ns, size=STEADY_BATCHES),
    ])
    arrivals = np.cumsum(gaps) - gaps[0]
    crowd_start_ns = arrivals[STEADY_BATCHES]
    crowd_end_ns = arrivals[STEADY_BATCHES + CROWD_BATCHES - 1]
    return list(arrivals), crowd_start_ns, crowd_end_ns


def _measure():
    probe, _ = _serving_for(MODEL, window_ns=1e9)
    unloaded_ns = probe.offered_load(
        0.01 * probe.saturation_qps, queries=40
    ).p50_ns
    # ~8 batches of steady load per window.
    window_ns = 8 * probe.nbatch * 1e9 / (0.3 * probe.saturation_qps)

    serving, metrics = _serving_for(MODEL, window_ns=window_ns)
    arrivals, crowd_start_ns, crowd_end_ns = _flash_crowd_arrivals(
        serving, np.random.default_rng(29)
    )
    serving.pipeline.run(len(arrivals), arrival_times_ns=arrivals)

    slo = SLOEngine(window_ns)
    slo.objective(
        names.SLO_SERVING_TAIL,
        names.METRIC_SERVING_LATENCY,
        quantile=99.0,
        threshold_ns=SLA_FACTOR * unloaded_ns,
    )
    return {
        "window_ns": window_ns,
        "unloaded_ns": unloaded_ns,
        "crowd_windows": (
            int(crowd_start_ns // window_ns),
            int(crowd_end_ns // window_ns),
        ),
        "report": slo.report_dict(metrics),
    }


@pytest.mark.benchmark(group="extension")
def test_ext_slo_timeline(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    (objective,) = results["report"]["objectives"]
    alerts_by_window = {}
    for alert in objective["alerts"]:
        alerts_by_window.setdefault(alert["window"], []).append(
            alert["severity"]
        )
    crowd_first, crowd_last = results["crowd_windows"]

    table = Table(
        f"Extension ({MODEL.upper()}): per-window p99 vs "
        f"{SLA_FACTOR:.0f}x-unloaded SLO, "
        f"{results['window_ns'] / 1e6:.1f} ms windows "
        f"(crowd spans windows {crowd_first}-{crowd_last})",
        ["window", "batches", "p99 ms", "ok", "alerts"],
    )
    for window in objective["windows"]:
        table.add_row(
            f"{window['index']}",
            f"{window['count']}",
            f"{window['value_ns'] / 1e6:.2f}" if window["count"] else "-",
            "yes" if window["ok"] else "NO",
            ",".join(alerts_by_window.get(window["index"], [])) or "-",
        )
    table.print()

    windows = {w["index"]: w for w in objective["windows"]}
    # The crowd violates the tail objective; the steady lead-in complies.
    violating = [i for i, w in windows.items() if not w["ok"]]
    assert violating, "flash crowd never violated the SLO"
    assert min(violating) >= crowd_first
    # Burn-rate alerting localizes the incident: at least one page or
    # ticket, every alert at/after the crowd onset, none in the lead-in.
    assert objective["alerts"], "violation produced no alerts"
    assert all(a["window"] >= crowd_first for a in objective["alerts"])
    severities = {a["severity"] for a in objective["alerts"]}
    assert severities <= {names.ALERT_PAGE, names.ALERT_TICKET}
