"""SLA autoscaling under a flash crowd: closed-loop vs fixed fleet.

Serves one seeded flash-crowd arrival trace (0.7x saturation baseline,
a 4x burst for 40% of the run) against two fleets of the same RMC1
pipeline:

* **fixed** — one replica, no controller.  The burst outruns the
  device ~3x, the queue grows for the whole burst window, and the
  run-aggregate p99 blows through the SLA.
* **autoscaled** — the same single replica plus the burn-rate
  :class:`~repro.host.autoscale.Autoscaler`.  The controller alerts on
  a tighter internal threshold (SLA/4, standard burn-rate practice:
  page *before* the customer-visible objective is gone), scales out
  during the burst, and drains back to one replica afterwards.

The payload commits the controller's win — the autoscaled fleet meets
the p99 SLA the fixed fleet violates — and the cluster equivalence
contract: the DES and closed-form replay must export byte-identical
``rmssd-timeseries/v1`` documents, scaling-event log included.

Results land in ``BENCH_autoscale.json`` for the
``tools/bench_compare.py`` gate.  Not part of ``make bench`` (no
``benchmark`` fixture); run via ``make bench-autoscale``.
"""

import json
import time

from repro.analysis.report import Table, emit_json
from repro.core.device import operating_point
from repro.host.autoscale import Autoscaler
from repro.host.cluster_serving import ClusterServingSimulator
from repro.models import build_model, get_config
from repro.obs import MetricsRegistry, Profiler
from repro.workloads.arrivals import flash_crowd_trace

MODEL = "rmc1"
SEED = 7
DURATION_NS = 3e8
BURST_START_NS = 9e7
BURST_DURATION_NS = 1.2e8
BURST_FACTOR = 4.0
BASE_LOAD = 0.7
SLA_NS = 4e7
QUANTILE = 99.0
#: Burn-rate alerts page on SLA/4: detection delay scales with the
#: alerting threshold, so alerting at the SLA itself would let the
#: backlog grow ~3x past it before the controller reacts.
ALERT_DIVISOR = 4.0
WINDOW_NS = 2e6
MAX_REPLICAS = 6
SCALE_UP_STEP = 2
BALANCER = "jsq"
#: Committed wall-clock budget for the four fleet runs below (two DES,
#: two fast; 0.1-0.2 s together).  Generous, because the gate runs on
#: shared machines: it catches a fleet layer gone badly wrong, and gives
#: check.sh's injected-blowout canary something to trip.  That the
#: control loop stays linear in the trace is gated by counts, not
#: clocks, in tests/test_slo_fold.py.
MAX_WALL_S = 2.0


def _operating_point():
    config = get_config(MODEL)
    model = build_model(config, rows_per_table=64)
    return operating_point(model, config.lookups_per_table)


def _autoscaler():
    return Autoscaler(
        sla_ns=SLA_NS / ALERT_DIVISOR,
        quantile=QUANTILE,
        window_ns=WINDOW_NS,
        min_replicas=1,
        max_replicas=MAX_REPLICAS,
        scale_up_step=SCALE_UP_STEP,
        epoch_windows=2,
    )


def _serve(result, trace, scaler, fast):
    metrics = MetricsRegistry(window_ns=WINDOW_NS)
    sim = ClusterServingSimulator(
        result.times,
        nbatch=result.nbatch,
        replicas=1,
        balancer=BALANCER,
        autoscaler=scaler,
        metrics=metrics,
        profiler=Profiler(),
    )
    point = sim.serve_trace(trace, fast=fast)
    document = json.dumps(sim.timeseries_document(), sort_keys=True)
    return point, document


def test_autoscale_flash_crowd():
    result = _operating_point()
    replica_qps = result.times.throughput_qps(1e9 / 5.0)
    trace = flash_crowd_trace(
        BASE_LOAD * replica_qps,
        DURATION_NS,
        burst_start_ns=BURST_START_NS,
        burst_duration_ns=BURST_DURATION_NS,
        burst_factor=BURST_FACTOR,
        seed=SEED,
    )
    sla_ns = SLA_NS

    begin = time.perf_counter()
    fixed, fixed_doc = _serve(result, trace, None, fast=False)
    auto, auto_doc = _serve(result, trace, _autoscaler(), fast=False)
    fixed_fast, fixed_fast_doc = _serve(result, trace, None, fast=True)
    auto_fast, auto_fast_doc = _serve(result, trace, _autoscaler(), fast=True)
    wall_s = time.perf_counter() - begin

    # Equivalence first: both fleets must export byte-identical
    # timeseries documents (scaling-event log included) on both paths.
    bitwise = fixed_doc == fixed_fast_doc and auto_doc == auto_fast_doc
    bitwise = bitwise and auto.latencies_ns == auto_fast.latencies_ns  # lint: ok[R2]
    assert bitwise

    # The controller's win: the fixed fleet violates the SLA the
    # autoscaled fleet meets, and the burst really forced a scale-out.
    assert not fixed.meets_sla(sla_ns, QUANTILE)
    assert auto.meets_sla(sla_ns, QUANTILE)
    assert auto.scale_ups >= 1
    assert auto.scale_downs >= 1
    assert wall_s <= MAX_WALL_S

    table = Table(
        f"Flash crowd on {MODEL.upper()}: {trace.count} queries, "
        f"{BURST_FACTOR:g}x burst, SLA p{QUANTILE:g} <= {SLA_NS / 1e6:g} ms",
        ["fleet", "p99 ms", "replicas", "SLA"],
    )
    table.add_row(
        "fixed", f"{fixed.p99_ns / 1e6:.2f}",
        f"{fixed.initial_replicas}->{fixed.final_replicas}", "VIOLATED",
    )
    table.add_row(
        "autoscaled", f"{auto.p99_ns / 1e6:.2f}",
        f"{auto.initial_replicas}->{auto.final_replicas}",
        f"ok ({auto.scale_ups} up / {auto.scale_downs} down)",
    )
    table.print()

    emit_json(
        "autoscale",
        {
            "model": MODEL,
            "arrivals": "flash-crowd",
            "queries": trace.count,
            "balancer": BALANCER,
            "sla_ms": SLA_NS / 1e6,
            "quantile": QUANTILE,
            "alert_threshold_ms": SLA_NS / ALERT_DIVISOR / 1e6,
            "window_ms": WINDOW_NS / 1e6,
            "burst_factor": BURST_FACTOR,
            "initial_replicas": 1,
            "max_replicas": MAX_REPLICAS,
            "scale_up_step": SCALE_UP_STEP,
            "fixed": {
                "p99_ms": fixed.p99_ns / 1e6,
                "meets_sla": fixed.meets_sla(sla_ns, QUANTILE),
                "final_replicas": fixed.final_replicas,
            },
            "autoscaled": {
                "p99_ms": auto.p99_ns / 1e6,
                "meets_sla": auto.meets_sla(sla_ns, QUANTILE),
                "scale_ups": auto.scale_ups,
                "scale_downs": auto.scale_downs,
                "final_replicas": auto.final_replicas,
            },
            "bitwise_equal": bitwise,
            "wall_s": wall_s,
            "max_wall_s": MAX_WALL_S,
        },
    )
