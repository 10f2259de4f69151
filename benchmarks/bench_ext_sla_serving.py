"""Extension — SLA-constrained serving capacity.

The paper opens with SLA requirements but evaluates closed-loop
throughput.  This extension answers the operational question: with
Poisson arrivals, how many QPS can each system sustain while keeping
p99 latency under an SLA?  RM-SSD's tight, cache-free latency
distribution lets it run much closer to its saturation throughput than
the naive SSD path, whose miss-dependent service times force early
over-provisioning.
"""

import pytest

from benchmarks.runner import run_parallel
from repro.analysis.report import Table
from repro.core.device import operating_point
from repro.fpga.compose import StageTimes
from repro.host.serving import ServingSimulator
from repro.models import build_model, get_config

MODELS = ("rmc1", "rmc3")
#: SLA: p99 under 5x the unloaded latency.
SLA_FACTOR = 5.0


def _serving_for(key):
    config = get_config(key)
    model = build_model(config, rows_per_table=64)
    result = operating_point(model, config.lookups_per_table)
    return ServingSimulator(result.times, nbatch=result.nbatch, seed=7), result


def sla_cell(key):
    """One model's sweep + SLA bisection (all points kept)."""
    serving, _result = _serving_for(key)
    sweep = serving.load_sweep(fractions=(0.3, 0.6, 0.9), queries=150)
    unloaded_ns = sweep[0].p50_ns
    search = serving.sla_search(sla_ns=SLA_FACTOR * unloaded_ns, queries=150)
    return (
        serving.saturation_qps,
        sweep,
        search.max_qps,
        unloaded_ns,
        search.points,
    )


def _measure():
    return dict(zip(MODELS, run_parallel(sla_cell, MODELS)))


@pytest.mark.benchmark(group="extension")
def test_ext_sla_serving(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    for key in MODELS:
        saturation, sweep, max_qps, unloaded, probes = results[key]
        table = Table(
            f"Extension ({key.upper()}): RM-SSD latency vs offered load "
            f"(saturation {saturation:.0f} QPS)",
            ["offered QPS", "p50 ms", "p95 ms", "p99 ms"],
        )
        for point in sweep:
            table.add_row(
                f"{point.offered_qps:.0f}",
                f"{point.p50_ns / 1e6:.2f}",
                f"{point.p95_ns / 1e6:.2f}",
                f"{point.p99_ns / 1e6:.2f}",
            )
        table.add_row(
            f"max under SLA (p99 <= {SLA_FACTOR:.0f}x unloaded, "
            f"{len(probes)} probes)",
            f"{max_qps:.0f} QPS", "-", "-",
        )
        table.print()

    for key in MODELS:
        saturation, sweep, max_qps, unloaded, probes = results[key]
        # Latency rises with load.
        assert sweep[-1].p99_ns > sweep[0].p99_ns
        # RM-SSD sustains a large fraction of saturation under the SLA
        # — the tight latency distribution at work.
        assert max_qps > 0.5 * saturation, key
        assert max_qps <= saturation, key
        # The bisection exposes every probe it evaluated (trickle
        # first), so the curve needs no re-simulation.
        assert len(probes) >= 2, key
        assert probes[0].offered_qps == pytest.approx(0.01 * saturation)
