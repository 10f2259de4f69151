"""Serving fast-path speedup: closed-form sweep replay vs the DES.

Runs the RMC2 latency-vs-load curve (6 offered loads x 200 Poisson
queries) twice — once through the event-driven pipeline reference,
once through the closed-form replay (``repro/core/pipeline_fast.py``)
— and reports the wall-clock ratio.  The two sweeps must agree
exactly: every :class:`LoadPoint` field including the raw per-batch
latencies, and byte-identical utilization profiles.

The payload also times a full Fig. 12 + Fig. 13 regeneration through
the process-parallel bench runner and holds it to a committed
wall-clock budget (``max_wall_s``), so a slow-path regression in the
bench harness itself fails the gate, not just the sweep.

Results land in ``BENCH_sweep.json`` for automated gates.  Not part of
``make bench`` (no ``benchmark`` fixture); run via ``make bench-sweep``.
``RMSSD_BENCH_SWEEP_QUERIES`` scales the sweep down for quick checks
(the speedup floor is only asserted at full size, where wall-clock
noise is small relative to the DES run).
"""

import os
import time

from benchmarks import bench_fig12_throughput as fig12
from benchmarks import bench_fig13_latency as fig13
from repro.analysis.report import Table, emit_json
from repro.core.device import operating_point
from repro.host.serving import ServingSimulator
from repro.models import build_model, get_config
from repro.obs.profiler import Profiler

QUERIES = int(os.environ.get("RMSSD_BENCH_SWEEP_QUERIES", "200"))
FRACTIONS = (0.2, 0.4, 0.6, 0.8, 0.9, 0.95)
#: Wall clock is min-of-N per path: the sweep is deterministic, so the
#: fastest repeat is the least-noise estimate of its true cost.
REPEATS = 3
MIN_SPEEDUP = 15.0
#: Committed budget for regenerating Fig. 12 + Fig. 13 through the
#: parallel runner (measured ~20 s sequential on the reference box).
MAX_WALL_S = 90.0

#: Every LoadPoint field, compared exactly between the two paths.
_POINT_FIELDS = (
    "offered_qps",
    "achieved_qps",
    "p50_ns",
    "p95_ns",
    "p99_ns",
    "mean_ns",
    "mean_queue_ns",
    "latencies_ns",
)


def _serving(profiler=None):
    """The RMC2 serving pipeline under the kernel-search operating point."""
    config = get_config("rmc2")
    model = build_model(config, rows_per_table=64)
    result = operating_point(model, config.lookups_per_table)
    return ServingSimulator(
        result.times, nbatch=result.nbatch, seed=7, profiler=profiler
    )


def _timed_sweep(serving, fast):
    begin = time.perf_counter()
    points = serving.load_sweep(fractions=FRACTIONS, queries=QUERIES, fast=fast)
    return points, time.perf_counter() - begin


def sweeps_bitwise_equal(des_points, fast_points) -> bool:
    """Exact equality of every field of every sweep point."""
    if len(des_points) != len(fast_points):
        return False
    return all(
        getattr(des, field) == getattr(fast, field)
        for des, fast in zip(des_points, fast_points)
        for field in _POINT_FIELDS
    )


def profiles_bitwise_equal(tmp_path) -> bool:
    """Byte-identical profiler exports from one sweep on each path."""
    exports = []
    for label, fast in (("des", False), ("fast", True)):
        profiler = Profiler()
        serving = _serving(profiler=profiler)
        serving.load_sweep(fractions=FRACTIONS, queries=QUERIES, fast=fast)
        path = tmp_path / f"profile_{label}.json"
        profiler.export_json(str(path))
        exports.append(path.read_bytes())
    return exports[0] == exports[1]


def test_sweep_speedup(tmp_path):
    serving = _serving()
    # Warm both paths (first-call import/alloc costs are not the
    # steady-state cost of either), then take min-of-REPEATS.
    _timed_sweep(serving, fast=True)
    _timed_sweep(serving, fast=False)
    des_points, des_wall_s = _timed_sweep(serving, fast=False)
    fast_points, fast_wall_s = _timed_sweep(serving, fast=True)
    for _ in range(REPEATS - 1):
        des_wall_s = min(des_wall_s, _timed_sweep(serving, fast=False)[1])
        fast_wall_s = min(fast_wall_s, _timed_sweep(serving, fast=True)[1])

    # Equivalence first — a fast wrong answer is worthless.
    bitwise = sweeps_bitwise_equal(des_points, fast_points)
    bitwise = bitwise and profiles_bitwise_equal(tmp_path)
    assert bitwise

    speedup = des_wall_s / fast_wall_s

    # Full figure regeneration through the parallel runner, against
    # the committed budget.
    begin = time.perf_counter()
    fig12._measure(None)
    fig13._measure(None)
    fig_wall_s = time.perf_counter() - begin
    assert fig_wall_s <= MAX_WALL_S

    table = Table(
        f"Serving sweep, RMC2, {len(FRACTIONS)} loads x {QUERIES} queries "
        f"(min of {REPEATS})",
        ["path", "wall clock"],
    )
    table.add_row("des", f"{des_wall_s * 1e3:.1f}ms")
    table.add_row("fast", f"{fast_wall_s * 1e3:.2f}ms")
    table.add_row("speedup", f"{speedup:.1f}x")
    table.add_row("fig12+13 regen", f"{fig_wall_s:.1f}s / {MAX_WALL_S:.0f}s budget")
    table.print()

    emit_json(
        "sweep",
        {
            "model": "rmc2",
            "queries": QUERIES,
            "fractions": list(FRACTIONS),
            "sweep_points": len(FRACTIONS),
            "repeats": REPEATS,
            "des_wall_s": des_wall_s,
            "fast_wall_s": fast_wall_s,
            "speedup": speedup,
            "bitwise_equal": bitwise,
            "min_speedup": MIN_SPEEDUP,
            "wall_s": fig_wall_s,
            "max_wall_s": MAX_WALL_S,
        },
    )
    if QUERIES >= 200:
        assert speedup >= MIN_SPEEDUP
