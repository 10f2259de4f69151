"""Fast-path speedup: vectorized replay vs per-read DES processes.

Runs one RMC2-shaped batch (32 tables x 120 lookups x 256 samples =
983 K vector reads by default) through the embedding lookup engine
twice — once on the discrete-event reference, once on the vectorized
fast path — and reports the wall-clock ratio.  The two runs must agree
exactly (same simulated time, bitwise-identical pooled outputs); the
speedup is the point of the exercise.

Results land in ``BENCH_fastpath.json`` for automated gates.  Not part
of ``make bench`` (no ``benchmark`` fixture); run via ``make
bench-fast``.  ``RMSSD_BENCH_FAST_SAMPLES`` scales the batch down for
quick checks.
"""

import os
import time

from pytest import approx

from benchmarks.conftest import make_requests
from repro.analysis.report import Table, emit_json, format_seconds
from repro.core.device import RMSSD

SAMPLES = int(os.environ.get("RMSSD_BENCH_FAST_SAMPLES", "256"))
MIN_SPEEDUP = 40.0


def _run_once(model, config, batch, fast):
    """Fresh device per run so both paths start from identical state."""
    device = RMSSD(model, config.lookups_per_table)
    begin = time.perf_counter()
    lookup = device.lookup_engine.lookup_batch(batch, fast=fast)
    wall_s = time.perf_counter() - begin
    return lookup, wall_s


def test_fastpath_speedup(models):
    config, model = models["rmc2"]
    request = make_requests(config, batch_size=SAMPLES, count=1)[0]
    batch = request.sparse

    fast_lookup, fast_wall_s = _run_once(model, config, batch, fast=True)
    des_lookup, des_wall_s = _run_once(model, config, batch, fast=False)
    assert fast_lookup.path == "fast"
    assert des_lookup.path == "des"
    # Equivalence first — a fast wrong answer is worthless.
    assert fast_lookup.vectors_read == des_lookup.vectors_read
    assert fast_lookup.elapsed_ns == approx(des_lookup.elapsed_ns, rel=0, abs=0)
    assert fast_lookup.pooled.tobytes() == des_lookup.pooled.tobytes()

    speedup = des_wall_s / fast_wall_s

    table = Table(
        f"Fast path vs DES, RMC2, {SAMPLES}-sample batch "
        f"({des_lookup.vectors_read} vector reads)",
        ["path", "wall clock", "simulated"],
    )
    table.add_row("des", f"{des_wall_s:.2f}s", format_seconds(des_lookup.elapsed_ns))
    table.add_row("fast", f"{fast_wall_s:.2f}s", format_seconds(fast_lookup.elapsed_ns))
    table.add_row("speedup", f"{speedup:.1f}x", "-")
    table.print()

    emit_json(
        "fastpath",
        {
            "model": config.name,
            "samples": SAMPLES,
            "vectors_read": des_lookup.vectors_read,
            "des_wall_s": des_wall_s,
            "fast_wall_s": fast_wall_s,
            "speedup": speedup,
            "simulated_ns": des_lookup.elapsed_ns,
            "bitwise_equal": True,
            "min_speedup": MIN_SPEEDUP,
        },
    )
    if SAMPLES >= 256:
        assert speedup >= MIN_SPEEDUP
