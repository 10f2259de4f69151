"""Every field of every serving load point, pinned.

``ServingSimulator.offered_load`` turns one pipeline replay into a
:class:`~repro.host.serving.LoadPoint`: the Erlang gaps, the three
stage chains, the sort, the sequential means and the window summaries.
How any of those is computed may change; the floats may not.  Each
case runs ``load_sweep`` (or one ``sla_search``) and hashes the
``repr`` of every field of every point: ``repr`` round-trips a float
exactly, so one moved bit — or a ``float`` turned into an
``np.float64`` — changes the digest.

The cases span batch sizes 1, 3 (a short remainder batch) and 4, query
counts 1, 7 and 2000 (at batch size 1 every stage chain is long enough
for ``maxplus.serve_chain``'s scan), a windowed simulator and a bottom
stage that outlasts the embedding stage, each on the closed-form
replay and on the DES, which must land on the same literal.  The literals were recorded
before the replay served its stages without copies.  The
``smoke``-named tests are run by ``tools/check.sh`` under
``RMSSD_SANITIZE=1``.
"""

import dataclasses
import hashlib

import pytest

from repro.fpga.compose import StageTimes
from repro.host.serving import ServingSimulator

FRACTIONS = (0.2, 0.6, 0.95)
CYCLE_NS = 5.0


def stage_times(nbatch, tbot=24):
    return StageTimes(temb=60, tbot=tbot, ttop=16, nbatch=nbatch, flash_cycles=40)


def digest(points) -> str:
    """sha256 over ``name=repr(value)`` of every field of every point."""
    hasher = hashlib.sha256()
    for point in points:
        for field in dataclasses.fields(point):
            hasher.update(f"{field.name}={getattr(point, field.name)!r};".encode())
    return hasher.hexdigest()


def serving(nbatch, tbot=24, window_ns=None):
    return ServingSimulator(
        stage_times(nbatch, tbot), CYCLE_NS, nbatch=nbatch, seed=11,
        window_ns=window_ns,
    )


#: (nbatch, queries) -> digest of a three-point sweep.
SWEEPS = {
    (1, 1): "21a4ca844edf288626bd7e23d58f236ebdb2aa9c53d6ae7f351f32053e6b8e80",
    (1, 7): "585ec3daadc811b3068e3ae8f69f3a7cb9995179581c03d7bc30140901d781dc",
    (1, 2000): "ee96dcc958980e9b816683affcb34294f38936ae653e9cbe5d7e702be4168334",
    (3, 1): "c04670730f1d7336551cc22c9aace4d9c71c0022ca6120f1c7461e613aec811a",
    (3, 7): "02d3d00442a43cfdfe90952c6d89faccf5563621c047ce0f765a7be36a4957d8",
    (3, 2000): "6c45d96ab63492716846df3ff51e14438ca679848a3d4ad20cd44fd72c6f4107",
    (4, 1): "a8b5d0bab88f2d649a634ca10a25e40576d82f5a28f1f0ec7d9aba096b39c551",
    (4, 7): "562babfe9ec9fb89cead4cd2bd7cc73a611a12e402f52a19ddafc1c50472d4a1",
    (4, 2000): "038f09c39adadea6fc10c97e8a9dba1ac8bbab0a1f398baeeef46f9e251b08e7",
}

#: A 3-batch sweep of 2000 queries with 20 us completion windows.
WINDOWED = "c881704e04cafb5ff6a7d4bd19901a777693bfc4da262ec8a63ec7ca0dd6ba0a"

#: A 1-batch sweep of 2000 queries whose bottom stage outlasts the
#: embedding stage, so it sets every batch's ready time.
BOTTOM_LED = "5e715b9fea4d32f87ca0e443649896660f0c45b2fa244f746ed00ab2de2503b3"

#: ``(repr(max_qps), digest(points))`` of one SLA bisection.
SLA_SEARCH = (
    "1458333.3333333335",
    "bad778c5c0ffdef88afe446556dc7611e28b12cc475b9a4445ef9ad868b666dc",
)


@pytest.mark.parametrize("fast", (True, False), ids=("fast", "des"))
@pytest.mark.parametrize("nbatch, queries", sorted(SWEEPS))
def test_smoke_sweep_pinned(nbatch, queries, fast):
    points = serving(nbatch).load_sweep(FRACTIONS, queries=queries, fast=fast)
    assert digest(points) == SWEEPS[nbatch, queries]


@pytest.mark.parametrize("fast", (True, False), ids=("fast", "des"))
def test_smoke_windowed_sweep_pinned(fast):
    points = serving(3, window_ns=20_000.0).load_sweep(
        FRACTIONS, queries=2000, fast=fast
    )
    assert all(point.windows for point in points)
    assert digest(points) == WINDOWED


@pytest.mark.parametrize("fast", (True, False), ids=("fast", "des"))
def test_smoke_bottom_led_sweep_pinned(fast):
    points = serving(1, tbot=90).load_sweep(FRACTIONS, queries=2000, fast=fast)
    assert digest(points) == BOTTOM_LED


@pytest.mark.parametrize("fast", (True, False), ids=("fast", "des"))
def test_smoke_sla_search_pinned(fast):
    simulator = serving(1)
    unloaded_ns = simulator.pipeline.run(1, fast=fast).makespan_ns
    result = simulator.sla_search(3 * unloaded_ns, queries=2000, fast=fast)
    assert len(result.points) > 2
    assert (repr(result.max_qps), digest(result.points)) == SLA_SEARCH
