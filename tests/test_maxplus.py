"""The one FIFO-server replay, ``repro.sim.maxplus``, against its oracles.

Two oracles, neither sharing code with what it checks:

* ``Server.serve`` itself — real calls on a ``Simulator``, each job
  offered at its instant, the caller's resume time read off the event
  kernel's clock and the start/finish off the profiler hook — for the
  scalar step, the one-instant burst, the chain kernel's scalar loop
  and ``SSDController.serve_ftl_batch`` (against real ``_ftl_lookup``
  calls);
* for ``serve_chain``'s segmented scan, the scalar loop, kept by
  reference so a test may replace the fallback without touching what
  it is compared against.

The ``smoke``-named case is run by ``tools/check.sh`` under
``RMSSD_SANITIZE=1``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Server, Simulator, maxplus
from repro.sim.workspace import Workspace
from repro.ssd.controller import SSDController
from repro.ssd.geometry import SSDGeometry


def bits(values):
    """Float64 bit patterns: equal bits is the contract, ``-0.0``
    included."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class Services:
    """Profiler stand-in: every recorded service triple, in order, one
    at a time or from columns."""

    def __init__(self):
        self.jobs = []

    def record_service(self, name, offered, start, finish, kind="server"):
        self.jobs.append((name, offered, start, finish, kind))

    def record_services(self, name, offered, starts, finishes, kind="server"):
        for triple in zip(offered.tolist(), starts.tolist(), finishes.tolist()):
            self.record_service(name, *triple, kind)


def server_oracle(arrivals, durations, free0=0.0):
    """``Server.serve`` called at each of the sorted ``arrivals`` on a
    server whose previous job ends at ``free0``.

    Returns ``(offered, starts, finishes, resumes, server)``: the clock
    each call saw, the profiler's start/finish, and when each caller's
    event fired.
    """
    sim = Simulator()
    services = sim.profiler = Services()
    server = Server(sim)
    server._free_at = free0
    resumes = [None] * len(arrivals)
    for index, (t, duration) in enumerate(zip(arrivals, durations)):
        # Fire everything due by t, then stand the clock exactly on t.
        sim.run(until=t)
        sim.now = t
        server.serve(duration).add_callback(
            lambda _event, index=index: resumes.__setitem__(index, sim.now)
        )
    sim.run()
    offered, starts, finishes = np.array(
        [job[1:4] for job in services.jobs], dtype=np.float64
    ).reshape(-1, 3).T
    return offered, starts, finishes, resumes, server


# Integer grids tie at every other step; -0.0 is the signed zero the
# DES's max() must resolve like the replay's `>=`; the free floats
# make the `t + (finish - t)` round trip inexact.
_INSTANT = st.one_of(
    st.just(-0.0), st.integers(0, 12).map(float),
    st.floats(0.0, 1e3, allow_nan=False),
)
_GAP = st.one_of(st.just(0.0), st.integers(0, 3).map(float), st.floats(0.0, 50.0))
_DURATION = st.one_of(
    st.just(0.0), st.just(-0.0), st.integers(0, 3).map(float),
    st.floats(0.0, 50.0),
)
# free_at before, at or after the first offer.
_FREE = st.one_of(st.just(-0.0), st.just(0.0), st.integers(-3, 15).map(float))


@settings(max_examples=200, deadline=None)
@given(
    first=_INSTANT,
    jobs=st.lists(st.tuples(_GAP, _DURATION), min_size=1, max_size=40),
    free0=_FREE,
)
def test_property_serve_and_chain_loop_match_server(first, jobs, free0):
    gaps, durations = zip(*jobs)
    arrivals = np.add.accumulate([first] + list(gaps[1:])).tolist()
    offered, starts, finishes, resumes, server = server_oracle(
        arrivals, durations, free0
    )
    assert bits(offered) == bits(arrivals)
    # The scalar step, job by job.
    stepped, free = [], free0
    for t, duration in zip(arrivals, durations):
        start, free, resumed = maxplus.serve(t, free, duration)
        stepped.append((start, free, resumed))
    assert bits(stepped) == bits(list(zip(starts, finishes, resumes)))
    # The chain kernel's scalar loop and the public entry point.
    t, d = np.asarray(arrivals), np.asarray(durations)
    for chain_starts, chain_finishes in (
        maxplus._serve_chain_loop(t, d, free0), maxplus.serve_chain(t, d, free0)
    ):
        assert bits(chain_starts) == bits(starts)
        assert bits(chain_finishes) == bits(finishes)
        assert bits(maxplus.resume(t, chain_finishes)) == bits(resumes)
    assert bits(server.free_at) == bits(finishes[-1])
    assert bits(maxplus.busy_sum(0.0, d)) == bits(server.busy_time)


@settings(max_examples=150, deadline=None)
@given(
    t=_INSTANT,
    free0=_FREE,
    durations=st.lists(_DURATION, max_size=30),
)
def test_property_serve_burst_matches_server(t, free0, durations):
    # Every job offered at one instant: one busy run from max(t, free).
    _, starts, finishes, resumes, server = server_oracle(
        [t] * len(durations), durations, free0
    )
    burst_starts, burst_finishes = maxplus.serve_burst(
        t, free0, np.asarray(durations, dtype=np.float64), Workspace()
    )
    assert [bits(burst_starts), bits(burst_finishes)] == [bits(starts), bits(finishes)]
    assert bits(maxplus.resume(t, burst_finishes)) == bits(resumes)
    assert bits(maxplus.busy_sum(0.0, durations)) == bits(server.busy_time)


def test_smoke_scan_sized_chain_matches_server(fallbacks):
    # A chain long enough for the segmented scan, against Server.serve
    # call by call: the moved kernel's fast leg under the real oracle.
    rng = np.random.default_rng(25)
    n = 2 * maxplus.VECTOR_MIN_JOBS + 100
    arrivals = np.add.accumulate(rng.exponential(90.0, size=n))
    durations = rng.choice([0.0, 60.0, 100.0, 100.0], size=n)
    _, starts, finishes, resumes, _ = server_oracle(
        arrivals.tolist(), durations.tolist(), 37.5
    )
    chain_starts, chain_finishes = maxplus.serve_chain(arrivals, durations, 37.5)
    assert bits(chain_starts) == bits(starts)
    assert bits(chain_finishes) == bits(finishes)
    assert bits(maxplus.resume(arrivals, chain_finishes)) == bits(resumes)
    assert fallbacks == []


# ----------------------------------------------------------------------
# serve_ftl_batch: one burst on the FTL MUX vs `count` real lookups
# ----------------------------------------------------------------------
def _controller():
    sim = Simulator()
    sim.profiler = Services()
    geometry = SSDGeometry(
        channels=2, dies_per_channel=2, planes_per_die=1,
        blocks_per_plane=4, pages_per_block=8,
    )
    return SSDController(sim, geometry)


def _issue_lookups(controller, count):
    """``count`` real ``_ftl_lookup`` calls issued now; the returned
    list fills with their resume times as the events fire."""
    sim = controller.sim
    resumes = [None] * count
    for index in range(count):
        controller._ftl_lookup().add_callback(
            lambda _event, index=index: resumes.__setitem__(index, sim.now)
        )
    return resumes


def _issue_batch(controller, count):
    return controller.serve_ftl_batch(count, Workspace()).tolist()


def _ftl_state(issue, count):
    """Two batches of ``count`` FTL passes — one on an idle server at
    t=0 (``now == free_at``), one issued a third of the way into the
    first's busy run (``free_at`` after now) — and what they leave."""
    controller = _controller()
    sim, server = controller.sim, controller._ftl_server
    first = issue(controller, count)
    sim.run(until=server.free_at / 3)
    second = issue(controller, count)
    sim.run()
    return (
        bits(first + second),
        bits([server.free_at, server.busy_time]),
        server.jobs_served,
        [
            (name, bits([offered, start, finish]), kind)
            for name, offered, start, finish, kind in sim.profiler.jobs
        ],
    )


@pytest.mark.parametrize("count", (0, 1, 5000))
def test_serve_ftl_batch_matches_ftl_lookups(count):
    des = _ftl_state(_issue_lookups, count)
    assert _ftl_state(_issue_batch, count) == des
    assert des[2] == 2 * count


# ----------------------------------------------------------------------
# serve_chain: the segmented scan vs the reference loop
# ----------------------------------------------------------------------
CHAIN_JOBS = 3 * maxplus.VECTOR_MIN_JOBS


#: The oracle keeps its own reference to the scalar recurrence, so a
#: test may replace ``maxplus._serve_chain_loop`` (the fallback)
#: without touching what it is compared against.
REFERENCE_LOOP = maxplus._serve_chain_loop


def chain_loop(arrivals, durations, free0=0.0):
    return REFERENCE_LOOP(
        np.ascontiguousarray(arrivals, dtype=np.float64),
        np.ascontiguousarray(durations, dtype=np.float64),
        float(free0),
    )


def assert_chain_bitwise(arrivals, durations, free0=0.0):
    loop = chain_loop(arrivals, durations, free0)
    chain = maxplus.serve_chain(arrivals, durations, free0)
    for a, b in zip(loop, chain):
        assert a.tobytes() == b.tobytes()


@pytest.fixture
def fallbacks(monkeypatch):
    """Sizes of the chains ``serve_chain`` handed to the loop."""
    seen = []

    def counting_loop(t, d, free):
        seen.append(t.size)
        return REFERENCE_LOOP(t, d, free)

    monkeypatch.setattr(maxplus, "_serve_chain_loop", counting_loop)
    return seen


@pytest.mark.parametrize("utilization", (0.2, 0.6, 0.95, 1.0, 2.0))
def test_serve_chain_scan_matches_loop(utilization, fallbacks):
    rng = np.random.default_rng(int(utilization * 10))
    arrivals = np.add.accumulate(
        rng.exponential(100.0 / utilization, size=CHAIN_JOBS)
    )
    # Constant, mixed-with-zero and jittered durations.
    assert_chain_bitwise(arrivals, np.full(CHAIN_JOBS, 75.0))
    assert_chain_bitwise(
        arrivals, rng.choice([0.0, 50.0, 100.0, 100.0], size=CHAIN_JOBS)
    )
    assert_chain_bitwise(arrivals, rng.uniform(50.0, 100.0, size=CHAIN_JOBS))
    # The scan itself produced and verified all three: no fallback.
    assert fallbacks == []


def _grid(n):
    return np.arange(n, dtype=np.float64) * 10.0


CHAIN_EDGE_CASES = {
    # One busy run from t=0: the saturated pipeline-fill case.
    "all_zero_arrivals": lambda n: (np.zeros(n), np.full(n, 10.0), 0.0),
    # Every job arrives exactly as its predecessor finishes: t[i] ==
    # finish[i-1], the tie `max(now, free_at)` resolves to `now`.
    "exact_ties": lambda n: (_grid(n), np.full(n, 10.0), 0.0),
    # ... and half the jobs one tick late / the others queued.
    "ties_and_queues": lambda n: (
        _grid(n), np.where(np.arange(n) % 3 == 0, 20.0, 5.0), 0.0
    ),
    "zero_durations_mixed": lambda n: (
        _grid(n) // 20.0, np.where(np.arange(n) % 2 == 0, 0.0, 3.0), 0.0
    ),
    "all_zero_durations": lambda n: (_grid(n), np.zeros(n), 0.0),
    # The server is still busy when the chain starts: job 0 queues.
    "free0_above_first_arrival": lambda n: (_grid(n), np.full(n, 4.0), 137.0),
    "free0_above_every_arrival": lambda n: (_grid(n), np.full(n, 4.0), 1e9),
    # Signed zeros: `-0.0 >= 0.0` keeps the arrival, sign and all.
    "negative_zero_arrivals": lambda n: (np.full(n, -0.0), np.zeros(n), 0.0),
    "negative_zero_everything": lambda n: (
        np.full(n, -0.0), np.full(n, -0.0), -0.0
    ),
}


@pytest.mark.parametrize("case", sorted(CHAIN_EDGE_CASES))
@pytest.mark.parametrize("offset", (-1, 0, 1))
def test_serve_chain_edge_cases(case, offset):
    # n straddles VECTOR_MIN_JOBS: the last loop-sized chain, the
    # first scanned one, and one more.
    n = maxplus.VECTOR_MIN_JOBS + offset
    assert_chain_bitwise(*CHAIN_EDGE_CASES[case](n))


def test_serve_chain_nan_duration_matches_loop():
    # Garbage in, the *same* garbage out: a NaN poisons every later
    # finish identically on both implementations.
    durations = np.full(CHAIN_JOBS, 10.0)
    durations[CHAIN_JOBS // 2] = np.nan
    assert_chain_bitwise(_grid(CHAIN_JOBS), durations)


@settings(max_examples=150, deadline=None)
@given(
    jobs=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=60
    ),
    free0=st.integers(0, 6),
)
def test_property_serve_chain_small_integers(jobs, free0):
    # Small-integer gaps and durations: ties at every other index,
    # every value exact, so the scan must verify (never fall back).
    gaps, durations = zip(*jobs)
    arrivals = np.add.accumulate(np.asarray(gaps, dtype=np.float64))
    durations = np.asarray(durations, dtype=np.float64)
    loop = chain_loop(arrivals, durations, free0)
    finishes = maxplus._accumulate_runs(
        arrivals, durations, float(free0),
        maxplus._guess_run_heads(arrivals, durations, float(free0)),
    )
    assert finishes.tobytes() == loop[1].tobytes()


# ----------------------------------------------------------------------
# _accumulate_runs: runs at the seam between levels and blocks
# ----------------------------------------------------------------------
LEVELS = maxplus._LEVELS


def chain_of_runs(lengths, first=0.0):
    """Arrivals and durations whose busy runs are ``lengths`` jobs
    long: a run's jobs all arrive with its head (``first`` for the
    first run), and the next head arrives exactly as the run's last
    job finishes — an integer-grid tie, which the arrival wins."""
    arrivals, durations = [], []
    head = first
    for index, length in enumerate(lengths):
        run = [10.0 * (1 + (index + job) % 3) for job in range(length)]
        arrivals += [head] * length
        durations += run
        head += sum(run)
    return np.asarray(arrivals), np.asarray(durations)


def _runs_of(length):
    """Enough runs of ``length`` jobs for a scan-sized chain."""
    return [length] * -(-maxplus.VECTOR_MIN_JOBS // length)


RUN_LENGTHS = {
    "levels_minus_one": _runs_of(LEVELS - 1),
    "levels": _runs_of(LEVELS),
    "levels_plus_one": _runs_of(LEVELS + 1),
    "twice_levels": _runs_of(2 * LEVELS),
    "single_jobs": _runs_of(1),
    "one_run": [maxplus.VECTOR_MIN_JOBS + 7],
    "mix": [1, LEVELS - 1, LEVELS, LEVELS + 1, 2 * LEVELS, 2, 3 * LEVELS + 5] * 20,
}


@pytest.mark.parametrize("first", (0.0, -0.0))
@pytest.mark.parametrize("case", sorted(RUN_LENGTHS))
def test_serve_chain_runs_at_the_level_block_seam(case, first, fallbacks):
    lengths = RUN_LENGTHS[case]
    arrivals, durations = chain_of_runs(lengths, first)
    assert arrivals.size >= maxplus.VECTOR_MIN_JOBS
    heads = maxplus._guess_run_heads(arrivals, durations, 0.0)
    assert np.diff(np.flatnonzero(heads), append=arrivals.size).tolist() == lengths
    assert_chain_bitwise(arrivals, durations)
    assert fallbacks == []


@settings(max_examples=150, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 3 * LEVELS), min_size=1, max_size=30),
    first=st.sampled_from((-0.0, 0.0, 7.0)),
    free0=st.sampled_from((-0.0, 0.0, 25.0)),
)
def test_property_accumulate_runs_of_any_lengths(lengths, first, free0):
    # Exact integer chains: the guess is right, so the accumulate alone
    # must equal the loop, whatever mix of levels and blocks it took.
    arrivals, durations = chain_of_runs(lengths, first)
    finishes = maxplus._accumulate_runs(
        arrivals, durations, free0,
        maxplus._guess_run_heads(arrivals, durations, free0),
    )
    assert finishes.tobytes() == chain_loop(arrivals, durations, free0)[1].tobytes()


def test_serve_chain_rejects_a_mispredicted_head(monkeypatch, fallbacks):
    # Flip one guessed head each way: the accumulate then runs through
    # an idle gap (or restarts inside a busy run), the recurrence check
    # fails at that index, and serve_chain returns the loop's arrays.
    rng = np.random.default_rng(16)
    arrivals = np.add.accumulate(rng.exponential(200.0, size=CHAIN_JOBS))
    durations = np.full(CHAIN_JOBS, 100.0)
    guess = maxplus._guess_run_heads
    heads = guess(arrivals, durations, 0.0)
    for victim in (
        int(np.flatnonzero(heads)[CHAIN_JOBS // 8]),
        int(np.flatnonzero(~heads)[CHAIN_JOBS // 8]),
    ):
        def flipped(t, d, free, victim=victim):
            wrong = guess(t, d, free)
            wrong[victim] = not wrong[victim]
            return wrong

        monkeypatch.setattr(maxplus, "_guess_run_heads", flipped)
        del fallbacks[:]
        assert_chain_bitwise(arrivals, durations)
        assert fallbacks == [CHAIN_JOBS]
    # The honest guess verifies: no fallback.
    monkeypatch.setattr(maxplus, "_guess_run_heads", guess)
    del fallbacks[:]
    assert_chain_bitwise(arrivals, durations)
    assert fallbacks == []


def test_serve_chain_shape_mismatch():
    with pytest.raises(ValueError, match="one duration per arrival"):
        maxplus.serve_chain(np.zeros(3), np.zeros(2))
