"""Differential tests: closed-form serving replay vs the DES reference.

``repro/core/pipeline_fast.py`` promises *bitwise* equality with the
event-driven pipeline for index-pure stage times — every
stage stamp of every batch, the makespan, and the utilization
profiler's recorded triples.  These tests enforce the promise across
arrival processes (saturated, fixed-rate, Poisson), degenerate stage
times (zero-length bottom/top chains), per-batch jitter callables, and
property-based exploration with hypothesis.

The ``smoke``-named subset is run by ``tools/check.sh`` under
``RMSSD_SANITIZE=1``.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.runner import run_parallel, sleep_echo_task
from repro.core import pipeline_fast
from repro.core.pipeline_sim import STAMP_FIELDS, PipelineSimulator
from repro.fpga.compose import StageTimes
from repro.host.serving import ServingSimulator
from repro.obs.profiler import Profiler
from repro.sim import maxplus

# The serve_chain kernel's own tests moved with it to test_maxplus.py;
# importing them here keeps them collected under this module too.
from tests.test_maxplus import (
    test_property_serve_chain_small_integers,
    test_serve_chain_edge_cases,
    test_serve_chain_nan_duration_matches_loop,
    test_serve_chain_rejects_a_mispredicted_head,
    test_serve_chain_scan_matches_loop,
    test_serve_chain_shape_mismatch,
)

#: Index-pure stage-time callables — the documented fast-path contract.
JITTERED_STAGES = (
    lambda i: 100.0 + (i % 7) * 13.0,
    lambda i: (i % 3) * 40.0,
    lambda i: 20.0 + (i % 5),
)


def run_both(emb, bot, top, arrivals):
    """One DES run and one fast run over identical inputs."""
    results = {}
    for fast in (False, True):
        sim = PipelineSimulator(emb, bot, top)
        results[fast] = sim.run(
            len(arrivals), arrival_times_ns=list(arrivals), fast=fast
        )
    assert results[False].path == "des"
    assert results[True].path == "fast"
    return results[False], results[True]


def assert_bitwise(des, fast):
    # Exact float equality is the point: the replay must be bitwise.
    assert des.makespan_ns == fast.makespan_ns  # lint: ok[R2]
    assert des.stamps_ns.shape == fast.stamps_ns.shape
    assert np.array_equal(des.arrivals_ns.view(np.int64), fast.arrivals_ns.view(np.int64))
    assert np.array_equal(des.stamps_ns.view(np.int64), fast.stamps_ns.view(np.int64))
    assert np.array_equal(
        des.durations_ns.view(np.int64), fast.durations_ns.view(np.int64)
    )


def poisson_arrivals(n, mean_gap, seed):
    rng = np.random.default_rng(seed)
    return np.add.accumulate(rng.exponential(mean_gap, size=n)).tolist()


# ----------------------------------------------------------------------
# Core arrival processes
# ----------------------------------------------------------------------
def test_smoke_saturated():
    # All arrivals at t=0: the pipeline-fill case the analytic model
    # (Eq. 1) describes; a single busy run per stage.
    des, fast = run_both(300.0, 120.0, 80.0, [0.0] * 100)
    assert_bitwise(des, fast)


def test_smoke_fixed_rate():
    des, fast = run_both(300.0, 120.0, 80.0, [i * 250.0 for i in range(100)])
    assert_bitwise(des, fast)


@pytest.mark.parametrize("utilization", (0.2, 0.6, 0.95, 1.5))
@pytest.mark.parametrize("batches", (1, 5, 64, 200))
def test_poisson_arrivals(utilization, batches):
    arrivals = poisson_arrivals(batches, 300.0 / utilization, seed=batches)
    des, fast = run_both(300.0, 120.0, 80.0, arrivals)
    assert_bitwise(des, fast)


def test_negative_arrivals_serve_at_zero():
    # DES flows bootstrap at clock 0, so nominally negative arrivals
    # are served at t=0 (and the latency includes the difference).
    des, fast = run_both(100.0, 50.0, 25.0, [-500.0, -100.0, 0.0, 30.0])
    assert_bitwise(des, fast)
    assert fast.stamps_ns[0, STAMP_FIELDS.index("emb_start_ns")] == 0.0  # lint: ok[R2]


# ----------------------------------------------------------------------
# Degenerate stage times
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "bot,top", ((0.0, 50.0), (90.0, 0.0), (0.0, 0.0))
)
def test_smoke_zero_length_stages(bot, top):
    # Zero-length bottom/top chains skip the stage server entirely in
    # the DES (no serve call); the replay must mirror that, including
    # in the profiler (no triple recorded).
    arrivals = poisson_arrivals(150, 150.0, seed=3)
    des, fast = run_both(200.0, bot, top, arrivals)
    assert_bitwise(des, fast)


def test_negative_service_raises_on_both_paths():
    for fast in (False, True):
        sim = PipelineSimulator(lambda i: -1.0, 10.0, 10.0)
        with pytest.raises(ValueError, match="negative service duration"):
            sim.run(3, arrival_times_ns=[0.0, 1.0, 2.0], fast=fast)


@pytest.mark.parametrize("fast", (False, True))
@pytest.mark.parametrize("as_callable", (False, True))
@pytest.mark.parametrize("stage", (0, 1, 2))
@pytest.mark.parametrize("hostile", (float("nan"), float("inf")))
def test_non_finite_stage_time_raises_on_both_paths(hostile, stage, as_callable, fast):
    # NaN passes every `< 0` / `> 0` test on the way in; unchecked, the
    # two paths disagree on the stamps and both feed the profiler NaN.
    times = [100.0, 50.0, 25.0]
    times[stage] = (lambda i: hostile if i == 1 else 10.0) if as_callable else hostile
    profiler = Profiler()
    sim = PipelineSimulator(*times, profiler=profiler)
    with pytest.raises(ValueError, match="stage times must be finite"):
        sim.run(3, arrival_times_ns=[0.0, 1.0, 2.0], fast=fast)
    assert len(profiler) == 0


# ----------------------------------------------------------------------
# Jitter callables and service-order stress
# ----------------------------------------------------------------------
def test_jitter_callables():
    arrivals = poisson_arrivals(200, 180.0, seed=11)
    des, fast = run_both(*JITTERED_STAGES, arrivals)
    assert_bitwise(des, fast)


def test_bot_spike_reorders_top_service():
    # A huge bottom stage on the first batch (zero on the rest, so
    # they skip the shared bottom server rather than queueing behind
    # the spike) makes later batches ready for the top stage *before*
    # it: the DES serves top in ready order, not index order, and the
    # replay's stable argsort must agree.
    des, fast = run_both(
        50.0, lambda i: 5000.0 if i == 0 else 0.0, 30.0,
        [0.0, 10.0, 20.0, 30.0, 40.0],
    )
    assert_bitwise(des, fast)
    top_start = fast.stamps_ns[:, STAMP_FIELDS.index("top_start_ns")]
    assert top_start[0] > top_start[4]


@pytest.fixture
def stage_jobs(monkeypatch):
    """The ``jobs`` each ``_serve_stage`` call of the replay was given
    (None: every batch in index order, served on the columns).  The
    indexed path serves its gathered columns by calling the stage
    again; those inner calls are not recorded."""
    seen, depth = [], []
    serve_stage = pipeline_fast._serve_stage

    def recording(offered, durations, jobs=None):
        if not depth:
            seen.append(jobs)
        depth.append(jobs)
        try:
            return serve_stage(offered, durations, jobs)
        finally:
            depth.pop()

    monkeypatch.setattr(pipeline_fast, "_serve_stage", recording)
    return seen


def test_stages_in_index_order_take_the_columns(stage_jobs):
    # Every duration positive and ready never decreasing: all three
    # stages serve every batch in index order, on the columns.
    arrivals = poisson_arrivals(150, 120.0, seed=9)
    des, fast = run_both(JITTERED_STAGES[0], 40.0, 25.0, arrivals)
    assert_bitwise(des, fast)
    assert stage_jobs == [None, None, None]


def test_reordered_top_and_partly_idle_bottom_take_the_indexed_path(stage_jobs):
    # The bottom stage skips every fifth batch (zero duration) and
    # queues long jobs on others, so later batches become ready first:
    # the top stage's service order is not the index order.  Both take
    # the indexed path, and the jittered top callable is evaluated in
    # the DES's order.
    arrivals = poisson_arrivals(200, 150.0, seed=21)
    results, calls = {}, {}
    for fast in (False, True):
        calls[fast] = []

        def top(index, seen=calls[fast]):
            seen.append(index)
            return 30.0 + (index % 4) * 7.0

        sim = PipelineSimulator(
            120.0, lambda i: (900.0, 0.0, 40.0, 40.0, 40.0)[i % 5], top
        )
        results[fast] = sim.run(len(arrivals), arrival_times_ns=arrivals, fast=fast)
    assert_bitwise(results[False], results[True])
    assert calls[True] == calls[False] != sorted(calls[False])
    emb, bot, top_jobs = stage_jobs
    assert emb is None
    assert bot.tolist() == [i for i in range(200) if i % 5 != 1]
    assert top_jobs.tolist() == calls[True]


def test_heavy_ties_stress():
    # Coinciding arrivals and identical durations force every
    # tie-break the DES has; 40 randomized trials.
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 120))
        arrivals = np.sort(
            rng.choice([0.0, 50.0, 100.0, 333.33], size=n)
            * rng.integers(0, 4, size=n)
        ).tolist()
        des, fast = run_both(
            float(rng.integers(1, 300)),
            float(rng.choice([0.0, 60.0, 120.0])),
            float(rng.choice([0.0, 30.0, 80.0])),
            arrivals,
        )
        assert_bitwise(des, fast)


# ----------------------------------------------------------------------
# The stage chains at scan size
# ----------------------------------------------------------------------
@pytest.fixture
def fallbacks(monkeypatch):
    """Sizes of the chains ``maxplus.serve_chain`` handed to its loop."""
    seen = []
    loop = maxplus._serve_chain_loop

    def counting_loop(t, d, free):
        seen.append(t.size)
        return loop(t, d, free)

    monkeypatch.setattr(maxplus, "_serve_chain_loop", counting_loop)
    return seen


def test_smoke_scan_sized_run_matches_des(fallbacks):
    # Every other DES differential in this file is small enough for
    # the loop; this one puts all three stage chains through the scan.
    n = 2 * maxplus.VECTOR_MIN_JOBS + 100
    arrivals = poisson_arrivals(n, 180.0, seed=16)
    des, fast = run_both(*JITTERED_STAGES, arrivals)
    assert_bitwise(des, fast)
    assert fallbacks == []


# ----------------------------------------------------------------------
# Profiler parity (byte-identical exports)
# ----------------------------------------------------------------------
def _profile_bytes(tmp_path, label, fast, arrivals):
    profiler = Profiler()
    sim = PipelineSimulator(
        300.0, lambda i: (i % 4) * 45.0, 80.0, profiler=profiler
    )
    sim.run(len(arrivals), arrival_times_ns=list(arrivals), fast=fast)
    path = tmp_path / f"profile_{label}.json"
    profiler.export_json(str(path))
    return path.read_bytes()


def test_smoke_profiles_byte_identical(tmp_path):
    arrivals = poisson_arrivals(120, 200.0, seed=5)
    des = _profile_bytes(tmp_path, "des", False, arrivals)
    fast = _profile_bytes(tmp_path, "fast", True, arrivals)
    assert des == fast


def assert_fifo_law(triples, offered, durations):
    """The single-server FIFO law, job by job: the server takes each
    job when it is offered or when the previous one ends, whichever is
    later, and holds it for exactly its duration."""
    assert [arrival for arrival, _, _ in triples] == offered
    assert offered == sorted(offered)
    previous_end = 0.0
    for (arrival, start, end), duration in zip(triples, durations):
        assert start == max(arrival, previous_end)
        assert end == start + duration
        previous_end = end


_STAGE_TIME = st.one_of(st.just(0.0), st.floats(min_value=0.5, max_value=400.0))


@settings(max_examples=60, deadline=None)
@given(
    first=st.floats(min_value=-500.0, max_value=500.0),
    batches=st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=600.0)),
            _STAGE_TIME, _STAGE_TIME, _STAGE_TIME,
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_property_profile_obeys_fifo_law_on_both_paths(first, batches):
    # The profile is read from the run's tables after the path branch;
    # the oracle below restates the queueing law from the inputs and
    # the stamps alone.  Tied arrivals (zero gaps), a negative first
    # arrival and zero-length stages (bot/top skip their server) are
    # all in the strategy's reach.
    gaps, emb, bot, top = (list(column) for column in zip(*batches))
    arrivals = np.add.accumulate([first] + gaps[1:]).tolist()
    exports = []
    for fast in (False, True):
        profiler = Profiler()
        sim = PipelineSimulator(
            emb.__getitem__, bot.__getitem__, top.__getitem__, profiler=profiler
        )
        result = sim.run(len(arrivals), arrival_times_ns=arrivals, fast=fast)
        exports.append(json.dumps(profiler.as_dict(), sort_keys=True))

        clock = [max(arrival, 0.0) for arrival in arrivals]
        stamps = dict(zip(STAMP_FIELDS, result.stamps_ns.T.tolist()))
        ready = list(map(max, stamps["emb_done_ns"], stamps["bot_done_ns"]))
        indices = range(len(arrivals))
        bot_jobs = [i for i in indices if bot[i] > 0]
        top_jobs = [i for i in sorted(indices, key=ready.__getitem__) if top[i] > 0]
        def services(name):
            return profiler.records(name)[0].tolist()

        assert_fifo_law(services("emb"), clock, emb)
        assert_fifo_law(
            services("bot"),
            [clock[i] for i in bot_jobs], [bot[i] for i in bot_jobs],
        )
        assert_fifo_law(
            services("top"),
            [ready[i] for i in top_jobs], [top[i] for i in top_jobs],
        )
    assert exports[0] == exports[1]


# ----------------------------------------------------------------------
# Serving layer smoke: one sweep point through both paths
# ----------------------------------------------------------------------
def test_smoke_sweep_point_bitwise():
    times = StageTimes(temb=60, tbot=24, ttop=16, nbatch=2, flash_cycles=40)
    serving = ServingSimulator(times, nbatch=times.nbatch, seed=7)
    qps = 0.5 * serving.saturation_qps
    des = serving.offered_load(qps, queries=60, fast=False)
    fast = serving.offered_load(qps, queries=60, fast=True)
    for field in (
        "offered_qps", "achieved_qps", "p50_ns", "p95_ns", "p99_ns",
        "mean_ns", "mean_queue_ns", "latencies_ns",
    ):
        assert getattr(des, field) == getattr(fast, field), field


def test_offered_load_seed_override():
    # seed=None reuses the constructor seed (common random numbers:
    # identical gap pattern per sweep point); an explicit seed draws an
    # independent arrival process.
    times = StageTimes(temb=60, tbot=24, ttop=16, nbatch=1, flash_cycles=40)
    serving = ServingSimulator(times, nbatch=1, seed=7)
    qps = 0.5 * serving.saturation_qps
    crn_a = serving.offered_load(qps, queries=40)
    crn_b = serving.offered_load(qps, queries=40)
    assert crn_a.latencies_ns == crn_b.latencies_ns  # lint: ok[R2]
    independent = serving.offered_load(qps, queries=40, seed=123)
    assert independent.latencies_ns != crn_a.latencies_ns  # lint: ok[R2]


def test_sla_search_exposes_probes():
    times = StageTimes(temb=60, tbot=24, ttop=16, nbatch=1, flash_cycles=40)
    serving = ServingSimulator(times, nbatch=1, seed=7)
    result = serving.sla_search(
        sla_ns=5.0 * times.latency * 5.0, queries=40
    )
    # Trickle probe first, then the bisection in evaluation order.
    assert len(result.points) >= 2
    assert result.points[0].offered_qps == pytest.approx(
        0.01 * serving.saturation_qps
    )
    assert result.max_qps <= serving.saturation_qps


# ----------------------------------------------------------------------
# Hypothesis property
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    gaps=st.lists(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        min_size=1,
        max_size=80,
    ),
    emb=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    bot=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    top=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
)
def test_property_bitwise_equivalence(gaps, emb, bot, top):
    arrivals = np.add.accumulate(np.asarray(gaps, dtype=np.float64)).tolist()
    des, fast = run_both(emb, bot, top, arrivals)
    assert_bitwise(des, fast)


# ----------------------------------------------------------------------
# Env-flag gating (shared with the lookup fast path)
# ----------------------------------------------------------------------
def test_env_flag_gates_default(monkeypatch):
    monkeypatch.setenv("RMSSD_FASTPATH", "0")
    sim = PipelineSimulator(10.0, 5.0, 2.0)
    assert sim.run(3).path == "des"
    monkeypatch.setenv("RMSSD_FASTPATH", "1")
    assert sim.run(3).path == "fast"


def test_explicit_fast_argument_overrides_env(monkeypatch):
    monkeypatch.setenv("RMSSD_FASTPATH", "0")
    sim = PipelineSimulator(10.0, 5.0, 2.0)
    assert sim.run(3, fast=True).path == "fast"
    monkeypatch.setenv("RMSSD_FASTPATH", "1")
    assert sim.run(3, fast=False).path == "des"


# ----------------------------------------------------------------------
# Parallel bench runner: deterministic merge
# ----------------------------------------------------------------------
def test_runner_merge_order_survives_inverted_completion():
    # Earlier submissions sleep longer, so with 2 workers the results
    # complete out of order; the merge must restore submission order.
    tasks = [("a", 0.3), ("b", 0.15), ("c", 0.0), ("d", 0.0)]
    assert run_parallel(sleep_echo_task, tasks, processes=2) == [
        "a", "b", "c", "d",
    ]


def test_runner_sequential_fallback():
    tasks = [("x", 0.0), ("y", 0.0)]
    assert run_parallel(sleep_echo_task, tasks, processes=1) == ["x", "y"]
    assert run_parallel(sleep_echo_task, [("solo", 0.0)]) == ["solo"]
