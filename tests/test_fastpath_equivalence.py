"""Differential tests: the vectorized fast path vs the DES, exactly.

The fast path (:mod:`repro.ssd.fastpath` plus the batched lookup
engine) promises *bitwise* equivalence with the discrete-event
reference: identical elapsed times, identical pooled outputs, identical
I/O statistics, and identical resource bookkeeping carried into the
next batch.  These tests hold it to that promise over a grid of
geometries, pooling modes and index distributions, plus
property-based exploration with hypothesis.

The ``smoke``-named subset is run by ``tools/check.sh`` under
``RMSSD_SANITIZE=1``.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from repro.core.lookup_engine import EmbeddingLookupEngine
from repro.embedding.layout import EmbeddingLayout
from repro.embedding.table import EmbeddingTableSet
from repro.obs import Profiler
from repro.sim import Simulator
from repro.ssd import fastpath
from repro.ssd.blockdev import BlockDevice
from repro.ssd.controller import SSDController
from repro.ssd.flash import FlashArray
from repro.ssd.geometry import SSDGeometry
from repro.ssd.timing import SSDTimingModel

NUM_TABLES = 3
ROWS = 96
DIM = 16

#: Four device shapes: balanced, channel-heavy, die-heavy, and the
#: degenerate single-channel single-die device (maximal queueing).
GEOMETRY_SPECS = {
    "square": dict(
        channels=4, dies_per_channel=4, planes_per_die=2,
        blocks_per_plane=8, pages_per_block=8,
    ),
    "wide": dict(
        channels=8, dies_per_channel=2, planes_per_die=1,
        blocks_per_plane=8, pages_per_block=8,
    ),
    "deep": dict(
        channels=2, dies_per_channel=8, planes_per_die=1,
        blocks_per_plane=8, pages_per_block=8,
    ),
    "single": dict(
        channels=1, dies_per_channel=1, planes_per_die=1,
        blocks_per_plane=16, pages_per_block=16,
    ),
}
GEOMETRY_NAMES = sorted(GEOMETRY_SPECS)
POOLING_MODES = ["sum", "mean"]
DISTRIBUTIONS = ["uniform", "skewed"]


def build_engine(geometry_name, pooling="sum", max_extent_pages=None, dim=DIM,
                 vcache=None):
    geo = SSDGeometry(**GEOMETRY_SPECS[geometry_name])
    device = BlockDevice(
        SSDController(Simulator(), geo, vcache=vcache), max_extent_pages
    )
    tables = EmbeddingTableSet.uniform(NUM_TABLES, ROWS, dim, seed=5)
    layout = EmbeddingLayout(device, tables)
    layout.create_all()
    return EmbeddingLookupEngine(device.controller, layout, pooling=pooling)


def make_batch(rng, samples, max_len, dist):
    high = 8 if dist == "skewed" else ROWS
    return [
        [
            [int(x) for x in rng.integers(0, high, size=rng.integers(0, max_len + 1))]
            for _ in range(NUM_TABLES)
        ]
        for _ in range(samples)
    ]


def assert_buses_equal(des_flash, fast_flash):
    """Channel-bus bookkeeping must carry into the next batch identically."""
    for des_channel, fast_channel in zip(des_flash.channels, fast_flash.channels):
        assert (
            fast_channel.bus._free_at,
            fast_channel.bus.busy_time,
            fast_channel.bus.jobs_served,
        ) == (
            des_channel.bus._free_at,
            des_channel.bus.busy_time,
            des_channel.bus.jobs_served,
        )


def assert_equivalent(des_engine, fast_engine, des, fast):
    """Full-state equivalence after running the same batch both ways."""
    assert des.path == "des"
    assert fast.vectors_read == des.vectors_read
    assert fast.pooled.shape == des.pooled.shape
    assert fast.pooled.dtype == des.pooled.dtype
    assert fast.pooled.tobytes() == des.pooled.tobytes()
    assert fast.elapsed_ns == approx(des.elapsed_ns, rel=0, abs=0)
    des_sim, fast_sim = des_engine.controller.sim, fast_engine.controller.sim
    assert fast_sim.now == approx(des_sim.now, rel=0, abs=0)
    assert fast_engine.controller.stats.as_dict() == (
        des_engine.controller.stats.as_dict()
    )
    # Server bookkeeping must carry into the next batch identically.
    des_ftl = des_engine.controller._ftl_server
    fast_ftl = fast_engine.controller._ftl_server
    assert (fast_ftl._free_at, fast_ftl.busy_time, fast_ftl.jobs_served) == (
        des_ftl._free_at, des_ftl.busy_time, des_ftl.jobs_served
    )
    assert_buses_equal(des_engine.controller.flash, fast_engine.controller.flash)


def run_pair(batches, geometry_name, pooling):
    des_engine = build_engine(geometry_name, pooling)
    fast_engine = build_engine(geometry_name, pooling)
    for batch in batches:
        des = des_engine.lookup_batch(batch, fast=False)
        fast = fast_engine.lookup_batch(batch, fast=True)
        assert fast.path == "fast"
        assert_equivalent(des_engine, fast_engine, des, fast)


# ----------------------------------------------------------------------
# Fixed-seed grid: every geometry x pooling mode x distribution
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dist", DISTRIBUTIONS)
@pytest.mark.parametrize("pooling", POOLING_MODES)
@pytest.mark.parametrize("geometry", GEOMETRY_NAMES)
def test_grid_equivalence(geometry, pooling, dist):
    seed = (
        GEOMETRY_NAMES.index(geometry) * 4
        + POOLING_MODES.index(pooling) * 2
        + DISTRIBUTIONS.index(dist)
    )
    rng = np.random.default_rng(seed)
    batches = [make_batch(rng, samples=3, max_len=6, dist=dist) for _ in range(2)]
    run_pair(batches, geometry, pooling)


def test_smoke_equivalence_sum():
    rng = np.random.default_rng(42)
    run_pair([make_batch(rng, 2, 4, "uniform")], "square", "sum")


def test_smoke_equivalence_mean_skewed():
    rng = np.random.default_rng(43)
    run_pair([make_batch(rng, 2, 4, "skewed")], "deep", "mean")


def test_smoke_fragmented_layout():
    des_engine = build_engine("wide", "sum", max_extent_pages=1)
    fast_engine = build_engine("wide", "sum", max_extent_pages=1)
    batch = [[[0, 95, 7, 7], [50], list(range(10))]]
    des = des_engine.lookup_batch(batch, fast=False)
    fast = fast_engine.lookup_batch(batch, fast=True)
    assert fast.path == "fast"
    assert_equivalent(des_engine, fast_engine, des, fast)


@pytest.mark.parametrize("dim", [1, 8, 64])
def test_ev_size_variation_equivalent(dim):
    """Different EV sizes change transfer times and page packing; the
    replay and gather must stay exact for all of them."""
    rng = np.random.default_rng(dim)
    batch = make_batch(rng, samples=2, max_len=5, dist="uniform")
    des_engine = build_engine("square", dim=dim)
    fast_engine = build_engine("square", dim=dim)
    des = des_engine.lookup_batch(batch, fast=False)
    fast = fast_engine.lookup_batch(batch, fast=True)
    assert fast.path == "fast"
    assert_equivalent(des_engine, fast_engine, des, fast)


def test_multi_batch_state_carryover():
    """Three consecutive batches: bookkeeping from batch N must place
    batch N+1 identically on both paths."""
    rng = np.random.default_rng(9)
    batches = [make_batch(rng, 2, 5, dist) for dist in ("uniform", "skewed", "uniform")]
    run_pair(batches, "square", "sum")


def test_smoke_equivalence_with_vcache():
    """The contract extends to the controller-DRAM vector cache: both
    paths probe in the same issue order, so hit sets, elapsed times,
    statistics and server bookkeeping stay bitwise-equal (the full
    grid lives in ``tests/test_vcache_equivalence.py``)."""
    from repro.ssd.vcache import VectorCache

    rng = np.random.default_rng(44)
    batches = [make_batch(rng, 2, 5, "skewed") for _ in range(3)]
    des_engine = build_engine("square", vcache=VectorCache(16))
    fast_engine = build_engine("square", vcache=VectorCache(16))
    for batch in batches:
        des = des_engine.lookup_batch(batch, fast=False)
        fast = fast_engine.lookup_batch(batch, fast=True)
        assert fast.path == "fast"
        assert fast.vcache_hits == des.vcache_hits
        # The vcache contract is exact bitwise equality.
        assert fast.vcache_ns == des.vcache_ns  # lint: ok[R2]
        assert_equivalent(des_engine, fast_engine, des, fast)
    assert des_engine.controller.vcache.hits > 0
    assert (
        fast_engine.controller.vcache.hits == des_engine.controller.vcache.hits
    )


def test_all_empty_lookups_equivalent():
    """Zero vectors read: the fast path still matches the DES."""
    batch = [[[], [], []], [[], [], []]]
    des_engine = build_engine("square")
    fast_engine = build_engine("square")
    des = des_engine.lookup_batch(batch, fast=False)
    fast = fast_engine.lookup_batch(batch, fast=True)
    assert fast.path == "fast"
    assert fast.vectors_read == 0
    assert_equivalent(des_engine, fast_engine, des, fast)


# ----------------------------------------------------------------------
# Property-based exploration (fixed derandomized seeds)
# ----------------------------------------------------------------------
def batch_strategy(index_strategy):
    sample = st.lists(
        st.lists(index_strategy, min_size=0, max_size=6),
        min_size=NUM_TABLES,
        max_size=NUM_TABLES,
    )
    return st.lists(sample, min_size=1, max_size=3)


@given(
    batch=batch_strategy(st.integers(0, ROWS - 1)),
    geometry=st.sampled_from(GEOMETRY_NAMES),
    pooling=st.sampled_from(POOLING_MODES),
)
@settings(deadline=None, max_examples=25, derandomize=True)
def test_property_uniform_indices(batch, geometry, pooling):
    run_pair([batch], geometry, pooling)


@given(
    batch=batch_strategy(st.integers(0, 3)),
    geometry=st.sampled_from(GEOMETRY_NAMES),
    pooling=st.sampled_from(POOLING_MODES),
)
@settings(deadline=None, max_examples=25, derandomize=True)
def test_property_hot_indices(batch, geometry, pooling):
    """All lookups hammer the same few rows (worst-case contention)."""
    run_pair([batch], geometry, pooling)


# ----------------------------------------------------------------------
# Routing: when the fast path must NOT be taken
# ----------------------------------------------------------------------
def test_smoke_background_block_io_forces_des():
    engine = build_engine("square")
    controller = engine.controller
    sim = controller.sim
    batch = [[[0, 1], [2], [3]]]
    controller.sim.process(controller.read_block_proc(0))
    assert sim.peek() is not None
    first = engine.lookup_batch(batch, fast=True)
    assert first.path == "des"
    # The DES run drained the queue; the next batch may go fast.
    assert sim.peek() is None
    second = engine.lookup_batch(batch, fast=True)
    assert second.path == "fast"


def test_fallback_reason_is_none_on_the_fast_path():
    engine = build_engine("square")
    result = engine.lookup_batch([[[0], [1], [2]]], fast=True)
    assert (result.path, result.fallback_reason) == ("fast", None)
    assert engine.path_counts == {("fast", None): 1}


def test_fallback_reason_fast_disabled():
    engine = build_engine("square")
    result = engine.lookup_batch([[[0], [1], [2]]], fast=False)
    assert (result.path, result.fallback_reason) == ("des", "fast disabled")


def test_fallback_reason_in_flight_events():
    engine = build_engine("square")
    controller = engine.controller
    controller.sim.process(controller.read_block_proc(0))
    result = engine.lookup_batch([[[0, 1], [2], [3]]], fast=True)
    assert (result.path, result.fallback_reason) == ("des", "in-flight events")


def test_fallback_reason_empty_batch():
    engine = build_engine("square")
    result = engine.lookup_batch([], fast=True)
    assert (result.path, result.fallback_reason) == ("des", "empty batch")
    assert result.pooled.shape == (0, NUM_TABLES * DIM)
    assert result.vectors_read == 0


def test_env_flag_gates_default(monkeypatch):
    batch = [[[0], [1], [2]]]
    monkeypatch.setenv(fastpath.ENV_FLAG, "0")
    assert not fastpath.enabled()
    engine = build_engine("square")
    assert engine.lookup_batch(batch).path == "des"
    monkeypatch.setenv(fastpath.ENV_FLAG, "off")
    assert not fastpath.enabled()
    monkeypatch.setenv(fastpath.ENV_FLAG, "1")
    assert fastpath.enabled()
    assert engine.lookup_batch(batch).path == "fast"
    monkeypatch.delenv(fastpath.ENV_FLAG)
    assert fastpath.enabled()


def test_explicit_fast_argument_overrides_env(monkeypatch):
    monkeypatch.setenv(fastpath.ENV_FLAG, "0")
    engine = build_engine("square")
    result = engine.lookup_batch([[[0], [1], [2]]], fast=True)
    assert result.path == "fast"


# ----------------------------------------------------------------------
# FlashArray.run_reads: both request shapes
# ----------------------------------------------------------------------
def make_flash(geometry_name="square", written_pages=40):
    geo = SSDGeometry(**GEOMETRY_SPECS[geometry_name])
    flash = FlashArray(Simulator(), geo)
    rng = np.random.default_rng(7)
    for page in range(min(written_pages, geo.total_pages)):
        flash.write_page(page, rng.bytes(geo.page_size))
    return flash


def assert_flash_equivalent(des_flash, fast_flash, t_des, t_fast):
    assert t_fast == approx(t_des, rel=0, abs=0)
    assert fast_flash.sim.now == approx(des_flash.sim.now, rel=0, abs=0)
    assert fast_flash.stats.as_dict() == des_flash.stats.as_dict()
    assert_buses_equal(des_flash, fast_flash)


@pytest.mark.parametrize("geometry", GEOMETRY_NAMES)
def test_run_reads_vector_equivalence(geometry):
    des_flash = make_flash(geometry)
    fast_flash = make_flash(geometry)
    pages = min(40, des_flash.geometry.total_pages)
    rng = np.random.default_rng(3)
    requests = [
        (int(rng.integers(0, pages)), int(rng.integers(0, 63)) * 64, 64)
        for _ in range(50)
    ]
    t_des = des_flash.run_reads(requests, vector=True, fast=False)
    t_fast = fast_flash.run_reads(list(requests), vector=True, fast=True)
    assert_flash_equivalent(des_flash, fast_flash, t_des, t_fast)


def test_smoke_run_reads_page_equivalence():
    des_flash = make_flash()
    fast_flash = make_flash()
    rng = np.random.default_rng(4)
    requests = [int(x) for x in rng.integers(0, 40, size=30)]
    t_des = des_flash.run_reads(requests, vector=False, fast=False)
    t_fast = fast_flash.run_reads(list(requests), vector=False, fast=True)
    assert_flash_equivalent(des_flash, fast_flash, t_des, t_fast)


def test_run_reads_consecutive_batches_equivalent():
    des_flash = make_flash()
    fast_flash = make_flash()
    rng = np.random.default_rng(5)
    for _ in range(3):
        requests = [
            (int(rng.integers(0, 40)), int(rng.integers(0, 31)) * 128, 128)
            for _ in range(20)
        ]
        t_des = des_flash.run_reads(requests, vector=True, fast=False)
        t_fast = fast_flash.run_reads(list(requests), vector=True, fast=True)
        assert_flash_equivalent(des_flash, fast_flash, t_des, t_fast)


def test_run_reads_fast_validates_bounds():
    flash = make_flash()
    with pytest.raises(ValueError):
        flash.run_reads([(0, 4090, 64)], vector=True, fast=True)
    with pytest.raises(ValueError):
        flash.run_reads([(0, -4, 64)], vector=True, fast=True)


# ----------------------------------------------------------------------
# Tie stress: every latency on one quantum grid, replay vs the DES
# ----------------------------------------------------------------------
# The replay orders equal-time die grants by when the event that
# pushed them was scheduled (see ``fastpath._replay_channel``).  With
# Table II timing two events almost never share an instant, so these
# cases put every latency on a 1 ns grid: arrivals, flush ends and
# completions collide constantly and a wrong tie rule changes the
# service order, hence the times.
TIE_PAGE_SIZE = 64
TIE_SIZES = (16, 32, 48, 64)


def tie_timing(page_cycles, overhead_cycles):
    """1 ns cycles and flush = full-page transfer = ``page_cycles / 2``,
    so a vector of 16/32/48/64 bytes transfers in 1/4..4/4 of that."""
    timing = SSDTimingModel(
        clock_hz=1e9, page_read_us=page_cycles / 1e3, flush_fraction=0.5,
        page_size=TIE_PAGE_SIZE, request_overhead_cycles=overhead_cycles,
    )
    assert timing.flush_ns == approx(page_cycles / 2, rel=0, abs=0)
    assert timing.request_overhead_ns == approx(overhead_cycles, rel=0, abs=0)
    return timing


def tie_flash(dies, channels, page_cycles, overhead_cycles, bus_busy_until):
    """A profiled flash array whose latencies are whole nanoseconds;
    ``bus_busy_until`` (one offset per channel) is bus occupancy
    carried over from before the batch."""
    geo = SSDGeometry(
        channels=channels, dies_per_channel=dies, planes_per_die=1,
        blocks_per_plane=4, pages_per_block=4, page_size=TIE_PAGE_SIZE,
    )
    flash = FlashArray(Simulator(), geo, tie_timing(page_cycles, overhead_cycles))
    flash.sim.profiler = Profiler()
    for channel, offset in zip(flash.channels, bus_busy_until):
        channel.bus._free_at = float(offset)
    return flash


def staged_reads_des(flash, reads, enter):
    """Reads entering the flash stage at ``enter`` (sorted), on the
    DES: the entry timeouts are all scheduled up front in issue order,
    as the FTL stage's completions are in ``lookup_batch``."""
    sim = flash.sim

    def read(entry, page, col, size):
        yield sim.timeout(entry - sim.now)
        yield from flash.read_vector_proc(page, col, size)

    for entry, request in zip(enter, reads):
        sim.process(read(entry, *request))
    sim.run()
    return sim.now


def staged_reads_fast(flash, reads, enter):
    pages = np.array([page for page, _, _ in reads], dtype=np.int64)
    sizes = np.array([size for _, _, size in reads], dtype=np.int64)
    channel_ids, die_ids = flash.geometry.split_page_indices(pages)
    _, end = fastpath.replay_reads(
        flash,
        np.array(enter, dtype=np.float64),
        channel_ids,
        die_ids,
        flash.timing.vector_transfer_ns_array(sizes),
        staged=True,
    )
    flash.sim.run(until=end)
    return flash.sim.now


def profile_state(profiler):
    """The exported document plus the raw records it is derived from
    (record order is not part of the contract, multiplicity is)."""
    records = (profiler._services, profiler._busy, profiler._queue_samples)
    return (
        json.dumps(profiler.as_dict(), sort_keys=True),
        [{name: sorted(rows) for name, rows in kind.items()} for kind in records],
    )


def assert_tie_equivalent(des_flash, fast_flash, t_des, t_fast):
    assert t_fast == approx(t_des, rel=0, abs=0)
    assert_buses_equal(des_flash, fast_flash)
    assert profile_state(fast_flash.sim.profiler) == profile_state(
        des_flash.sim.profiler
    )


def run_tie_case(dies, channels, page_cycles, overhead_cycles, bus_busy_until,
                 pages, sizes, enter):
    """One read set both ways: ``enter=None`` goes through ``run_reads``
    (arrivals scheduled up front), a sorted list through the staged
    entry the lookup engine uses."""
    reads = [(page, 0, size) for page, size in zip(pages, sizes)]
    des_flash, fast_flash = (
        tie_flash(dies, channels, page_cycles, overhead_cycles, bus_busy_until)
        for _ in range(2)
    )
    if enter is None:
        t_des = des_flash.run_reads(reads, vector=True, fast=False)
        t_fast = fast_flash.run_reads(list(reads), vector=True, fast=True)
    else:
        t_des = staged_reads_des(des_flash, reads, enter)
        t_fast = staged_reads_fast(fast_flash, reads, enter)
    assert_tie_equivalent(des_flash, fast_flash, t_des, t_fast)


def test_smoke_tie_stress_staged_and_unstaged():
    """Three dies, one channel, 1 ns grid: a clump of simultaneous
    entries, stragglers landing exactly on flush ends and completions,
    mixed transfer lengths, and a bus still busy from before."""
    pages = [0, 1, 2, 0, 1, 2, 0, 0, 1, 2, 2, 1]
    sizes = [64, 16, 32, 48, 64, 16, 16, 32, 48, 64, 16, 32]
    enter = [0, 0, 0, 0, 2, 4, 4, 6, 6, 8, 9, 12]
    for overhead in (0, 2):
        run_tie_case(3, 1, 8, overhead, [5], pages, sizes, enter)
        run_tie_case(3, 1, 8, overhead, [5], pages, sizes, [3] * len(pages))
        run_tie_case(3, 1, 8, overhead, [5], pages, sizes, None)


def test_smoke_tie_rules_one_by_one():
    """One designed collision per clause of the tie rule (flush 4 ns,
    overhead 2 ns, a 32-byte transfer 2 ns, a 64-byte one 4 ns; the
    first read enters at 0, wins the bus at 6, and a later read enters
    at that very moment)."""
    # Arrival and completion pushed at the same moment, grants at the
    # same instant on two dies: the arrival's grant goes first.  Read
    # 0 (die 0) completes at 8 and hands over to read 1; read 2 (die
    # 1) entered at 6 and arrives at 8.
    run_tie_case(2, 1, 8, 2, [0], [0, 2, 1], [32, 16, 64], [0, 0, 6])
    # Same die, arrival at the instant of the previous completion, and
    # entered when that read won the bus: the arrival is processed
    # first and finds the die held (a hand-off, a depth-0 queue sample).
    run_tie_case(1, 1, 8, 2, [0], [0, 0], [32, 32], [0, 6])
    # Entered later than that (8 > 6) but still arriving at the instant
    # of the completion (10): the completion is processed first and the
    # arrival finds the die idle (two busy intervals, no queue sample).
    run_tie_case(1, 1, 8, 2, [0], [0, 0], [64, 32], [0, 8])
    # Two completions of one instant on different dies cannot happen
    # (the bus serialises transfers of non-zero length), so the bus
    # rank in the grant key has no DES-observable case.


@given(
    dies=st.integers(1, 5),
    channels=st.integers(1, 2),
    grid=st.sampled_from([1, 2]),
    overhead_steps=st.integers(0, 2),
    bus_busy_until=st.lists(st.integers(0, 6), min_size=2, max_size=2),
    reads=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 3)), min_size=1, max_size=16
    ),
    entry_mode=st.sampled_from(["unstaged", "equal", "sorted"]),
    data=st.data(),
)
@settings(deadline=None, max_examples=600, derandomize=True)
def test_property_tie_stress(dies, channels, grid, overhead_steps,
                             bus_busy_until, reads, entry_mode, data):
    """Flush is 4 ns throughout; on the 1 ns grid transfers take
    1/2/3/4 ns, on the 2 ns grid (where whole chains of events share
    instants) 2/4 ns, and overheads, entries and carried-over bus
    occupancy are multiples of the grid step."""
    total_pages = channels * dies * 16
    pages = [page % total_pages for page, _ in reads]
    sizes = [
        TIE_SIZES[pick] if grid == 1 else TIE_SIZES[1 + 2 * (pick % 2)]
        for _, pick in reads
    ]
    if entry_mode == "unstaged":
        enter = None
    elif entry_mode == "equal":
        enter = [grid * data.draw(st.integers(0, 6))] * len(reads)
    else:
        steps = st.lists(st.integers(0, 8), min_size=len(reads), max_size=len(reads))
        enter = sorted(grid * step for step in data.draw(steps))
    run_tie_case(dies, channels, 8, grid * overhead_steps,
                 [grid * offset for offset in bus_busy_until], pages, sizes, enter)


def build_tie_engine(dies, dim):
    """A lookup engine on the 1 ns grid (FTL stage included: 8 cycles)."""
    geo = SSDGeometry(
        channels=2, dies_per_channel=dies, planes_per_die=1,
        blocks_per_plane=16, pages_per_block=8, page_size=TIE_PAGE_SIZE,
    )
    device = BlockDevice(SSDController(Simulator(), geo, timing=tie_timing(8, 2)))
    tables = EmbeddingTableSet.uniform(NUM_TABLES, 24, dim, seed=5)
    layout = EmbeddingLayout(device, tables)
    layout.create_all()
    device.controller.sim.profiler = Profiler()
    return EmbeddingLookupEngine(device.controller, layout)


@given(
    batch=batch_strategy(st.integers(0, 23)),
    dies=st.integers(1, 5),
    dim=st.sampled_from([4, 8, 16]),
)
@settings(deadline=None, max_examples=40, derandomize=True)
def test_property_tie_stress_lookup_batch(batch, dies, dim):
    """Two consecutive batches through ``lookup_batch`` on the grid:
    entries spaced by the FTL stage, state carried into the second."""
    des_engine = build_tie_engine(dies, dim)
    fast_engine = build_tie_engine(dies, dim)
    for _ in range(2):
        des = des_engine.lookup_batch(batch, fast=False)
        fast = fast_engine.lookup_batch(batch, fast=True)
        assert fast.path == "fast"
        assert_equivalent(des_engine, fast_engine, des, fast)
    assert profile_state(fast_engine.controller.sim.profiler) == profile_state(
        des_engine.controller.sim.profiler
    )


# ----------------------------------------------------------------------
# The scan: ``_replay_channel`` vs the step loop run alone
# ----------------------------------------------------------------------
# ``_replay_channel`` lets a verified scan take the reads it can and
# the step loop the stretches in between; the step loop alone is the
# protocol's only scalar statement (and is itself held to the DES by
# everything above).  Whatever the scan accepts must be the loop's
# result bit for bit.
TABLE2 = SSDTimingModel()


def channel_case(rng, regime, dies, n, staged):
    """One channel's reads, die-major as ``replay_reads`` hands them
    over: ``(enter, die_counts, transfer, issue, oh, flush, bus_free,
    bus_busy, staged)``."""
    die_ids = rng.integers(0, dies, n)
    if regime == "idle_dies":
        die_ids = np.minimum(die_ids, rng.integers(0, dies))
    if regime == "tie_grid":
        flush, overhead = 4.0, float(rng.integers(0, 3))
        transfer = rng.integers(1, 5, n).astype(np.float64)
        enter = np.sort(rng.integers(0, 1 + n * rng.integers(1, 8), n) * 1.0)
    else:
        flush, overhead = TABLE2.flush_ns, TABLE2.request_overhead_ns
        transfer = np.full(n, TABLE2.vector_transfer_ns(256))
        if regime == "page_reads":
            transfer = np.full(n, TABLE2.transfer_ns)
        start = float(rng.integers(0, 10**9)) + rng.random()
        gap = {"idle_reads": 4 * flush, "bursts": 0.0}.get(regime, 320.0)
        enter = start + np.add.accumulate(np.full(n, gap * (0.5 + rng.random())))
        if regime == "bursts":
            enter = np.sort(
                start + rng.integers(0, 4, n) * 3 * flush + rng.random(n) * 200
            )
        if not staged and rng.random() < 0.5:
            enter = np.full(n, start)  # as run_reads issues them
    order = np.argsort(die_ids, kind="stable")
    return (
        enter[order], np.bincount(die_ids, minlength=dies).tolist(),
        transfer[order], order, overhead, flush,
        float(enter[0] + rng.integers(0, 3) * flush * rng.random()),
        float(rng.random() * 1e6), staged,
    )


def step_loop_alone(case):
    channel = fastpath._ChannelReplay(*case)
    fastpath._step_reads(channel, len(case[0]))
    return channel.completion, channel.bus_free, channel.bus_busy


def replay_bytes(result):
    completion, bus_free, bus_busy = result
    return completion.tobytes(), np.array([bus_free, bus_busy]).tobytes()


REGIMES = ["tie_grid", "table2", "bursts", "idle_reads", "idle_dies", "page_reads"]


def assert_scan_equals_step_loop(seed, regime, dies, n, staged, cells, stretch):
    """Windows and thresholds forced tiny, so accepted prefixes end
    (and the step loop takes over) all over the channel."""
    case = channel_case(np.random.default_rng(seed), regime, dies, n, staged)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fastpath, "SCAN_MIN_READS", 0)
        patch.setattr(fastpath, "SCAN_FIRST_CELLS", cells)
        patch.setattr(fastpath, "SCAN_MAX_CELLS", 4 * cells)
        patch.setattr(fastpath, "SCAN_FIRST_STRETCH", stretch)
        scanned = fastpath._replay_channel(*case)
    assert replay_bytes(scanned) == replay_bytes(step_loop_alone(case))


@pytest.mark.parametrize("regime", REGIMES)
def test_smoke_scan_equals_step_loop(regime):
    for seed, (dies, staged) in enumerate([(1, True), (2, False), (3, True), (8, False)]):
        assert_scan_equals_step_loop(seed, regime, dies, 300, staged, 2 + seed, 1)


@given(
    seed=st.integers(0, 2**32 - 1),
    regime=st.sampled_from(REGIMES),
    dies=st.integers(1, 8),
    n=st.integers(1, 250),
    staged=st.booleans(),
    cells=st.integers(1, 24),
    stretch=st.integers(1, 4),
)
@settings(deadline=None, max_examples=400, derandomize=True)
def test_property_scan_equals_step_loop(seed, regime, dies, n, staged, cells, stretch):
    assert_scan_equals_step_loop(seed, regime, dies, n, staged, cells, stretch)


def count_replay(monkeypatch, case):
    """Replay ``case`` at the module's own constants; returns the
    reads the step loop took, the chain elements computed by scan
    attempts that ended on a refused step, and the attempts made."""
    stepped, refused_cells, attempts = [], [], []
    step_reads, scan_reads = fastpath._step_reads, fastpath._scan_reads

    def counting_step(channel, reach, *profiling):
        before = channel.rank
        step_reads(channel, reach, *profiling)
        stepped.append(channel.rank - before)

    def counting_scan(channel, cells):
        taken, blocked = scan_reads(channel, cells)
        attempts.append(taken)
        if blocked:
            refused_cells.append(cells)  # what the attempt may compute
        return taken, blocked

    monkeypatch.setattr(fastpath, "_step_reads", counting_step)
    monkeypatch.setattr(fastpath, "_scan_reads", counting_scan)
    scanned = fastpath._replay_channel(*case)
    monkeypatch.undo()
    assert replay_bytes(scanned) == replay_bytes(step_loop_alone(case))
    return sum(stepped), sum(refused_cells), len(attempts)


def test_scan_takes_a_backlogged_table2_channel(monkeypatch):
    """Two dies, 8192 reads entering every 320 ns at Table II timing:
    die-bound and backlogged, the case the scan exists for.  Fewer
    than 5 % of the reads may go through the step loop."""
    case = channel_case(np.random.default_rng(3), "table2", 2, 8192, True)
    stepped, _, attempts = count_replay(monkeypatch, case)
    assert attempts > 0
    assert stepped < 0.05 * 8192


@pytest.mark.parametrize(
    "regime, dies", [("idle_reads", 2), ("tie_grid", 3), ("page_reads", 8)]
)
def test_refused_scan_attempts_stay_cheap(monkeypatch, regime, dies):
    """Inputs the scan gets nowhere on (every read finds its die idle;
    every latency on one integer grid; eight dies' page transfers
    queueing for the bus): over 30 000 reads the attempts that ended
    on a refused step may compute at most a quarter as many chain
    elements as there are reads."""
    reads = 30_000
    case = channel_case(np.random.default_rng(4), regime, dies, reads, True)
    _, refused_cells, attempts = count_replay(monkeypatch, case)
    assert attempts > 0
    assert refused_cells <= reads // 4


def test_small_channel_never_calls_the_scan(monkeypatch):
    reads = fastpath.SCAN_MIN_READS - 1
    case = channel_case(np.random.default_rng(5), "table2", 2, reads, True)
    stepped, _, attempts = count_replay(monkeypatch, case)
    assert (stepped, attempts) == (reads, 0)
