"""Differential test of ``VectorCache.probe`` / ``bind`` against a
scalar model.

The batch probe decides hits, admissions and evictions for a whole
lookup stream as one array program, without touching a byte, and
``bind`` moves the bytes afterwards.  The reference here is the cache
as it used to be: a plain ``OrderedDict`` of key -> bytes advanced one
key at a time.  Small key alphabets and capacities force the three
in-batch cases — a hit on a key an earlier miss of the same batch
filled, a freed slot reused while an earlier hit still reads its old
occupant, and a key filled and evicted again inside one batch — and
arbitrary batch boundaries move them across the probe/bind seam.

The seam tests aim at the array program's own boundaries: an LRU
access whose window since its previous access holds exactly
``C - 1`` / ``C`` / ``C + 1`` distinct keys is decided by the exact
stack-distance count, not by a shortcut; a cyclic sweep makes every
access such a count; the doorkeeper's one circular case (a warmed key
below the admission threshold, evicted and missed again) splits a
batch.  That count runs window by window on short windows and as one
wavelet matrix on long ones: each traffic shape is pinned to its
count, and both counts are run on every shape.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd import vcache
from repro.ssd.vcache import MISS, POLICIES, VectorCache, encode

DIM = 3


def flash_row(key) -> np.ndarray:
    """The bytes "flash" holds for ``key`` (distinct per key)."""
    return np.full(DIM, np.float32(key[0] * 1000 + key[1] + 0.5), dtype=np.float32)


def codes(keys) -> np.ndarray:
    return encode([table for table, _ in keys], [row for _, row in keys])


def decode(code) -> tuple:
    return int(code) >> 32, int(code) & 0xFFFFFFFF


class ScalarModel:
    """One key at a time, values stored per key: the reference policy."""

    def __init__(self, capacity, policy, admit_after):
        self.capacity, self.policy, self.admit_after = capacity, policy, admit_after
        self.entries = OrderedDict()
        self.seen = {}
        self.hits = self.misses = self.evictions = self.fills = 0

    def warm(self, keys):
        for key in keys:
            if key in self.entries:
                self.entries.move_to_end(key)
            elif len(self.entries) >= self.capacity:
                break
            else:
                self.entries[key] = flash_row(key)

    def access(self, key):
        """The cached bytes on a hit, ``None`` on a miss."""
        if key in self.entries:
            self.hits += 1
            self.entries.move_to_end(key)
            return self.entries[key]
        self.misses += 1
        if self.capacity == 0:
            return None
        if self.policy == "static":
            if len(self.entries) >= self.capacity:
                return None
        elif self.policy == "freq":
            self.seen[key] = self.seen.get(key, 0) + 1
            if self.seen[key] < self.admit_after:
                return None
        if len(self.entries) >= self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1
        self.entries[key] = flash_row(key)
        self.fills += 1
        return None


def pair(capacity, policy="lru", admit_after=2, warm=()):
    cache = VectorCache(capacity, policy, admit_after)
    model = ScalarModel(capacity, policy, admit_after)
    cache.warm(codes(warm), [flash_row(key) for key in warm])
    model.warm(warm)
    return cache, model


def miss_rows(probe, batch) -> np.ndarray:
    """The rows "flash" reads for the misses of ``batch``, in issue order."""
    rows = [flash_row(batch[position]) for position in probe.miss_positions.tolist()]
    return np.array(rows, dtype=np.float32).reshape(-1, DIM)


def run_batch(cache, model, batch):
    """Probe and bind ``batch`` on the cache, access it on the model,
    and check every observable agrees; returns the probe."""
    before = (model.hits, model.misses, model.evictions, model.fills)
    expected = [model.access(key) for key in batch]
    probe = cache.probe(codes(batch))
    # Hit mask and the batch's own counts.
    assert [ref != MISS for ref in probe.refs.tolist()] == [
        value is not None for value in expected
    ]
    assert (probe.hits, probe.misses, probe.evictions, probe.fills) == tuple(
        now - then
        for now, then in zip(
            (model.hits, model.misses, model.evictions, model.fills), before
        )
    )
    assert probe.hits + probe.misses == len(batch)
    assert len(cache) <= cache.capacity_vectors
    # Bytes: only the miss rows come from "flash"; bind does the rest.
    rows = cache.bind(probe, miss_rows(probe, batch))
    for row, key in zip(rows, batch):
        assert row.tobytes() == flash_row(key).tobytes()
    assert_state(cache, model)
    return probe


def assert_state(cache, model):
    """Cumulative counters, LRU order, slots, resident bytes, doorkeeper."""
    assert (cache.hits, cache.misses, cache.evictions, cache.fills) == (
        model.hits, model.misses, model.evictions, model.fills
    )
    assert [decode(code) for code in cache._codes] == list(model.entries)
    slots = cache._refs.tolist()
    assert len(set(slots)) == len(slots)
    assert all(0 <= slot < model.capacity for slot in slots)
    for code, slot in zip(cache._codes, slots):
        assert cache._arena[slot].tobytes() == model.entries[decode(code)].tobytes()
    assert sorted(slots + cache._free.tolist()) == list(range(model.capacity))
    assert cache._unbound == 0
    door = dict(zip(map(decode, cache._door_keys[1:]), cache._door_counts[1:].tolist()))
    assert door == model.seen


keys = st.tuples(st.integers(0, 1), st.integers(0, 5))


@settings(max_examples=300, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    capacity=st.integers(0, 8),
    admit_after=st.integers(1, 3),
    warm=st.lists(keys, max_size=4),
    batches=st.lists(st.lists(keys, max_size=24), min_size=1, max_size=4),
)
def test_batch_probe_matches_scalar_model(policy, capacity, admit_after, warm, batches):
    cache, model = pair(capacity, policy, admit_after, warm)
    for batch in batches:
        run_batch(cache, model, batch)


def test_the_three_in_batch_cases():
    """The cases the probe must get right because bytes bind late,
    spelled out on a 2-slot LRU cache."""
    a, b, c, d = (0, 0), (0, 1), (0, 2), (0, 3)
    cache, model = pair(2, warm=[a, b])
    slot_a = int(cache._refs[0])
    # a hits its arena slot; c fills (evicting b); d fills, evicting a,
    # whose freed slot must not be overwritten before lookup 0 has read
    # it (case b); c hits its own same-batch fill (case a); b and a
    # refill, evicting d and c, which never reach the arena (case c).
    batch = [a, c, d, c, b, a]
    probe = cache.probe(codes(batch))
    assert probe.refs.tolist() == [slot_a, MISS, MISS, ~1, MISS, MISS]
    assert (probe.hits, probe.misses, probe.evictions, probe.fills) == (2, 4, 4, 4)
    assert cache._unbound == 2
    rows = cache.bind(probe, miss_rows(probe, batch))
    assert [row.tobytes() for row in rows] == [flash_row(k).tobytes() for k in batch]
    assert [decode(code) for code in cache._codes] == [b, a]
    assert c not in cache and d not in cache
    # b's slot was freed first, then a's, and the oldest surviving fill
    # takes the top of the free stack: the slots the per-key loop gave.
    assert cache._refs.tolist() == [slot_a, 1 - slot_a] and not cache._free.size
    for code, slot in zip(cache._codes, cache._refs):
        assert cache._arena[slot].tobytes() == flash_row(decode(code)).tobytes()


def test_probe_before_bind_is_refused():
    cache = VectorCache(2)
    cache.probe(codes([(0, 0)]))
    with pytest.raises(RuntimeError, match="never bound"):
        cache.probe(codes([(0, 1)]))


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(0, 8),
    batches=st.lists(st.lists(keys, max_size=24), min_size=1, max_size=4),
)
def test_hit_mask_matches_scalar_model(capacity, batches):
    """A key-only LRU (the baselines' page and host caches): the same
    decisions, order and counters, and not one vector byte."""
    cache, model = VectorCache(capacity), ScalarModel(capacity, "lru", 1)
    for batch in batches:
        expected = [model.access(key) is not None for key in batch]
        assert cache.hit_mask(codes(batch)).tolist() == expected
        assert [decode(code) for code in cache._codes] == list(model.entries)
        assert (cache.hits, cache.misses, cache.evictions, cache.fills) == (
            model.hits, model.misses, model.evictions, model.fills
        )
    assert cache._arena is None or cache._arena.nbytes == 0


@given(stream=st.lists(st.integers(0, 200), max_size=300))
def test_unbounded_cache_misses_once_per_key(stream):
    cache = VectorCache(256)
    hit = cache.hit_mask(np.array(stream, dtype=np.int64))
    assert cache.misses == len(set(stream)) == len(stream) - hit.sum()


def test_small_cache_hits_no_more_than_big():
    """Locality shrinks with capacity: the SSD-S vs SSD-M effect."""
    stream = np.random.default_rng(5).integers(0, 50, size=1000)
    small, big = VectorCache(10), VectorCache(40)
    small.hit_mask(stream)
    big.hit_mask(stream)
    assert small.hit_ratio < big.hit_ratio


# ----------------------------------------------------------------------
# Seams of the array program
# ----------------------------------------------------------------------
C = 8


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("distinct", [C - 1, C, C + 1])
def test_window_of_c_minus_one_c_and_c_plus_one_distinct_keys(policy, distinct):
    """The second access to ``a`` sees ``distinct`` keys in a window
    of twice that length, all seen before: neither the gap nor the
    never-seen keys decide it, only the exact count."""
    a = (1, 0)
    window = [(0, row) for row in range(distinct)]
    cache, model = pair(C, policy, admit_after=2)
    run_batch(cache, model, window + [a] + window)
    probe = run_batch(cache, model, [a] + window + window[::-1] + [a])
    if policy == "lru":
        assert (probe.refs[-1] != MISS) == (distinct < C)


@pytest.mark.parametrize("policy", POLICIES)
def test_cyclic_sweep_over_c_plus_one_keys(policy):
    """Every access of a cyclic sweep is an exact count; under LRU
    every one of them misses."""
    sweep = [(0, row % (C + 1)) for row in range(5 * (C + 1))]
    cache, model = pair(C, policy, admit_after=2)
    for batch in (sweep[:17], sweep[17:], sweep):
        probe = run_batch(cache, model, batch)
        if policy == "lru":
            assert probe.hits == 0


@pytest.mark.parametrize("policy", POLICIES)
def test_uniform_traffic_over_two_c_keys(policy):
    rng = np.random.default_rng(3)
    cache, model = pair(C, policy, admit_after=2, warm=[(0, 1), (1, 2)])
    for _ in range(4):
        rows = rng.integers(0, 2 * C, size=300)
        run_batch(cache, model, [(int(row) % 2, int(row)) for row in rows])


@pytest.mark.parametrize("policy", POLICIES)
def test_hot_cold_stream_at_capacity_64(policy):
    rng = np.random.default_rng(7)
    cache, model = pair(64, policy, admit_after=2)
    for _ in range(3):
        hot = rng.random(2000) < 0.7
        rows = np.where(hot, rng.integers(0, 48, 2000), rng.integers(48, 1048, 2000))
        run_batch(cache, model, [(int(row) % 3, int(row)) for row in rows])


def test_static_reaches_capacity_mid_batch():
    warm = [(0, 0), (0, 1), (0, 2)]
    cache, model = pair(C, "static", warm=warm)
    batch = [(1, row) for row in (0, 1, 0, 2, 3, 3, 4, 5, 6, 7, 5, 8, 9, 0)]
    probe = run_batch(cache, model, batch + warm)
    assert probe.fills == C - len(warm) and probe.evictions == 0
    # Every key first seen after the cache filled misses; the rest hit.
    full = batch.index((1, 5))
    assert probe.refs[full : len(batch) - 1].tolist() == [MISS] * 6
    assert MISS not in probe.refs[len(batch) - 1 :].tolist()


def test_freq_warmed_key_below_threshold_evicted_and_missed_again():
    """``w`` is pinned by warm() with no doorkeeper count: once evicted,
    it must miss twice more before the doorkeeper admits it — which
    the admission mask computed up front cannot know."""
    w, x, y = (0, 0), (0, 1), (0, 2)
    cache, model = pair(2, "freq", admit_after=3, warm=[w])
    batch = [w, x, x, x, y, y, y, w, w, w, x, w]
    probe = run_batch(cache, model, batch)
    assert probe.refs[0] != MISS
    assert probe.refs[7:10].tolist() == [MISS, MISS, MISS]
    assert probe.refs[-1] != MISS
    assert model.seen[w] == 3


@pytest.mark.parametrize("policy", POLICIES)
def test_keys_too_large_for_the_sort_key(policy):
    """Codes near 2**63 cannot be sorted as ``code * n + position``;
    they are ranked first, with the same decisions."""
    big = [(2**31 - 1, 2**32 - 1), (2**31 - 1, 0), (2**30, 7)]
    batch = [big[i % 3] for i in (0, 1, 0, 2, 2, 1, 0, 1, 2, 0)]
    cache, model = pair(2, policy, admit_after=2, warm=big[2:])
    for _ in range(2):
        run_batch(cache, model, batch)


# ----------------------------------------------------------------------
# The two counts: window by window, or one wavelet matrix
# ----------------------------------------------------------------------
def hot_cold_batches():
    """Shaped like ``lookup_rmc1_vcache``: 70 % of the accesses on a hot
    set smaller than the cache, the rest on a long cold tail.  The
    windows left to count are short."""
    rng = np.random.default_rng(7)
    batches = []
    for _ in range(3):
        hot = rng.random(2000) < 0.7
        rows = np.where(hot, rng.integers(0, 48, 2000), rng.integers(48, 1048, 2000))
        batches.append([(int(row) % 3, int(row)) for row in rows])
    return 64, batches


def page_sweep_batches():
    """Shaped like a page cache: every cycle reads each of 400 cold
    pages once, in a fresh order, each read followed by one of 4 hot
    pages.  The windows left to count span a cycle each."""
    rng = np.random.default_rng(1)
    stream = []
    for _ in range(4):
        for page in rng.permutation(400).tolist():
            stream += [(1, page), (0, int(rng.integers(0, 4)))]
    return 300, [stream]


def cyclic_batches():
    sweep = [(0, row % (C + 1)) for row in range(5 * (C + 1))]
    return C, [sweep[:17], sweep[17:], sweep]


SHAPES = {
    "hot_cold": hot_cold_batches,
    "page_sweep": page_sweep_batches,
    "cyclic": cyclic_batches,
}


def wavelet_calls(monkeypatch) -> list:
    """Records each call of the wavelet count from now on."""
    calls, count_below = [], vcache._count_below
    monkeypatch.setattr(
        vcache, "_count_below", lambda *args: calls.append(args) or count_below(*args)
    )
    return calls


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize(
    "shape, wavelet", [("hot_cold", False), ("page_sweep", True), ("cyclic", False)]
)
def test_probe_counts_each_traffic_shape_its_own_way(monkeypatch, policy, shape, wavelet):
    """Short windows are scanned one by one, and page-cache traffic
    stays on the wavelet matrix; the scalar model agrees either way."""
    calls = wavelet_calls(monkeypatch)
    capacity, batches = SHAPES[shape]()
    cache, model = pair(capacity, policy, admit_after=2)
    for batch in batches:
        run_batch(cache, model, batch)
    if policy == "lru":
        assert bool(calls) == wavelet


@pytest.mark.parametrize("width", [0, 10**9], ids=["wavelet", "direct"])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("policy", POLICIES)
def test_probe_either_count_matches_scalar_model(monkeypatch, width, shape, policy):
    """Each count alone decides every shape exactly as the model does."""
    monkeypatch.setattr(vcache, "DIRECT_COUNT_WIDTH", width)
    calls = wavelet_calls(monkeypatch)
    capacity, batches = SHAPES[shape]()
    cache, model = pair(capacity, policy, admit_after=2)
    for batch in batches:
        run_batch(cache, model, batch)
    if policy == "lru":
        assert bool(calls) == (width == 0)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize(
    "batch",
    [[0, 1, 0, 2, 3, 2, 4, 1], [0, 1, 2, 0, 3, 3, 4, 1]],
    ids=["repeat_before_the_near_window", "repeat_one_past_the_near_gap"],
)
def test_probe_near_repeats_stop_at_their_boundary(monkeypatch, policy, batch):
    """The last access's window holds exactly ``C`` = 4 distinct keys,
    one a repeat of ``0`` that is not a near repeat (gap 2 at 1 past
    ``p``, or gap 3): taking it out too would make it a hit."""
    monkeypatch.setattr(vcache, "NEAR_GAP", 2)
    cache, model = pair(4, policy, admit_after=2)
    probe = run_batch(cache, model, [(0, row) for row in batch])
    if policy == "lru":
        assert probe.refs[-1] == MISS


# ----------------------------------------------------------------------
# Boundaries: refused by name, before any state moves
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "keys", [np.array([1.5, 1.0, 2.7]), np.zeros((2, 2), dtype=np.int64), np.bool_([1])]
)
def test_probe_refuses_keys_that_are_not_a_1d_integer_array(keys):
    cache = VectorCache(4)
    cache.hit_mask(np.array([1, 2]))
    for call in (cache.probe, cache.hit_mask):
        with pytest.raises(ValueError, match="keys"):
            call(keys)
    assert (cache.hits, cache.misses, cache._codes.tolist()) == (0, 2, [1, 2])


def test_probe_encode_refuses_fractional_tables_and_rows():
    with pytest.raises(ValueError, match="tables"):
        encode([1.5], [2])
    with pytest.raises(ValueError, match="rows"):
        encode([1], [2.5])
    assert encode([], []).size == 0


def test_probe_bind_checks_the_row_block_before_any_state_moves():
    """A short row block used to empty the free stack and then fail,
    wedging the cache for good."""
    cache = VectorCache(2)
    probe = cache.probe(np.array([1, 2, 3]))
    state = (cache._free.tolist(), cache._refs.tolist(), cache._unbound)
    for rows in (np.zeros((2, 4), np.float32), np.zeros((3, 4)), np.zeros(3, np.float32)):
        with pytest.raises(ValueError, match="rows"):
            cache.bind(probe, rows)
        assert (cache._free.tolist(), cache._refs.tolist(), cache._unbound) == state
    with pytest.raises(ValueError):
        cache.bind(probe, np.zeros((3, 4), np.float32), np.zeros((2, 4), np.float32))
    assert (cache._free.tolist(), cache._refs.tolist(), cache._unbound) == state
    # Any float32 block of the right shape binds, strided or not.
    cache.bind(probe, np.arange(24, dtype=np.float32).reshape(3, 8)[:, ::2])
    probe = cache.probe(np.array([3]))
    with pytest.raises(ValueError, match=r"rows must be float32 \(0, 4\)"):
        cache.bind(probe, np.zeros((0, 5), np.float32))
    assert cache.bind(probe, np.zeros((0, 4), np.float32)).tolist() == [[16, 18, 20, 22]]
