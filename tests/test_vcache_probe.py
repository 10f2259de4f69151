"""Differential test of ``VectorCache.probe`` / ``bind`` against a
scalar model.

The batch probe decides hits, admissions and evictions for a whole
lookup stream without touching a byte, and ``bind`` moves the bytes
afterwards.  The reference here is the cache as it used to be: a plain
``OrderedDict`` of key -> bytes advanced one key at a time.  Small key
alphabets and capacities force the three in-batch cases — a hit on a
key an earlier miss of the same batch filled, a freed slot reused while
an earlier hit still reads its old occupant, and a key filled and
evicted again inside one batch — and arbitrary batch boundaries move
them across the probe/bind seam.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd.vcache import MISS, POLICIES, VectorCache

DIM = 3


def flash_row(key) -> np.ndarray:
    """The bytes "flash" holds for ``key`` (distinct per key)."""
    return np.full(DIM, np.float32(key[0] * 100 + key[1] + 0.5), dtype=np.float32)


class ScalarModel:
    """One key at a time, values stored per key: the reference policy."""

    def __init__(self, capacity, policy, admit_after):
        self.capacity, self.policy, self.admit_after = capacity, policy, admit_after
        self.entries = OrderedDict()
        self.seen = {}
        self.hits = self.misses = self.evictions = self.fills = 0

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
    cache = VectorCache(capacity, policy, admit_after)
    model = ScalarModel(capacity, policy, admit_after)
    cache.warm((key, flash_row(key)) for key in warm)
    for key in warm:
        if key in model.entries:
            model.entries.move_to_end(key)
        elif len(model.entries) >= capacity:
            break
        else:
            model.entries[key] = flash_row(key)
    for batch in batches:
        before = (model.hits, model.misses, model.evictions, model.fills)
        expected = [model.access(key) for key in batch]
        probe = cache.probe(batch)
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
        # Bytes: only the miss rows come from "flash"; bind does the rest.
        rows = np.full((len(batch), DIM), np.nan, dtype=np.float32)
        for position in probe.miss_positions().tolist():
            rows[position] = flash_row(batch[position])
        cache.bind(probe, rows)
        for row, key in zip(rows, batch):
            assert row.tobytes() == flash_row(key).tobytes()
        # Cumulative counters, residency order, resident bytes.
        assert (cache.hits, cache.misses, cache.evictions, cache.fills) == (
            model.hits, model.misses, model.evictions, model.fills
        )
        assert list(cache._slots) == list(model.entries)
        slots = list(cache._slots.values())
        assert len(set(slots)) == len(slots)
        assert all(0 <= slot < capacity for slot in slots)
        for key, slot in cache._slots.items():
            assert cache._arena[slot].tobytes() == model.entries[key].tobytes()
        assert sorted(slots + cache._free) == list(range(capacity))


def test_the_three_in_batch_cases():
    """The cases the probe must get right because bytes bind late,
    spelled out on a 2-slot LRU cache."""
    a, b, c, d = (0, 0), (0, 1), (0, 2), (0, 3)
    cache = VectorCache(2)
    cache.warm([(a, flash_row(a)), (b, flash_row(b))])
    slot_a = cache._slots[a]
    # a hits its arena slot; c fills (evicting b); d fills, evicting a,
    # whose freed slot must not be overwritten before lookup 0 has read
    # it (case b); c hits its own same-batch fill (case a); b and a
    # refill, evicting d and c, which never reach the arena (case c).
    batch = [a, c, d, c, b, a]
    probe = cache.probe(batch)
    assert probe.refs.tolist() == [slot_a, MISS, MISS, ~1, MISS, MISS]
    assert (probe.hits, probe.misses, probe.evictions, probe.fills) == (2, 4, 4, 4)
    assert cache._unbound == 2
    rows = np.zeros((len(batch), DIM), dtype=np.float32)
    for position in probe.miss_positions().tolist():
        rows[position] = flash_row(batch[position])
    cache.bind(probe, rows)
    assert [row.tobytes() for row in rows] == [flash_row(k).tobytes() for k in batch]
    assert list(cache._slots) == [b, a]
    assert c not in cache and d not in cache
    for key in (a, b):
        assert cache._arena[cache._slots[key]].tobytes() == flash_row(key).tobytes()


def test_probe_before_bind_is_refused():
    cache = VectorCache(2)
    cache.probe([(0, 0)])
    with pytest.raises(RuntimeError, match="never bound"):
        cache.probe([(0, 1)])
