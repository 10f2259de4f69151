"""Unit tests for the controller-DRAM hot-vector cache.

Covers :mod:`repro.ssd.vcache` through the one-key ``access`` call
(policies, eviction, warming, the DRAM fetch cost), the I/O-statistics
counters, the per-batch device metrics, and the sanitizer's
``vcache-hit-bound`` / ``vcache-hit-bytes`` invariants.  The batch
probe is pinned against a scalar model in
``tests/test_vcache_probe.py``; the end-to-end bitwise-equivalence
contract lives in ``tests/test_vcache_equivalence.py``.
"""

import numpy as np
import pytest

from repro.sim import Simulator
from repro.sim.sanitizer import Sanitizer, SanitizerError
from repro.ssd.stats import IOStatistics
from repro.ssd.vcache import (
    DRAM_BYTES_PER_CYCLE,
    POLICIES,
    VectorCache,
    encode,
    fetch_cycles,
)


def vec(seed: float) -> np.ndarray:
    return np.full(4, np.float32(seed), dtype=np.float32)


def probe(cache: VectorCache, key) -> bool:
    """Access ``key`` with a deterministic loader; True on a hit."""
    return cache.access(key, lambda: vec(hash(key) % 97)) is not None


def warm(cache: VectorCache, items) -> int:
    """``VectorCache.warm`` over ``((table, row), vector)`` pairs."""
    keys = [key for key, _ in items]
    return cache.warm(
        encode([t for t, _ in keys], [r for _, r in keys]), [v for _, v in items]
    )


A, B, C, H1, H2, H3, X, HOT = ((0, row) for row in range(8))


class TestConstruction:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            VectorCache(4, policy="mru")

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            VectorCache(-1)

    def test_rejects_bad_admit_after(self):
        with pytest.raises(ValueError, match="admit_after"):
            VectorCache(4, policy="freq", admit_after=0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"capacity_vectors": True}, "capacity_vectors"),
            ({"capacity_vectors": 1.5}, "capacity_vectors"),
            ({"capacity_vectors": float("nan")}, "capacity_vectors"),
            ({"capacity_vectors": 4, "admit_after": 1.5}, "admit_after"),
            ({"capacity_vectors": 4, "admit_after": True}, "admit_after"),
            ({"capacity_vectors": 4, "ev_size": -64}, "ev_size"),
        ],
    )
    def test_hostile_parameter_is_named(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            VectorCache(**kwargs)

    def test_hostile_key_outside_the_code_range_refused(self):
        for tables, rows in (([-1], [0]), ([0], [-3]), ([1 << 31], [0]), ([0], [1 << 32])):
            with pytest.raises(ValueError, match="vector-cache keys"):
                encode(tables, rows)

    def test_capacity_bytes_tracks_ev_size(self):
        cache = VectorCache(8, ev_size=64)
        assert cache.capacity_bytes == 512

    def test_all_policies_constructible(self):
        for policy in POLICIES:
            assert VectorCache(2, policy=policy).policy == policy


class TestLRUPolicy:
    def test_miss_then_hit(self):
        cache = VectorCache(4)
        assert not probe(cache, (0, 1))
        hit = cache.access((0, 1), lambda: vec(9))
        assert hit is not None
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_ratio == pytest.approx(0.5)

    def test_hit_returns_loaded_bytes(self):
        cache = VectorCache(4)
        cache.access((3, 7), lambda: vec(1.5))
        value = cache.access((3, 7), lambda: vec(999))
        assert value.tobytes() == vec(1.5).tobytes()

    def test_evicts_least_recently_used(self):
        cache = VectorCache(2)
        probe(cache, A)
        probe(cache, B)
        probe(cache, A)  # refresh a; b is now LRU
        probe(cache, C)  # evicts b
        assert A in cache and C in cache and B not in cache
        assert cache.evictions == 1

    def test_zero_capacity_never_fills(self):
        cache = VectorCache(0)
        for _ in range(3):
            assert not probe(cache, X)
        assert len(cache) == 0 and cache.fills == 0
        assert cache.misses == 3 and cache.hit_ratio == 0.0


class TestFreqPolicy:
    def test_doorkeeper_delays_admission(self):
        cache = VectorCache(4, policy="freq", admit_after=2)
        assert not probe(cache, X)  # miss 1: seen but not admitted
        assert len(cache) == 0
        assert not probe(cache, X)  # miss 2: admitted
        assert len(cache) == 1
        assert probe(cache, X)      # now a hit

    def test_one_shot_keys_never_pollute(self):
        cache = VectorCache(2, policy="freq", admit_after=2)
        probe(cache, HOT)
        probe(cache, HOT)  # admitted
        for cold in range(50):
            probe(cache, (1, cold))  # each seen once: never admitted
        assert probe(cache, HOT)
        assert len(cache) == 1

    def test_admit_after_one_behaves_like_lru(self):
        freq = VectorCache(2, policy="freq", admit_after=1)
        lru = VectorCache(2, policy="lru")
        keys = [A, B, A, C, B, A, C]
        outcomes = [(probe(freq, k), probe(lru, k)) for k in keys]
        assert all(f == l for f, l in outcomes)


class TestStaticPolicy:
    def test_fills_until_capacity_then_freezes(self):
        cache = VectorCache(2, policy="static")
        probe(cache, A)
        probe(cache, B)
        assert not probe(cache, C)  # full: c not admitted
        assert C not in cache
        assert probe(cache, A) and probe(cache, B)
        assert cache.evictions == 0

    def test_warm_pins_profiled_hot_set(self):
        cache = VectorCache(2, policy="static")
        resident = warm(cache, [(H1, vec(1)), (H2, vec(2)), (H3, vec(3))])
        assert resident == 2
        assert probe(cache, H1) and probe(cache, H2)
        assert not probe(cache, H3)

    def test_warm_refreshes_without_consuming_slots(self):
        cache = VectorCache(2)
        warm(cache, [(A, vec(1)), (A, vec(5)), (B, vec(2))])
        assert len(cache) == 2
        assert cache.access(A, lambda: vec(0)).tobytes() == vec(5).tobytes()


class TestBookkeeping:
    def test_reset_stats_keeps_contents(self):
        cache = VectorCache(4)
        probe(cache, A)
        probe(cache, A)
        cache.reset_stats()
        assert (cache.hits, cache.misses, cache.lookups) == (0, 0, 0)
        assert A in cache

    def test_clear_drops_everything(self):
        cache = VectorCache(4, policy="freq")
        probe(cache, A)
        cache.clear()
        assert len(cache) == 0 and cache.misses == 0
        # Doorkeeper state is gone too: admission restarts from zero.
        assert not probe(cache, A)
        assert len(cache) == 0


class TestFetchCycles:
    def test_zero_and_negative_vectors_cost_nothing(self):
        assert fetch_cycles(0, 64) == 0.0
        assert fetch_cycles(-3, 64) == 0.0

    def test_linear_in_vectors_and_ev_size(self):
        one = fetch_cycles(1, 64)
        assert one == pytest.approx(64 / DRAM_BYTES_PER_CYCLE)
        assert fetch_cycles(10, 64) == pytest.approx(10 * one)
        assert fetch_cycles(1, 128) == pytest.approx(2 * one)

    def test_far_cheaper_than_flash_read(self):
        from repro.ssd.timing import SSDTimingModel

        timing = SSDTimingModel()
        assert fetch_cycles(1, 64) < 0.01 * timing.vector_read_cycles(64)


class TestIOStatistics:
    def test_record_vcache_accumulates(self):
        stats = IOStatistics()
        stats.record_vcache(3, 1)
        stats.record_vcache(1, 3)
        assert (stats.vcache_hits, stats.vcache_misses) == (4, 4)
        assert stats.vcache_hit_ratio == pytest.approx(0.5)

    def test_ratio_zero_without_probes(self):
        assert IOStatistics().vcache_hit_ratio == 0.0

    def test_counters_in_snapshots_and_dict(self):
        stats = IOStatistics()
        before = stats.snapshot()
        stats.record_vcache(2, 6)
        window = stats.diff(before)
        assert (window.vcache_hits, window.vcache_misses) == (2, 6)
        assert window.vcache_hit_ratio == pytest.approx(0.25)
        assert stats.as_dict()["vcache_hits"] == 2
        assert stats.as_dict()["vcache_hit_ratio"] == pytest.approx(0.25)

    def test_eviction_and_fill_counters_windowed(self):
        stats = IOStatistics()
        stats.record_vcache(0, 4, evictions=1, fills=4)
        before = stats.snapshot()
        stats.record_vcache(3, 1, evictions=0, fills=1)
        window = stats.diff(before)
        assert (window.vcache_evictions, window.vcache_fills) == (0, 1)
        assert (stats.vcache_evictions, stats.vcache_fills) == (1, 5)

    def test_window_around_cached_lookup(self):
        """snapshot()/diff() around a real lookup carries every vcache
        counter through the window — including evictions and fills."""
        from tests.test_fastpath_equivalence import build_engine

        engine = build_engine("square", vcache=VectorCache(16))
        stats = engine.controller.stats
        batch = [[[0, 1, 2], [3, 4], [5]]]
        engine.lookup_batch(batch, fast=False)  # cold: all misses fill
        before = stats.snapshot()
        result = engine.lookup_batch(batch, fast=False)  # warm: all hit
        window = stats.diff(before)
        assert result.vcache_hits == 6
        assert (window.vcache_hits, window.vcache_misses) == (6, 0)
        assert (window.vcache_evictions, window.vcache_fills) == (0, 0)
        assert window.vcache_hit_ratio == pytest.approx(1.0)
        # The cold batch's fills live in the cumulative counters (and
        # in the window *before* the snapshot), not in this window.
        assert stats.vcache_fills == 6
        assert before.vcache_fills == 6


class TestSanitizerInvariant:
    def test_valid_batches_pass(self):
        sanitizer = Sanitizer(Simulator())
        sanitizer.vcache_batch(0, 0)
        sanitizer.vcache_batch(3, 3)
        sanitizer.vcache_batch(1, 10)

    @pytest.mark.parametrize("hits,lookups", [(4, 3), (-1, 5), (0, -2)])
    def test_bad_counts_raise(self, hits, lookups):
        sanitizer = Sanitizer(Simulator())
        with pytest.raises(SanitizerError, match="vcache-hit-bound"):
            sanitizer.vcache_batch(hits, lookups)


    def test_equal_hit_bytes_pass(self):
        rows = np.arange(8, dtype=np.float32).reshape(2, 4)
        Sanitizer(Simulator()).vcache_hit_bytes(rows, rows.copy())

    def test_corrupt_arena_slot_is_caught(self):
        """Mutation test: a clobbered arena slot feeds the EV Sum wrong
        bytes with no timing symptom; ``vcache-hit-bytes`` names it on
        both execution paths."""
        from tests.test_fastpath_equivalence import build_engine

        batch = [[[0, 1, 2], [3, 4], [5]]]
        for fast in (False, True):
            engine = build_engine("square", vcache=VectorCache(16))
            assert engine.controller.flash.sanitizer is not None
            engine.lookup_batch(batch, fast=fast)  # cold: all misses fill
            engine.lookup_batch(batch, fast=fast)  # warm hits verify clean
            cache = engine.controller.vcache
            slot = cache._refs[cache._codes == encode([1], [4])][0]
            cache._arena[slot] += np.float32(1.0)
            with pytest.raises(SanitizerError, match="vcache-hit-bytes"):
                engine.lookup_batch(batch, fast=fast)


class TestDeviceMetrics:
    """The device's vcache counters are fed by each batch's own probe
    counts, not by deltas of the cache's cumulative counters."""

    def make_device(self):
        from repro.core.device import RMSSD
        from repro.models import build_model, get_config
        from repro.obs import MetricsRegistry

        config = get_config("rmc1")
        model = build_model(config, rows_per_table=64, seed=7)
        metrics = MetricsRegistry()
        device = RMSSD(
            model, config.lookups_per_table, metrics=metrics,
            vcache=VectorCache(256),
        )
        rng = np.random.default_rng(0)
        sparse = [
            [list(rng.integers(0, 16, size=4)) for _ in range(config.num_tables)]
            for _ in range(2)
        ]
        dense = rng.standard_normal((2, config.dense_dim)).astype(np.float32)
        return device, metrics, dense, sparse

    def test_reset_stats_between_batches(self):
        """Regression: warm -> ``reset_stats()`` -> measure (the
        ``bench_vcache_locality`` pattern) used to push a negative
        delta into a counter and raise ``counters only go up``."""
        from repro.obs import names

        device, metrics, dense, sparse = self.make_device()
        device.infer_batch(dense, sparse)
        device.vcache.reset_stats()
        device.infer_batch(dense, sparse)
        probes = 2 * sum(len(cell) for sample in sparse for cell in sample)
        hits = metrics.counter(names.METRIC_VCACHE_HITS).value
        misses = metrics.counter(names.METRIC_VCACHE_MISSES).value
        assert hits + misses == probes
        assert hits == device.stats.vcache_hits
        assert misses == device.stats.vcache_misses

    def test_lookup_result_carries_batch_counts(self):
        device, _, _, sparse = self.make_device()
        engine = device.lookup_engine
        cold = engine.lookup_batch(sparse)
        assert cold.vcache_fills == cold.vectors_read > 0
        assert cold.vcache_evictions == device.stats.vcache_evictions
        warm = engine.lookup_batch(sparse)
        assert (warm.vcache_fills, warm.vcache_evictions) == (0, 0)
        assert warm.vcache_hits == warm.total_vectors


class TestHostileIndices:
    """A bad index is refused before the cache is probed, on both
    paths: counters, LRU order, pending fills and the device statistics
    stay where they were, and the next good batch is served."""

    GOOD = [[[0, 1, 2], [3, 4], [5]], [[6], [7, 8], []]]

    @staticmethod
    def state(engine):
        cache = engine.controller.vcache
        return (
            cache.hits, cache.misses, cache.evictions, cache.fills,
            cache._codes.tolist(), cache._refs.tolist(), cache._unbound,
            engine.controller.stats.as_dict(),
        )

    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("row", [96, -3, 2**40])
    def test_hostile_row_leaves_the_cache_untouched(self, fast, row):
        from tests.test_fastpath_equivalence import ROWS, build_engine

        assert row < 0 or row >= ROWS
        engine = build_engine("square", vcache=VectorCache(8))
        engine.lookup_batch(self.GOOD, fast=fast)
        before = self.state(engine)
        bad = [[[9, 10, 11], [12, 13], [14]], [[15], [16, row], [17]]]
        with pytest.raises(IndexError, match=f"index {row} out of range for table 1"):
            engine.lookup_batch(bad, fast=fast)
        assert self.state(engine) == before
        result = engine.lookup_batch(self.GOOD, fast=fast)
        assert result.vcache_hits + result.vectors_read == 9

    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("capacity", [None, 8])
    def test_hostile_fractional_row_refused(self, fast, capacity):
        from tests.test_fastpath_equivalence import build_engine

        engine = build_engine("square", vcache=capacity and VectorCache(capacity))
        reference = build_engine("square")
        stats = engine.controller.stats.as_dict()
        with pytest.raises(IndexError, match="indices must be int64 row numbers"):
            engine.lookup_batch([[[0], [1.5], [2]]], fast=fast)
        assert engine.controller.stats.as_dict() == stats
        good = [[[0], [1], [2]]]
        expected = reference.lookup_batch(good, fast=fast).pooled
        assert engine.lookup_batch(good, fast=fast).pooled.tobytes() == expected.tobytes()
