"""Differential tests for the controller-DRAM vector cache.

The cache extends PR 2's bitwise-equivalence contract in both
directions:

* **disabled** (``vcache=None``, the default) the lookup path must be
  byte-identical to the cache-free build — pooled outputs, elapsed
  times, statistics, and span trees;
* **enabled**, the DES and the vectorized fast path must agree exactly
  with each other — same hit sets (they probe in the same issue
  order), same pooled bytes, same elapsed times, same span trees —
  while pooled *values* never change versus the cache-free device (a
  hit returns the same fp32 bytes the flash read would have).

The replayed LRU hit ratio is also pinned against
:func:`repro.workloads.locality.measured_cache_hit_ratio`, which is
what the Fig. 14-style locality benchmark keys on.
"""

import numpy as np
import pytest
from pytest import approx

from repro.obs.tracer import Tracer
from repro.ssd.vcache import POLICIES, VectorCache
from repro.workloads.locality import hit_ratio_for_k, measured_cache_hit_ratio
from repro.workloads.tracegen import TraceGenerator
from tests.test_fastpath_equivalence import (
    GEOMETRY_NAMES,
    NUM_TABLES,
    ROWS,
    assert_equivalent,
    build_engine,
    make_batch,
)


def batch_stream(seed, count=4, samples=3, max_len=5, dist="skewed"):
    rng = np.random.default_rng(seed)
    return [make_batch(rng, samples, max_len, dist) for _ in range(count)]


def strip_vcache(stats_dict):
    return {
        k: v for k, v in stats_dict.items() if not k.startswith("vcache")
    }


# ----------------------------------------------------------------------
# Disabled: byte-identical to the cache-free build
# ----------------------------------------------------------------------
class TestDisabledIsInert:
    def test_none_matches_implicit_default(self):
        """``vcache=None`` and a capacity-0 cache are timing-identical
        to a controller built without the kwarg at all."""
        batches = batch_stream(0)
        default = build_engine("square")
        explicit = build_engine("square", vcache=None)
        empty = build_engine("square", vcache=VectorCache(0))
        for batch in batches:
            a = default.lookup_batch(batch, fast=False)
            b = explicit.lookup_batch(batch, fast=False)
            c = empty.lookup_batch(batch, fast=False)
            assert b.pooled.tobytes() == a.pooled.tobytes()
            assert c.pooled.tobytes() == a.pooled.tobytes()
            assert b.elapsed_ns == approx(a.elapsed_ns, rel=0, abs=0)
            assert c.elapsed_ns == approx(a.elapsed_ns, rel=0, abs=0)
            assert (b.vcache_hits, b.vcache_ns) == (0, 0.0)
            assert (c.vcache_hits, c.vcache_ns) == (0, 0.0)
        # Inertness demands exact clock equality.
        assert explicit.controller.sim.now == default.controller.sim.now  # lint: ok[R2]
        assert empty.controller.sim.now == default.controller.sim.now  # lint: ok[R2]
        assert (
            explicit.controller.stats.as_dict()
            == default.controller.stats.as_dict()
        )
        # The capacity-0 cache still counts its (all-miss) probes.
        assert strip_vcache(empty.controller.stats.as_dict()) == strip_vcache(
            default.controller.stats.as_dict()
        )
        assert empty.controller.stats.vcache_misses > 0

    def test_disabled_span_tree_identical(self):
        batches = batch_stream(1, count=2)
        default = build_engine("wide")
        explicit = build_engine("wide", vcache=None)
        default.controller.tracer = Tracer()
        explicit.controller.tracer = Tracer()
        for batch in batches:
            default.lookup_batch(batch, fast=False)
            explicit.lookup_batch(batch, fast=False)
        assert len(default.controller.tracer) > 0
        assert (
            explicit.controller.tracer.as_tuples()
            == default.controller.tracer.as_tuples()
        )
        names = {s.name for s in explicit.controller.tracer.spans}
        assert "vcache" not in names


# ----------------------------------------------------------------------
# Enabled: DES == fast path, bitwise
# ----------------------------------------------------------------------
class TestEnabledBitwiseEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("capacity", [0, 8, 64])
    def test_policy_capacity_grid(self, policy, capacity):
        batches = batch_stream(POLICIES.index(policy) * 3 + capacity)
        des_engine = build_engine("square", vcache=VectorCache(capacity, policy))
        fast_engine = build_engine("square", vcache=VectorCache(capacity, policy))
        for batch in batches:
            des = des_engine.lookup_batch(batch, fast=False)
            fast = fast_engine.lookup_batch(batch, fast=True)
            assert fast.path == "fast"
            assert fast.vcache_hits == des.vcache_hits
            assert fast.vcache_ns == approx(des.vcache_ns, rel=0, abs=0)
            assert fast.total_vectors == des.total_vectors
            assert_equivalent(des_engine, fast_engine, des, fast)
        des_cache = des_engine.controller.vcache
        fast_cache = fast_engine.controller.vcache
        assert (des_cache.hits, des_cache.misses, des_cache.evictions) == (
            fast_cache.hits, fast_cache.misses, fast_cache.evictions
        )

    @pytest.mark.parametrize("geometry", GEOMETRY_NAMES)
    def test_geometry_grid(self, geometry):
        batches = batch_stream(GEOMETRY_NAMES.index(geometry), count=3)
        des_engine = build_engine(geometry, vcache=VectorCache(24))
        fast_engine = build_engine(geometry, vcache=VectorCache(24))
        for batch in batches:
            des = des_engine.lookup_batch(batch, fast=False)
            fast = fast_engine.lookup_batch(batch, fast=True)
            assert_equivalent(des_engine, fast_engine, des, fast)

    def test_mean_pooling(self):
        batches = batch_stream(7, dist="uniform")
        des_engine = build_engine(
            "deep", pooling="mean", vcache=VectorCache(16)
        )
        fast_engine = build_engine(
            "deep", pooling="mean", vcache=VectorCache(16)
        )
        for batch in batches:
            des = des_engine.lookup_batch(batch, fast=False)
            fast = fast_engine.lookup_batch(batch, fast=True)
            assert_equivalent(des_engine, fast_engine, des, fast)

    def test_all_hit_batch(self):
        """A fully-absorbed batch does no flash work on either path."""
        warm_batch = [[[1, 2], [3], [4]]]
        des_engine = build_engine("square", vcache=VectorCache(16))
        fast_engine = build_engine("square", vcache=VectorCache(16))
        for engine in (des_engine, fast_engine):
            engine.lookup_batch(warm_batch, fast=False)
        before_des = des_engine.controller.stats.flash_vector_reads
        des = des_engine.lookup_batch(warm_batch, fast=False)
        fast = fast_engine.lookup_batch(warm_batch, fast=True)
        assert des.vectors_read == fast.vectors_read == 0
        assert des.vcache_hits == fast.vcache_hits == 4
        assert des_engine.controller.stats.flash_vector_reads == before_des
        assert_equivalent(des_engine, fast_engine, des, fast)

    @pytest.mark.parametrize("capacity", [2, 4])
    def test_bitwise_when_one_batch_overflows_the_cache(self, capacity):
        """A 32-sample RMC1 batch fills a 2-4 vector cache thousands of
        times over: nearly every fill is evicted again before the batch
        ends, hits land on same-batch fills, and freed slots are reused
        under earlier hits — all resolved after the probe loop."""
        from repro.core.device import RMSSD
        from repro.models import build_model, get_config

        config = get_config("rmc1")
        model = build_model(config, rows_per_table=64, seed=7)
        rng = np.random.default_rng(capacity)
        batches = [
            [
                [
                    list(rng.integers(0, 6, size=config.lookups_per_table))
                    for _ in range(config.num_tables)
                ]
                for _ in range(samples)
            ]
            for samples in (32, 4)
        ]
        engines = [
            RMSSD(
                model, config.lookups_per_table, vcache=VectorCache(capacity)
            ).lookup_engine
            for _ in range(2)
        ]
        des_engine, fast_engine = engines
        for batch in batches:
            des = des_engine.lookup_batch(batch, fast=False)
            fast = fast_engine.lookup_batch(batch, fast=True)
            assert fast.path == "fast"
            assert des.vcache_fills > capacity and des.vcache_hits > 0
            assert (fast.vcache_hits, fast.vcache_evictions, fast.vcache_fills) == (
                des.vcache_hits, des.vcache_evictions, des.vcache_fills
            )
            assert fast.vcache_ns == approx(des.vcache_ns, rel=0, abs=0)
            assert_equivalent(des_engine, fast_engine, des, fast)
            expected = np.concatenate(
                [
                    model.tables[t].lookup(cell).sum(axis=0, dtype=np.float32)
                    for sample in batch[:1]
                    for t, cell in enumerate(sample)
                ]
            )
            np.testing.assert_allclose(fast.pooled[0], expected, rtol=1e-5)

    def test_bitwise_with_warmed_static_cache(self):
        """``warm_vcache`` + ``static``: the pinned set serves hits from
        the first batch on, lazy fills top the cache up, and nothing is
        ever evicted — identically on both paths."""
        batches = batch_stream(13, count=3, samples=4, max_len=6)
        hot = [(t, i) for t in range(NUM_TABLES) for i in range(3)]
        engines = []
        for _ in range(2):
            engine = build_engine("square", vcache=VectorCache(12, "static"))
            assert engine.warm_vcache(hot) == len(hot)
            engines.append(engine)
        des_engine, fast_engine = engines
        hits = 0
        for batch in batches:
            des = des_engine.lookup_batch(batch, fast=False)
            fast = fast_engine.lookup_batch(batch, fast=True)
            assert fast.vcache_hits == des.vcache_hits
            assert fast.vcache_evictions == des.vcache_evictions == 0
            assert_equivalent(des_engine, fast_engine, des, fast)
            hits += fast.vcache_hits
        assert hits > 0
        assert len(fast_engine.controller.vcache) == 12
        assert list(fast_engine.controller.vcache._slots) == list(
            des_engine.controller.vcache._slots
        )

    def test_enabled_span_trees_identical(self):
        batches = batch_stream(5, count=3)
        des_engine = build_engine("square", vcache=VectorCache(16))
        fast_engine = build_engine("square", vcache=VectorCache(16))
        des_engine.controller.tracer = Tracer()
        fast_engine.controller.tracer = Tracer()
        for batch in batches:
            des_engine.lookup_batch(batch, fast=False)
            fast_engine.lookup_batch(batch, fast=True)
        des_tracer = des_engine.controller.tracer
        fast_tracer = fast_engine.controller.tracer
        assert len(des_tracer) > 0
        assert fast_tracer.as_tuples() == des_tracer.as_tuples()
        assert len(des_tracer.spans_named("vcache")) == len(batches)


# ----------------------------------------------------------------------
# Values never change; only timing does
# ----------------------------------------------------------------------
class TestNumericTransparency:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_pooled_values_match_cache_free(self, policy):
        batches = batch_stream(11)
        plain = build_engine("square")
        cached = build_engine("square", vcache=VectorCache(32, policy))
        for batch in batches:
            reference = plain.lookup_batch(batch, fast=False)
            result = cached.lookup_batch(batch, fast=False)
            assert result.pooled.tobytes() == reference.pooled.tobytes()

    def test_hits_absorb_flash_and_channel_load(self):
        """Absorbed reads disappear from the flash array one for one:
        fewer vector reads, fewer bus jobs, less bus traffic."""
        batch = [[[5, 6, 7], [8, 9], [10]]]
        plain = build_engine("square")
        cached = build_engine("square", vcache=VectorCache(16))
        for engine in (plain, cached):
            engine.lookup_batch(batch, fast=False)  # warm
            engine.lookup_batch(batch, fast=False)
        assert (
            cached.controller.stats.flash_vector_reads
            == plain.controller.stats.flash_vector_reads - 6
        )
        assert (
            cached.controller.stats.flash_bus_bytes
            < plain.controller.stats.flash_bus_bytes
        )
        plain_jobs = sum(
            c.bus.jobs_served for c in plain.controller.flash.channels
        )
        cached_jobs = sum(
            c.bus.jobs_served for c in cached.controller.flash.channels
        )
        assert cached_jobs == plain_jobs - 6
        # Useful bytes still count every consumed vector.
        assert (
            cached.controller.stats.useful_bytes
            == plain.controller.stats.useful_bytes
        )

    def test_hot_batches_get_faster(self):
        batch = [[[1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3, 4]]]
        plain = build_engine("single")
        cached = build_engine("single", vcache=VectorCache(16))
        cold_plain = plain.lookup_batch(batch, fast=False)
        cold_cached = cached.lookup_batch(batch, fast=False)
        assert cold_cached.elapsed_ns == approx(
            cold_plain.elapsed_ns, rel=0, abs=0
        )
        warm_plain = plain.lookup_batch(batch, fast=False)
        warm_cached = cached.lookup_batch(batch, fast=False)
        assert warm_cached.elapsed_ns < warm_plain.elapsed_ns
        assert warm_cached.vcache_hits == 12
        assert warm_cached.elapsed_ns >= warm_cached.vcache_ns

    def test_warm_vcache_serves_from_dram_immediately(self):
        engine = build_engine("square", vcache=VectorCache(8, "static"))
        resident = engine.warm_vcache([(0, 3), (1, 4), (2, 5)])
        assert resident == 3
        result = engine.lookup_batch([[[3], [4], [5]]], fast=False)
        assert result.vectors_read == 0
        assert result.vcache_hits == 3
        assert engine.controller.stats.flash_vector_reads == 0

    def test_warm_vcache_requires_a_cache(self):
        engine = build_engine("square")
        with pytest.raises(ValueError, match="no vector cache"):
            engine.warm_vcache([(0, 1)])


# ----------------------------------------------------------------------
# Hit-ratio replay: the Fig. 14 acceptance metric
# ----------------------------------------------------------------------
class TestHitRatioReplay:
    def test_lru_matches_lru_page_cache_replay(self):
        """The device cache's measured hit ratio on a K=0 trace matches
        an LRU replay of the same key stream (within 1%; the policies
        are identical, so in fact exactly)."""
        capacity = 24
        trace_gen = TraceGenerator(
            num_tables=NUM_TABLES,
            rows_per_table=ROWS,
            lookups_per_table=8,
            hot_access_fraction=hit_ratio_for_k(0.0),
            seed=3,
        )
        trace = trace_gen.generate(60)
        expected = measured_cache_hit_ratio(
            trace_gen.flat_indices(trace), capacity
        )
        engine = build_engine("square", vcache=VectorCache(capacity))
        for sample in trace:
            engine.lookup_batch([sample], fast=True)
        measured = engine.controller.vcache.hit_ratio
        assert measured == approx(expected, abs=0.01)
        assert engine.controller.stats.vcache_hit_ratio == approx(
            measured, rel=0, abs=0
        )

    def test_higher_locality_higher_hit_ratio(self):
        ratios = {}
        for k in (0.0, 2.0):
            trace_gen = TraceGenerator(
                num_tables=NUM_TABLES,
                rows_per_table=ROWS,
                lookups_per_table=8,
                hot_access_fraction=hit_ratio_for_k(k),
                seed=4,
            )
            engine = build_engine("square", vcache=VectorCache(24))
            for sample in trace_gen.generate(40):
                engine.lookup_batch([sample], fast=True)
            ratios[k] = engine.controller.vcache.hit_ratio
        assert ratios[0.0] > ratios[2.0]
