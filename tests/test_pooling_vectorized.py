"""Bitwise pins for the vectorized pooling and translation operators.

``pool_sum`` / ``segment_pool`` / ``sls_batch`` must match the per-row
reference loops bit for bit — fp32 addition is not associative, so the
vectorized forms are written to perform *exactly* the reference's
additions in the reference's order.  ``EVTranslator.translate_array``
must agree with the scalar ``translate`` on every address and on every
error.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.lookup_engine import EmbeddingLookupEngine
from repro.embedding import pooling
from repro.embedding.layout import EmbeddingLayout, ExtentRange
from repro.embedding.pooling import (
    pool_sum,
    pool_sum_reference,
    segment_pool,
    sls_all_tables,
    sls_batch,
    sparse_length_sum,
)
from repro.embedding.table import EmbeddingTableSet
from repro.embedding.translator import EVTranslator
from repro.sim import Simulator
from repro.ssd.blockdev import BlockDevice
from repro.ssd.controller import SSDController


def random_vectors(rng, n, dim):
    scale = rng.choice([1e-30, 1e-3, 1.0, 1e3, 1e30], size=(n, 1))
    return (rng.standard_normal((n, dim)) * scale).astype(np.float32)


class TestPoolSum:
    @pytest.mark.parametrize(
        "shape",
        [(0, 8), (1, 1), (5, 1), (129, 1), (130, 1), (1000, 1), (3, 4), (513, 16)],
    )
    def test_matches_reference_bitwise(self, shape):
        rng = np.random.default_rng(shape[0] * 31 + shape[1])
        vectors = random_vectors(rng, *shape)
        assert pool_sum(vectors).tobytes() == pool_sum_reference(vectors).tobytes()

    def test_negative_zero_rows(self):
        vectors = np.full((4, 3), -0.0, dtype=np.float32)
        got = pool_sum(vectors)
        want = pool_sum_reference(vectors)
        assert got.tobytes() == want.tobytes()

    def test_denormals(self):
        rng = np.random.default_rng(0)
        vectors = (rng.standard_normal((200, 4)) * 1e-41).astype(np.float32)
        assert pool_sum(vectors).tobytes() == pool_sum_reference(vectors).tobytes()

    def test_cancellation_heavy(self):
        rng = np.random.default_rng(1)
        base = random_vectors(rng, 100, 8)
        vectors = np.concatenate([base, -base[::-1]])
        assert pool_sum(vectors).tobytes() == pool_sum_reference(vectors).tobytes()

    def test_empty_is_zeros(self):
        out = pool_sum(np.empty((0, 6), dtype=np.float32))
        assert out.tobytes() == np.zeros(6, dtype=np.float32).tobytes()

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            pool_sum(np.zeros(4, dtype=np.float32))


class TestSegmentPool:
    @staticmethod
    def reference(rows, lengths, mode):
        out = []
        cursor = 0
        for length in lengths:
            segment = rows[cursor : cursor + length]
            cursor += length
            if mode == "mean" and length:
                out.append(
                    (pool_sum_reference(segment) / np.float32(length)).astype(
                        np.float32
                    )
                )
            else:
                out.append(pool_sum_reference(segment))
        return np.stack(out)

    @pytest.mark.parametrize("mode", ["sum", "mean"])
    def test_matches_per_segment_loop(self, mode):
        rng = np.random.default_rng(11)
        lengths = rng.integers(0, 7, size=40)
        lengths[::5] = 0  # plenty of empty segments
        rows = random_vectors(rng, int(lengths.sum()), 12)
        got = segment_pool(rows, lengths, mode)
        want = self.reference(rows, lengths, mode)
        assert got.tobytes() == want.tobytes()

    def test_single_long_segment(self):
        rng = np.random.default_rng(12)
        rows = random_vectors(rng, 500, 1)
        got = segment_pool(rows, np.array([500]), "sum")
        assert got.tobytes() == pool_sum_reference(rows)[None, :].tobytes()

    @pytest.mark.parametrize("block_rows", [1, 2, 7, 10_000])
    @pytest.mark.parametrize("mode", ["sum", "mean"])
    @pytest.mark.parametrize(
        "shape", ["ragged", "uniform", "empty_segments", "all_empty"]
    )
    def test_sweep_over_a_row_source(self, monkeypatch, shape, mode, block_rows):
        """A source is asked for blocks of rows in position-major
        order; whatever the block size, the sums are the per-segment
        loop's, bytewise — and so are they from the matrix itself."""
        monkeypatch.setattr(pooling, "POOL_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(13)
        lengths = {
            "ragged": rng.integers(1, 9, size=23),
            "uniform": np.full(11, 5),
            "empty_segments": rng.integers(0, 6, size=30) * rng.integers(0, 2, size=30),
            "all_empty": np.zeros(6, dtype=np.int64),
        }[shape]
        rows = random_vectors(rng, int(lengths.sum()), 12)
        asked = []

        def source(ids):
            asked.append(ids)
            return rows[ids]

        want = self.reference(rows, lengths, mode)
        assert segment_pool(source, lengths, mode).tobytes() == want.tobytes()
        assert segment_pool(rows, lengths, mode).tobytes() == want.tobytes()
        # Every row is asked for exactly once (the empty request only
        # finds out the width of nothing), in bounded blocks.
        ids = np.concatenate(asked)
        assert sorted(ids.tolist()) == list(range(len(rows)))
        assert all(len(block) <= max(block_rows, len(lengths)) for block in asked)

    def test_coverage_mismatch_rejected(self):
        with pytest.raises(ValueError):
            segment_pool(np.zeros((3, 2), dtype=np.float32), np.array([2, 2]))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            segment_pool(np.zeros((1, 2), dtype=np.float32), np.array([1]), "max")


def test_cache_free_lookup_never_holds_the_vector_matrix():
    """A 64-sample RMC2-shaped batch (32 tables x 120 lookups, dim 64)
    reads 245 760 vectors, 62.9 MB as one ``(N, dim)`` float32 matrix.
    The fast path feeds EV Sum from the flash a block at a time, so
    its peak allocation stays below that matrix alone (the index
    arrays of the batch are what remains)."""
    num_tables, rows, dim, lookups, samples = 32, 1024, 64, 120, 64
    device = BlockDevice(SSDController(Simulator()))
    tables = EmbeddingTableSet.uniform(num_tables, rows, dim, seed=5)
    layout = EmbeddingLayout(device, tables)
    layout.create_all()
    engine = EmbeddingLookupEngine(device.controller, layout)
    rng = np.random.default_rng(0)
    batch = [
        [rng.integers(0, rows, lookups).tolist() for _ in range(num_tables)]
        for _ in range(samples)
    ]
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = engine.lookup_batch(batch, fast=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.path == "fast"
    assert result.vectors_read == samples * num_tables * lookups
    assert peak - before < result.vectors_read * dim * 4
    expected = np.stack(
        [
            np.concatenate(
                [
                    pool_sum_reference(table.lookup(indices))
                    for table, indices in zip(tables, sample)
                ]
            )
            for sample in batch[:2]
        ]
    )
    assert result.pooled[:2].tobytes() == expected.tobytes()


class TestSlsBatch:
    @pytest.fixture
    def tables(self):
        return EmbeddingTableSet.uniform(4, 64, 8, seed=3)

    @pytest.mark.parametrize("mode", ["sum", "mean"])
    def test_matches_stacked_scalar_path(self, tables, mode):
        rng = np.random.default_rng(21)
        batch = [
            [
                [int(x) for x in rng.integers(0, 64, size=rng.integers(0, 6))]
                for _ in range(4)
            ]
            for _ in range(5)
        ]
        got = sls_batch(tables, batch, mode)
        want = np.stack([sls_all_tables(tables, sample, mode) for sample in batch])
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_all_empty_sample(self, tables):
        batch = [[[], [], [], []]]
        got = sls_batch(tables, batch)
        assert got.tobytes() == np.zeros((1, 32), dtype=np.float32).tobytes()

    def test_wrong_table_count_rejected(self, tables):
        with pytest.raises(ValueError):
            sls_batch(tables, [[[0], [1]]])

    def test_empty_batch_raises_like_stack(self, tables):
        with pytest.raises(ValueError):
            sls_batch(tables, [])

    def test_repeated_indices(self, tables):
        batch = [[[5, 5, 5], [0], [], [63]]]
        got = sls_batch(tables, batch)
        want = np.stack([sls_all_tables(tables, batch[0])])
        assert got.tobytes() == want.tobytes()

    def test_mean_matches_sparse_length_sum(self, tables):
        indices = [1, 2, 3, 3]
        got = sls_batch(tables, [[indices, [], [], []]], "mean")
        want = sparse_length_sum(tables[0], indices, "mean")
        assert got[0, :8].tobytes() == want.tobytes()


class TestTranslateArray:
    @pytest.fixture
    def translator(self):
        translator = EVTranslator(page_size=4096)
        # Two extents with a hole between them: indices 0..63 and
        # 96..159 are covered; 64..95 fall in the hole.
        translator.register_table(
            0,
            [
                ExtentRange(extent_id=0, first_index=0, last_index=63, start_lba=10),
                ExtentRange(extent_id=1, first_index=96, last_index=159, start_lba=40),
            ],
            ev_size=128,
            rows=160,
        )
        return translator

    def test_matches_scalar_on_covered_indices(self, translator):
        covered = list(range(0, 64)) + list(range(96, 160))
        offsets = translator.translate_array(0, covered)
        for index, offset in zip(covered, offsets):
            assert int(offset) == translator.translate(0, index).device_offset

    def test_batch_wrapper_fields_match_scalar(self, translator):
        indices = [0, 31, 63, 96, 159]
        for scalar, batched in zip(
            [translator.translate(0, i) for i in indices],
            translator.translate_batch(0, indices),
        ):
            assert scalar == batched

    def test_empty_input(self, translator):
        out = translator.translate_array(0, [])
        assert out.dtype == np.int64
        assert len(out) == 0

    def test_unregistered_table_keyerror(self, translator):
        with pytest.raises(KeyError):
            translator.translate_array(7, [0])
        with pytest.raises(KeyError):
            translator.translate(7, 0)

    @pytest.mark.parametrize("bad", [-1, 160, 10_000])
    def test_out_of_range_indexerror_parity(self, translator, bad):
        with pytest.raises(IndexError) as scalar_error:
            translator.translate(0, bad)
        with pytest.raises(IndexError) as array_error:
            translator.translate_array(0, [0, bad, 1])
        assert str(scalar_error.value) == str(array_error.value)

    @pytest.mark.parametrize("hole", [64, 80, 95])
    def test_metadata_hole_runtimeerror_parity(self, translator, hole):
        with pytest.raises(RuntimeError) as scalar_error:
            translator.translate(0, hole)
        with pytest.raises(RuntimeError) as array_error:
            translator.translate_array(0, [0, hole])
        assert str(scalar_error.value) == str(array_error.value)

    def test_first_offender_reported(self, translator):
        with pytest.raises(IndexError, match="index 500 "):
            translator.translate_array(0, [0, 500, 700])
