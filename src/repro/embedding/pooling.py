"""SparseLengthSum pooling operators.

The embedding layer gathers one vector per lookup index and reduces
them to a single vector per table via element-wise pooling (sum or
mean).  ``sparse_length_sum`` is the reference operator the host
framework runs (Facebook's SLS); the in-device EV Sum unit must produce
bit-identical results, which it does because fp32 addition is performed
in the same left-to-right order.

The vectorized operators (`pool_sum`, `segment_pool`, `sls_batch`)
preserve that contract: they reduce strictly left to right in fp32
(``np.add.accumulate`` and a per-position masked sweep are sequential
by definition, unlike ``np.add.reduce``, whose pairwise summation can
reassociate on contiguous axes), so they match the per-row loop bit
for bit — pinned by ``tests/test_pooling_vectorized.py``.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Union

import numpy as np

from repro.embedding.table import EmbeddingTable, EmbeddingTableSet


def pool_sum(vectors: np.ndarray) -> np.ndarray:
    """Element-wise sum of ``n x dim`` vectors -> ``dim`` vector.

    Accumulates in index order so hardware and host agree bitwise.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.ndim != 2:
        raise ValueError("expected a 2-D array of vectors")
    if len(vectors) == 0:
        return np.zeros(vectors.shape[1], dtype=np.float32)
    # The trailing ``+ 0.0`` reproduces the reference loop's leading
    # ``0.0 + row``: it only matters for the sign of zero results.
    return np.add.accumulate(vectors, axis=0)[-1] + np.float32(0.0)


def pool_sum_reference(vectors: np.ndarray) -> np.ndarray:
    """The original per-row accumulation loop, kept as the bitwise
    reference :func:`pool_sum` is tested against."""
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.ndim != 2:
        raise ValueError("expected a 2-D array of vectors")
    result = np.zeros(vectors.shape[1], dtype=np.float32)
    for row in vectors:
        result += row
    return result


def pool_mean(vectors: np.ndarray) -> np.ndarray:
    """Element-wise average pooling."""
    vectors = np.asarray(vectors, dtype=np.float32)
    if len(vectors) == 0:
        raise ValueError("cannot average zero vectors")
    return (pool_sum(vectors) / np.float32(len(vectors))).astype(np.float32)


#: Supported pooling modes ("element-wise pooling operations (e.g.,
#: addition, average)" — Section II-A).
POOLING_SUM = "sum"
POOLING_MEAN = "mean"


def pool(vectors: np.ndarray, mode: str = POOLING_SUM) -> np.ndarray:
    """Dispatch to the requested pooling operator."""
    if mode == POOLING_SUM:
        return pool_sum(vectors)
    if mode == POOLING_MEAN:
        return pool_mean(vectors)
    raise ValueError(f"unknown pooling mode {mode!r}")


#: Rows :func:`segment_pool` fetches per block of positions.  A block
#: that stays in cache while its positions are added is what keeps the
#: sweep to one pass over memory: on a 122 880-row, 64-wide sweep out
#: of the flash arena 8192 rows (2 MB) took 14.3 ms against 24.6 at
#: 1024, 15.8 at 4096, 16.9 at 16 384 and 22.2 at 32 768.
POOL_BLOCK_ROWS = 8192


def segment_pool(
    rows: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]],
    lengths: np.ndarray,
    mode: str = POOLING_SUM,
) -> np.ndarray:
    """Pool consecutive row segments, strictly left to right per segment.

    ``rows`` is ``(sum(lengths), dim)`` — or a *row source*, a function
    returning the rows at the given row numbers of that matrix, so the
    matrix need never exist; segment ``i`` owns the next ``lengths[i]``
    rows.  Returns ``(len(lengths), dim)`` float32.  The reduction
    sweeps position-by-position (all segments' row 0, then row 1,
    ...), which performs exactly the additions of a per-segment
    ``acc += row`` loop, in the same order — the EV Sum contract.  It
    fetches a block of positions at a time, in position-major order
    (:data:`POOL_BLOCK_ROWS` rows, or one position if that is more),
    and adds each position's slab of the block.  Empty segments pool to
    zeros; in ``"mean"`` mode non-empty segments are divided by their
    length (empty ones stay zeros, matching :func:`sparse_length_sum`).
    """
    if mode not in (POOLING_SUM, POOLING_MEAN):
        raise ValueError(f"unknown pooling mode {mode!r}")
    lengths = np.asarray(lengths, dtype=np.int64)
    if callable(rows):
        fetch = rows
    else:
        rows = np.asarray(rows, dtype=np.float32)
        if rows.ndim != 2:
            raise ValueError("expected a 2-D array of rows")
        if int(lengths.sum()) != len(rows):
            raise ValueError(
                f"segment lengths cover {int(lengths.sum())} rows, got {len(rows)}"
            )
        fetch = rows.__getitem__
    segments = len(lengths)
    starts = np.zeros(segments, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    shortest, longest = (
        (int(lengths.min()), int(lengths.max())) if segments else (0, 0)
    )
    pooled = None
    step = max(1, POOL_BLOCK_ROWS // max(segments, 1))
    for first in range(0, longest, step):
        # ``None`` stands for every segment (all are this long).
        actives = [
            None if position < shortest else np.flatnonzero(lengths > position)
            for position in range(first, min(first + step, longest))
        ]
        block = fetch(
            np.concatenate(
                [
                    (starts if active is None else starts[active]) + position
                    for position, active in enumerate(actives, first)
                ]
            )
        )
        if pooled is None:
            pooled = np.zeros((segments, block.shape[1]), dtype=np.float32)
        stop = 0
        for active in actives:
            start, stop = stop, stop + (segments if active is None else len(active))
            if active is None:
                pooled += block[start:stop]
            else:
                pooled[active] += block[start:stop]
    if pooled is None:
        dim = fetch(np.empty(0, dtype=np.int64)).shape[1]
        pooled = np.zeros((segments, dim), dtype=np.float32)
    if mode == POOLING_MEAN:
        pooled /= np.maximum(lengths, 1).astype(np.float32)[:, None]
    return pooled


def sparse_length_sum(
    table: EmbeddingTable, indices: Sequence[int], mode: str = POOLING_SUM
) -> np.ndarray:
    """The SLS operator for one table: gather rows, pool them."""
    if len(indices) == 0:
        return np.zeros(table.dim, dtype=np.float32)
    return pool(table.lookup(indices), mode)


def sls_all_tables(
    tables: EmbeddingTableSet,
    indices_per_table: Sequence[Sequence[int]],
    mode: str = POOLING_SUM,
) -> np.ndarray:
    """Pool every table and concatenate: the Top-MLP sparse input.

    Returns a vector of size ``M * dim`` (Section IV-B3: "the size of
    the united input vector of Top MLP is EVdim * M").
    """
    if len(indices_per_table) != len(tables):
        raise ValueError(
            f"{len(indices_per_table)} index lists for {len(tables)} tables"
        )
    pooled: List[np.ndarray] = [
        sparse_length_sum(table, indices, mode)
        for table, indices in zip(tables, indices_per_table)
    ]
    return np.concatenate(pooled).astype(np.float32)


def sls_batch(
    tables: EmbeddingTableSet,
    batch_indices: Sequence[Sequence[Sequence[int]]],
    mode: str = POOLING_SUM,
) -> np.ndarray:
    """Batched SLS: ``batch_indices[sample][table] -> indices``.

    Returns ``batch x (M * dim)``.  One gather plus one segment
    reduction per table instead of a per-sample Python loop; bitwise
    identical to stacking :func:`sls_all_tables` over the samples.
    """
    samples = len(batch_indices)
    if samples == 0:
        # Preserve np.stack's empty-batch error from the scalar path.
        return np.stack([])
    num_tables = len(tables)
    for sample in batch_indices:
        if len(sample) != num_tables:
            raise ValueError(
                f"{len(sample)} index lists for {num_tables} tables"
            )
    dim = tables.dim
    out = np.empty((samples, num_tables * dim), dtype=np.float32)
    for position, table in enumerate(tables):
        lengths = np.fromiter(
            (len(sample[position]) for sample in batch_indices),
            dtype=np.int64,
            count=samples,
        )
        if int(lengths.sum()):
            flat = np.concatenate(
                [
                    np.asarray(sample[position], dtype=np.int64)
                    for sample in batch_indices
                    if len(sample[position])
                ]
            )
            rows = table.lookup(flat)
        else:
            rows = np.zeros((0, table.dim), dtype=np.float32)
        out[:, position * dim : (position + 1) * dim] = segment_pool(
            rows, lengths, mode
        )
    return out
