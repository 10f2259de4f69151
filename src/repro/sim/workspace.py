"""Scratch buffers a batched fast path reuses from batch to batch, so a
steady stream of batches allocates (and faults in) no batch-sized array."""

from __future__ import annotations

import numpy as np

#: Entries a pass over a batch takes at a time where its temporaries
#: need not outlive the pass, so they stay this small.
CHUNK = 8192


class Workspace(dict):
    """Flat typed buffers by name: ``ws(name, size, dtype)`` is a view of
    the first ``size`` entries of buffer ``name``, contents undefined,
    valid until the next request for ``name``.  A function given ``ws``
    may return such views; it never returns one of a name its caller
    holds, and a caller that must keep a result past the next batch
    copies it."""

    def __call__(self, name: str, size: int, dtype=np.int64) -> np.ndarray:
        buffer = self.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            # A quarter to spare once a buffer has to grow: batches of
            # varying size settle on it, not a new one per largest batch.
            grown = 0 if buffer is None else size + size // 4
            buffer = self[name] = np.empty(max(size, grown), dtype)
        return buffer[:size]


def gather(source: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows ``source[index]`` into ``out``, ``index`` known in range
    (``np.take``'s checking mode would copy ``out``)."""
    return np.take(source, index, axis=0, out=out, mode="clip")
