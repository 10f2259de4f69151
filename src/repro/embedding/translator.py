"""Embedding Vector Translator (Fig. 6).

Resolves ``(table_id, index)`` lookups to device addresses using only
the extent metadata shipped at ``RM_open_table`` time — exactly the
five steps of Fig. 6:

1. scan each table's metadata once when a batch arrives;
2. fetch an index from the Index Buffer;
3. find the covering extent by checking index ranges (in parallel in
   hardware; a vectorized ``searchsorted`` here);
4. read that extent's start LBA;
5. add the in-extent offset: vectors are packed ``slots_per_page`` to a
   page, so the final address is
   ``start_LBA * Psize + page_in_extent * Psize + slot * EVsize``.

The translator never touches host state after setup — that is the point
of the design: index-to-address resolution is in-device.  The hardware
translates a whole Index Buffer per pass, which is what
:meth:`EVTranslator.translate_array` models: index arrays in, device
byte offsets out, no per-index Python objects.  :meth:`EVTranslator.
translate` remains as the single-lookup reference implementation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.embedding.layout import ExtentRange


@dataclass(frozen=True)
class TranslatedRead:
    """One vector-grained read request produced by the translator."""

    table_id: int
    index: int
    device_offset: int
    size: int


@dataclass(frozen=True)
class _TableMeta:
    """Preprocessed metadata for one table (Fig. 6 step 1)."""

    extent_first_indices: List[int]
    extents: List[ExtentRange]
    ev_size: int
    slots_per_page: int
    page_size: int
    rows: int
    # Array mirrors of the extent lists for the batched path.
    first_index_array: np.ndarray
    last_index_array: np.ndarray
    start_lba_array: np.ndarray


class EVTranslator:
    """Device-resident index-to-LBA translation."""

    #: Cycles to translate one index once metadata is staged — a couple
    #: of comparisons and adds in the FPGA pipeline.
    CYCLES_PER_LOOKUP = 4

    def __init__(self, page_size: int) -> None:
        self.page_size = page_size
        self._tables: Dict[int, _TableMeta] = {}

    def register_table(
        self,
        table_id: int,
        extent_ranges: Sequence[ExtentRange],
        ev_size: int,
        rows: int,
    ) -> None:
        """Stage one table's metadata (the RM_open_table upload)."""
        if not extent_ranges:
            raise ValueError(f"table {table_id} has no extents")
        if ev_size <= 0 or ev_size > self.page_size:
            raise ValueError("invalid embedding vector size")
        self._tables[table_id] = _TableMeta(
            extent_first_indices=[e.first_index for e in extent_ranges],
            extents=list(extent_ranges),
            ev_size=ev_size,
            slots_per_page=self.page_size // ev_size,
            page_size=self.page_size,
            rows=rows,
            first_index_array=np.array(
                [e.first_index for e in extent_ranges], dtype=np.int64
            ),
            last_index_array=np.array(
                [e.last_index for e in extent_ranges], dtype=np.int64
            ),
            start_lba_array=np.array(
                [e.start_lba for e in extent_ranges], dtype=np.int64
            ),
        )

    @property
    def registered_tables(self) -> int:
        return len(self._tables)

    def _meta(self, table_id: int) -> _TableMeta:
        try:
            return self._tables[table_id]
        except KeyError:
            raise KeyError(f"table {table_id} not registered") from None

    def translate(self, table_id: int, index: int) -> TranslatedRead:
        """Resolve one lookup to a device byte address (steps 2-5)."""
        meta = self._meta(table_id)
        if not 0 <= index < meta.rows:
            raise IndexError(f"index {index} out of range for table {table_id}")
        # Step 3: locate the covering extent.
        position = bisect_right(meta.extent_first_indices, index) - 1
        extent = meta.extents[position]
        if not extent.covers(index):
            raise RuntimeError(
                f"metadata hole: index {index} not covered by extent {extent}"
            )
        # Steps 4-5: start LBA plus in-extent page/slot offset.
        index_offset = index - extent.first_index
        page_in_extent, slot = divmod(index_offset, meta.slots_per_page)
        device_offset = (
            (extent.start_lba + page_in_extent) * meta.page_size
            + slot * meta.ev_size
        )
        return TranslatedRead(
            table_id=table_id,
            index=index,
            device_offset=device_offset,
            size=meta.ev_size,
        )

    def translate_array(self, table_id: int, indices) -> np.ndarray:
        """Batched steps 2-5: an index array in, byte offsets out.

        Semantically identical to calling :meth:`translate` per index
        (same addresses, same error for the first offending index), in
        O(log extents) vectorized work per index.
        """
        meta = self._meta(table_id)
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return np.empty(0, dtype=np.int64)
        bounds = (indices < 0) | (indices >= meta.rows)
        if bounds.any():
            index = int(indices[bounds][0])
            raise IndexError(f"index {index} out of range for table {table_id}")
        # Step 3, batched.  ``position`` may come out -1 for an index
        # below the first extent; Python's ``extents[-1]`` wraps to the
        # last extent, so mirror that before the coverage check.
        positions = np.searchsorted(
            meta.first_index_array, indices, side="right"
        ) - 1
        positions %= len(meta.extents)
        holes = (indices < meta.first_index_array[positions]) | (
            indices > meta.last_index_array[positions]
        )
        if holes.any():
            offender = int(np.flatnonzero(holes)[0])
            extent = meta.extents[int(positions[offender])]
            raise RuntimeError(
                f"metadata hole: index {int(indices[offender])} "
                f"not covered by extent {extent}"
            )
        # Steps 4-5, batched (all-int64: exact).
        index_offsets = indices - meta.first_index_array[positions]
        pages_in_extent = index_offsets // meta.slots_per_page
        slots = index_offsets % meta.slots_per_page
        return (
            (meta.start_lba_array[positions] + pages_in_extent) * meta.page_size
            + slots * meta.ev_size
        )

    def translate_tables(self, tables: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """:meth:`translate_array` over a stream of ``(table, index)``
        lookups in any table order: one batched pass per table."""
        offsets = np.empty(len(indices), dtype=np.int64)
        for table_id in self._tables:
            members = np.flatnonzero(tables == table_id)
            if members.size:
                offsets[members] = self.translate_array(table_id, indices[members])
        return offsets

    def translate_batch(
        self, table_id: int, indices: Sequence[int]
    ) -> List[TranslatedRead]:
        """Translate a whole Index Buffer worth of lookups.

        Compatibility wrapper over :meth:`translate_array`: the address
        math runs batched; only the result objects are materialized per
        index.  Callers that can consume plain arrays should prefer
        :meth:`translate_array`.
        """
        offsets = self.translate_array(table_id, indices)
        size = self._meta(table_id).ev_size
        return [
            TranslatedRead(
                table_id=table_id,
                index=int(index),
                device_offset=int(offset),
                size=size,
            )
            for index, offset in zip(
                np.asarray(indices, dtype=np.int64), offsets
            )
        ]

    def translation_cycles(self, num_lookups: int) -> int:
        """Pipeline cycles to translate ``num_lookups`` indices."""
        return self.CYCLES_PER_LOOKUP * num_lookups
