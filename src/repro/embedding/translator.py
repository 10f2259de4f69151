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
:meth:`EVTranslator.translate_array` models: one vectorized pass over
the lookups of every table at once, against translator-wide extent
arrays staged from the registered metadata (step 1), with no per-table
loop and no per-index Python objects.  Its checks run in a fixed order
over the whole batch: unregistered or non-integer table ids
(``KeyError``), then a row array that is not integer (``IndexError``,
naming its first non-integral entry), then out-of-range rows
(``IndexError``), then metadata holes (``RuntimeError``).  When several
lookups are bad the earliest failing check wins, and it names its first
offender in issue order.  :meth:`EVTranslator.translate` remains as the
single-lookup reference implementation, sharing no code with the
batched pass.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.embedding.layout import ExtentRange
from repro.sim.workspace import CHUNK, Workspace
from repro.ssd.geometry import int64_array


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
    rows: int


class EVTranslator:
    """Device-resident index-to-LBA translation."""

    #: Cycles to translate one index once metadata is staged — a couple
    #: of comparisons and adds in the FPGA pipeline.
    CYCLES_PER_LOOKUP = 4

    #: Table ids are handles below this bound: the staged arrays are
    #: indexed by table id.
    TABLE_IDS = 1 << 16

    def __init__(self, page_size: int) -> None:
        self.page_size = page_size
        self._tables: Dict[int, _TableMeta] = {}
        self._staged = False

    @classmethod
    def for_layout(cls, layout, page_size: int) -> "EVTranslator":
        """Every table of an ``EmbeddingLayout`` registered, as its
        RM_open_table uploads leave the translator."""
        translator, tables = cls(page_size), layout.tables
        for table_id, ranges in layout.metadata().items():
            rows = tables[table_id].rows
            translator.register_table(table_id, ranges, tables.ev_size, rows)
        return translator

    def register_table(
        self,
        table_id: int,
        extent_ranges: Sequence[ExtentRange],
        ev_size: int,
        rows: int,
    ) -> None:
        """Record one table's metadata (the RM_open_table upload); the
        next :meth:`translate_array` stages it with every other table's."""
        if not extent_ranges:
            raise ValueError(f"table {table_id} has no extents")
        if ev_size <= 0 or ev_size > self.page_size:
            raise ValueError("invalid embedding vector size")
        table_id = operator.index(table_id)
        if not 0 <= table_id < self.TABLE_IDS:
            raise ValueError(f"table id {table_id} outside [0, {self.TABLE_IDS})")
        extents = sorted(extent_ranges, key=lambda extent: extent.first_index)
        self._tables[table_id] = _TableMeta(
            extent_first_indices=[e.first_index for e in extents],
            extents=extents,
            ev_size=ev_size,
            slots_per_page=self.page_size // ev_size,
            rows=rows,
        )
        self._staged = False

    def _stage(self) -> None:
        """Fig. 6 step 1 for every table at once, once per change of the
        registered set: the arrays :meth:`translate_array` reads, per
        table id and per extent in ``(table, first_index)`` order."""
        ids = sorted(self._tables)
        metas = [self._tables[table_id] for table_id in ids]
        extents = [extent for meta in metas for extent in meta.extents]
        counts = [len(meta.extents) for meta in metas]
        # Search keys are ``key_base[table] + row``, disjoint between tables.
        spans = [max(m.rows, 1 + max(e.last_index for e in m.extents)) for m in metas]
        columns = np.zeros((7, ids[-1] + 1 if ids else 0), dtype=np.int64)
        columns[:, ids] = [
            [1] * len(ids),
            [m.rows for m in metas],
            np.cumsum(counts) - counts,
            np.cumsum(spans) - spans,
            [m.ev_size for m in metas],
            [m.slots_per_page for m in metas],
            # One extent covering every row needs no search, no hole check.
            [len(m.extents) > 1 or not m.extents[0].covers(0)
             or not m.extents[0].covers(m.rows - 1) for m in metas],
        ]
        known, self._rows, self._base, self._key_base, self._ev, self._slots, searched = columns
        self._known, self._searched = known.astype(bool), searched.astype(bool)
        self._first = np.array([e.first_index for e in extents], dtype=np.int64)
        self._last = np.array([e.last_index for e in extents], dtype=np.int64)
        self._lba = np.array([e.start_lba for e in extents], dtype=np.int64)
        self._keys = np.repeat(self._key_base[ids], counts) + self._first
        self._staged = True

    def _meta(self, table_id: int) -> _TableMeta:
        try:
            return self._tables[operator.index(table_id)]
        except (KeyError, TypeError):
            raise KeyError(f"table {table_id} not registered") from None

    def translate(self, table_id: int, index: int) -> TranslatedRead:
        """Resolve one lookup to a device byte address (steps 2-5)."""
        meta = self._meta(table_id)
        try:
            index = operator.index(index)
        except TypeError as error:
            raise IndexError(f"indices must be int64 row numbers: {error}") from None
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
            (extent.start_lba + page_in_extent) * self.page_size
            + slot * meta.ev_size
        )
        return TranslatedRead(
            table_id=table_id,
            index=index,
            device_offset=device_offset,
            size=meta.ev_size,
        )

    def translate_array(self, tables, indices, ws: Workspace) -> np.ndarray:
        """Batched steps 2-5 over every table at once: ``tables`` (one
        id, or one per index) and 1-D ``indices`` in, byte offsets out.
        The offsets are :meth:`translate`'s; a bad stream raises, before
        returning anything, what :meth:`translate` raises on the first
        offender of the earliest failing check (module docstring)."""
        if not self._staged:
            self._stage()
        tables = int64_array(tables, lambda got: KeyError(f"table {got} not registered"))
        if tables.size and (
            tables.min() < 0 or tables.max() >= len(self._known)
            or not self._known[tables].all()
        ):
            unknown = next(t for t in tables.ravel().tolist() if t not in self._tables)
            raise KeyError(f"table {unknown} not registered")
        indices = int64_array(
            indices, lambda got: IndexError(f"indices must be int64 row numbers: got {got!r}")
        )
        tables = np.broadcast_to(tables, indices.shape)
        check_rows(tables, indices, self._rows)
        offsets = ws("offsets", indices.size)
        for first in range(0, indices.size, CHUNK):
            chunk = slice(first, first + CHUNK)
            table, index = tables[chunk], indices[chunk]
            positions = self._base[table]
            searched = np.flatnonzero(self._searched[table])
            positions[searched] = self._search(table[searched], index[searched])
            # Steps 4-5: start LBA plus in-extent page/slot offset.
            pages, slots = np.divmod(index - self._first[positions], self._slots[table])
            pages += self._lba[positions]
            offsets[chunk] = pages * self.page_size + slots * self._ev[table]
        return offsets

    def _search(self, tables: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Step 3 for lookups of fragmented tables: each one's covering
        extent by one search over every table's keys, holes refused."""
        positions = np.searchsorted(
            self._keys, self._key_base[tables] + indices, side="right"
        ) - 1
        holes = (positions < self._base[tables]) | (indices > self._last[positions])
        if holes.any():
            at = np.flatnonzero(holes)[0]
            table, index = int(tables[at]), int(indices[at])
            # Below the first extent, name the last one, as translate's
            # ``extents[-1]`` does.
            extent = self._tables[table].extents[int(positions[at] - self._base[table])]
            raise RuntimeError(
                f"metadata hole: index {index} not covered by extent {extent}"
            )
        return positions

    def translation_cycles(self, num_lookups: int) -> int:
        """Pipeline cycles to translate ``num_lookups`` indices."""
        return self.CYCLES_PER_LOOKUP * num_lookups


def check_rows(tables: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> None:
    """Refuse the first index outside ``[0, rows[table])`` as
    :meth:`EVTranslator.translate` does, a chunk at a time."""
    for first in range(0, indices.size, CHUNK):
        index = indices[first : first + CHUNK]
        bad = np.flatnonzero((index < 0) | (index >= rows[tables[first : first + CHUNK]]))
        if bad.size:
            at = first + bad[0]
            raise IndexError(f"index {indices[at]} out of range for table {tables[at]}")
