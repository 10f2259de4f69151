"""Page-granular in-SSD lookup engine (the EMB-PageSum data path).

The comparison systems that predate vector-grained reads — EMB-PageSum
and RecSSD's device side — fetch the *whole flash page* containing each
embedding vector and pool inside the SSD.  This module executes that
path on the discrete-event simulator, sharing the translator/layout
machinery with the real Embedding Lookup Engine, so the page-vs-vector
comparison can be made under identical queueing rather than only
analytically.
"""

from __future__ import annotations

from typing import Generator, Sequence

import numpy as np

from repro.core.lookup_engine import flatten_batch
from repro.embedding.layout import EmbeddingLayout
from repro.embedding.pooling import segment_pool
from repro.embedding.translator import EVTranslator
from repro.sim.workspace import Workspace
from repro.ssd.controller import SSDController


class PageLookupEngine:
    """Translator + page-granular internal reads + in-SSD pooling."""

    def __init__(self, controller: SSDController, layout: EmbeddingLayout) -> None:
        self.controller = controller
        self.layout = layout
        self.tables = layout.tables
        self.translator = EVTranslator.for_layout(
            layout, controller.geometry.page_size
        )
        self._rows = np.array([table.rows for table in self.tables])

    @property
    def dim(self) -> int:
        return self.tables.dim

    def _read_all_proc(self, offsets: np.ndarray) -> Generator:
        """Read the page holding each device byte offset, all at once,
        created in stream order; returns the vectors, one row each."""
        sim = self.controller.sim
        lbas, cols = np.divmod(offsets, self.controller.geometry.page_size)
        events = [
            sim.process(self.controller.read_page_internal_proc(lba))
            for lba in lbas.tolist()
        ]
        results = yield sim.all_of(events)
        ev_size = self.tables.ev_size
        payload = b"".join(
            page[col : col + ev_size] for col, page in zip(cols.tolist(), results)
        )
        return np.frombuffer(payload, dtype=np.float32).reshape(len(events), self.dim)

    def lookup_batch(self, sparse_batch: Sequence[Sequence[Sequence[int]]]) -> tuple:
        """Run a batched page-granular lookup; returns ``(pooled,
        elapsed_ns, pages_read)``.  Pooling order matches the host SLS.
        """
        ws = Workspace()
        lengths, tables, indices = flatten_batch(sparse_batch, self._rows, ws)
        offsets = self.translator.translate_array(tables, indices, ws)
        sim = self.controller.sim
        start = sim.now
        proc = sim.process(self._read_all_proc(offsets))
        sim.run()
        pooled = segment_pool(proc.value, lengths).reshape(
            len(sparse_batch), len(self.tables) * self.dim
        )
        return pooled, sim.now - start, len(offsets)
