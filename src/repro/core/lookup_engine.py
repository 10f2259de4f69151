"""Embedding Lookup Engine (Section IV-B).

The engine chains the EV Translator, the vector-grained EV-FMC reads,
and the EV Sum pooling unit:

* lookups are translated to device addresses using only on-device
  extent metadata;
* vector reads are striped over all channels and dies (the layout's
  channel-major page numbering does the striping);
* returned vectors are accumulated per table in *lookup order* by the
  fadd array, so results match the host SLS operator bit for bit.

Two views are provided: an analytic bandwidth model (used by the kernel
search and quick sizing) and a discrete-event execution (used by the
end-to-end device, capturing real queueing over the trace's channel
distribution).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.embedding.layout import EmbeddingLayout
from repro.embedding.pooling import segment_pool
from repro.embedding.translator import EVTranslator
from repro.obs import names
from repro.ssd import fastpath, vcache as vcache_model
from repro.ssd.controller import SSDController
from repro.ssd.geometry import SSDGeometry
from repro.ssd.timing import SSDTimingModel

#: EV Sum cost per returned vector, in cycles: the fadd array adds all
#: dimensions in parallel, pipelined one vector per cycle plus a small
#: drain.  Negligible next to flash reads ("the time consumption of
#: embedding vector extraction and sum can be ignored for FPGA
#: handling").
EV_SUM_CYCLES_PER_VECTOR = 1


def effective_vector_bandwidth(
    geometry: SSDGeometry,
    timing: SSDTimingModel,
    ev_size: int,
) -> float:
    """``bEV``: sustained vector reads per engine cycle, whole device.

    Per channel, throughput is bounded by (a) its dies, which can
    overlap flushes (one vector per ``CEV`` cycles per die), and (b)
    the shared channel bus (one vector's transfer slice at a time).
    """
    cev = timing.vector_read_cycles(ev_size)
    per_die = 1.0 / cev
    die_bound = geometry.dies_per_channel * per_die
    bus_bound = 1.0 / timing.vector_transfer_cycles(ev_size)
    return geometry.channels * min(die_bound, bus_bound)


def effective_page_bandwidth(
    geometry: SSDGeometry,
    timing: SSDTimingModel,
) -> float:
    """Sustained full-page reads per engine cycle, whole device.

    The page-granularity analogue of :func:`effective_vector_bandwidth`
    — what the EMB-PageSum / EMB-MMIO / RecSSD paths achieve.  Pages
    pay the full transfer slice on the shared bus, which is why the
    vector-grained path beats them on bulk throughput.
    """
    die_bound = geometry.dies_per_channel / timing.page_read_cycles
    bus_bound = 1.0 / timing.transfer_cycles
    return geometry.channels * min(die_bound, bus_bound)


def flash_read_cycles(
    vectors: int,
    geometry: SSDGeometry,
    timing: SSDTimingModel,
    ev_size: int,
) -> int:
    """Analytic cycles to stream ``vectors`` embedding reads (Eq. 1a's
    ``M*N / bEV`` term)."""
    if vectors <= 0:
        return 0
    return ceil(vectors / effective_vector_bandwidth(geometry, timing, ev_size))


@dataclass
class LookupResult:
    """Output of one batched lookup: pooled vectors plus timing.

    ``path`` records which execution path produced the result:
    ``"des"`` (per-read simulation processes) or ``"fast"`` (the
    vectorized replay, bitwise-equal by construction and by test);
    ``fallback_reason`` says why the DES ran (``None`` on the fast
    path).

    ``vectors_read`` counts vectors *read from flash*; with a
    controller-DRAM vector cache configured, ``vcache_hits`` of the
    batch's lookups were absorbed before translation and fetched from
    DRAM in ``vcache_ns`` instead, and the batch's probe evicted
    ``vcache_evictions`` and admitted ``vcache_fills`` vectors (all
    zero without a cache).
    """

    pooled: np.ndarray  # batch x (tables * dim)
    elapsed_ns: float
    vectors_read: int
    path: str = "des"
    vcache_hits: int = 0
    vcache_ns: float = 0.0
    vcache_evictions: int = 0
    vcache_fills: int = 0
    fallback_reason: Optional[str] = None

    @property
    def total_vectors(self) -> int:
        """All embedding vectors the batch consumed (flash + cache)."""
        return self.vectors_read + self.vcache_hits


class EmbeddingLookupEngine:
    """Translator + EV-FMC + EV Sum over a laid-out table set.

    ``pooling`` selects the EV Sum reduction: ``"sum"`` (the default
    SparseLengthSum semantics) or ``"mean"`` (average pooling — the
    fadd array followed by one multiply by ``1/N``).
    """

    def __init__(
        self,
        controller: SSDController,
        layout: EmbeddingLayout,
        pooling: str = "sum",
    ) -> None:
        if pooling not in ("sum", "mean"):
            raise ValueError(f"unknown pooling mode {pooling!r}")
        self.controller = controller
        self.layout = layout
        self.pooling = pooling
        self.tables = layout.tables
        self.translator = EVTranslator(page_size=controller.geometry.page_size)
        for table_id, ranges in layout.metadata().items():
            self.translator.register_table(
                table_id,
                ranges,
                self.tables.ev_size,
                self.tables[table_id].rows,
            )
        #: Batches served per ``(path, fallback_reason)``.
        self.path_counts: Dict[Tuple[str, Optional[str]], int] = {}

    @property
    def dim(self) -> int:
        return self.tables.dim

    # ------------------------------------------------------------------
    # Steps shared by both execution paths
    # ------------------------------------------------------------------
    def _flatten(
        self, sparse_batch: Sequence[Sequence[Sequence[int]]]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-(sample, table) lengths and the flat ``(table, row)``
        stream in issue order (sample-major) — the order the DES
        creates its read processes in, which fixes the FTL service
        order, and the order the vector cache is probed in."""
        num_tables = len(self.tables)
        cells: List[Sequence[int]] = []
        for sample_id, sample in enumerate(sparse_batch):
            if len(sample) != num_tables:
                raise ValueError(
                    f"sample {sample_id}: {len(sample)} index lists for "
                    f"{num_tables} tables"
                )
            cells.extend(sample)
        lengths = np.fromiter(
            (len(cell) for cell in cells), dtype=np.int64, count=len(cells)
        )
        filled = [np.asarray(cell, dtype=np.int64) for cell in cells if len(cell)]
        flat_indices = (
            np.concatenate(filled) if filled else np.empty(0, dtype=np.int64)
        )
        table_ids = np.tile(np.arange(num_tables), len(sparse_batch))
        return lengths, np.repeat(table_ids, lengths), flat_indices

    def _locate(
        self, flat_tables: np.ndarray, flat_indices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fig. 6 translation, batched per table, then the FTL map:
        ``(physical_pages, cols)`` of every ``(table, row)``."""
        device_offsets = np.empty(len(flat_indices), dtype=np.int64)
        for table_id in range(len(self.tables)):
            members = np.flatnonzero(flat_tables == table_id)
            if members.size:
                device_offsets[members] = self.translator.translate_array(
                    table_id, flat_indices[members]
                )
        return self.controller.translate_vector_offsets(
            device_offsets, self.tables.ev_size
        )

    def _peek_rows(
        self, flat_tables: np.ndarray, flat_indices: np.ndarray
    ) -> np.ndarray:
        """Functional gather of embedding vectors (no simulated time)."""
        physical_pages, cols = self._locate(flat_tables, flat_indices)
        return self.controller.flash.peek_vectors(
            physical_pages, cols, self.tables.ev_size
        )

    # ------------------------------------------------------------------
    # Controller-DRAM vector cache (optional; see repro.ssd.vcache)
    # ------------------------------------------------------------------
    def _probe_vcache(
        self, flat_tables: np.ndarray, flat_indices: np.ndarray
    ) -> Tuple[Optional[vcache_model.Probe], np.ndarray, np.ndarray]:
        """Probe the cache once per lookup, in issue order.

        Returns the probe and the ``(table, row)`` stream of its
        misses — the whole stream, and no probe, without a cache.
        Cache state advances deterministically with the probe
        sequence, so the DES and fast paths — which probe identical
        streams — observe identical hit sets.
        """
        cache = self.controller.vcache
        if cache is None:
            return None, flat_tables, flat_indices
        probe = cache.probe(zip(flat_tables.tolist(), flat_indices.tolist()))
        self.controller.stats.record_vcache(
            probe.hits, probe.misses, probe.evictions, probe.fills
        )
        sanitizer = self.controller.flash.sanitizer
        if sanitizer is not None:
            sanitizer.vcache_batch(probe.hits, len(probe.refs))
        misses = probe.miss_positions()
        return probe, flat_tables[misses], flat_indices[misses]

    def _bind_vcache(
        self,
        probe: Optional[vcache_model.Probe],
        miss_rows: np.ndarray,
        flat_tables: np.ndarray,
        flat_indices: np.ndarray,
    ) -> np.ndarray:
        """Every row of the batch in issue order, given its flash reads.

        The cache copies the hit rows in around the gathered miss rows
        and commits the batch's surviving fills from them.
        """
        if probe is None:
            return miss_rows
        rows = np.empty((len(probe.refs), self.dim), dtype=np.float32)
        rows[probe.miss_positions()] = miss_rows
        self.controller.vcache.bind(probe, rows)
        sanitizer = self.controller.flash.sanitizer
        if sanitizer is not None:
            hits = np.flatnonzero(probe.refs != vcache_model.MISS)
            sanitizer.vcache_hit_bytes(
                rows[hits], self._peek_rows(flat_tables[hits], flat_indices[hits])
            )
        return rows

    def warm_vcache(self, keys: Sequence[Tuple[int, int]]) -> int:
        """Pre-fill the vector cache with ``(table_id, index)`` keys.

        The static-hot workflow (RecFlash): profile the trace, pin the
        hot set, serve.  Returns the resident vector count.
        """
        cache = self.controller.vcache
        if cache is None:
            raise ValueError("no vector cache configured on this device")
        pairs = np.asarray(list(keys), dtype=np.int64).reshape(-1, 2)
        rows = self._peek_rows(pairs[:, 0], pairs[:, 1])
        return cache.warm(zip(map(tuple, pairs.tolist()), rows))

    # ------------------------------------------------------------------
    # Discrete-event execution
    # ------------------------------------------------------------------
    def _read_proc(
        self, table_ids: Sequence[int], indices: Sequence[int]
    ) -> Generator:
        """Process: issue every vector read of the batch concurrently.

        Returns the completed requests in issue order, so EV Sum can
        reduce in lookup order regardless of completion order (the
        Path Buffer's job).
        """
        sim = self.controller.sim
        events = []
        for table_id, index in zip(table_ids, indices):
            read = self.translator.translate(table_id, index)
            events.append(
                sim.process(
                    self.controller.read_vector_proc(read.device_offset, read.size)
                )
            )
        results = yield sim.all_of(events)
        return results

    def lookup_batch(
        self,
        sparse_batch: Sequence[Sequence[Sequence[int]]],
        fast: Optional[bool] = None,
    ) -> LookupResult:
        """Run a batched lookup to completion on the simulation clock.

        Pools per (sample, table) in lookup order and concatenates per
        sample — the EV Sum semantics.

        ``fast=None`` defers to the ``RMSSD_FASTPATH`` flag.  The fast
        path replays the batch without per-read processes (same elapsed
        time, bitwise-identical pooled outputs) but requires exclusive
        use of the flash channels: any in-flight work — concurrent
        block I/O from :meth:`repro.core.device.RMSSD.
        start_background_block_reads`, for example — falls back to the
        DES, as does an empty batch.  The result's ``fallback_reason``
        names which of these applied.
        """
        if fast is None:
            fast = fastpath.enabled()
        if not fast:
            reason = "fast disabled"
        elif len(sparse_batch) == 0:
            reason = "empty batch"
        elif self.controller.sim.peek() is not None:
            reason = "in-flight events"
        else:
            reason = None
        if reason is None:
            result = self._lookup_batch_fast(sparse_batch)
        else:
            result = self._lookup_batch_des(sparse_batch)
            result.fallback_reason = reason
        key = (result.path, reason)
        self.path_counts[key] = self.path_counts.get(key, 0) + 1
        return result

    def _finish(
        self,
        path: str,
        start: float,
        mark,
        elapsed: float,
        pooled: np.ndarray,
        vectors_read: int,
        probe: Optional[vcache_model.Probe],
    ) -> LookupResult:
        """Accounting, spans, profile and result of one batched lookup.

        Every quantity here — ``start``, ``elapsed`` and the server
        states behind ``emit_batch_spans`` — is bitwise equal between
        the DES and the fast path (the PR 2 equivalence contract), so
        both paths report through this one tail; pinned by
        ``tests/test_obs_span_equivalence.py``.

        The DRAM fetch of the hit vectors overlaps the flash reads:
        the stage ends when the slower of the two streams drains, and
        ``ev_sum`` starts there.  Each interval is computed once, for the
        span tree and the busy records alike; with the cache disabled
        the tree is byte-identical to the cache-free build.
        """
        timing = self.controller.timing
        ev_size = self.tables.ev_size
        hits = evictions = fills = 0
        vcache_ns = 0.0
        if probe is not None:
            hits, evictions, fills = probe.hits, probe.evictions, probe.fills
            vcache_ns = timing.cycles_to_ns(vcache_model.fetch_cycles(hits, ev_size))
        total = vectors_read + hits
        self.controller.stats.record_useful(total * ev_size)
        ev_sum_ns = timing.cycles_to_ns(EV_SUM_CYCLES_PER_VECTOR * total)
        stage_ns = max(elapsed, vcache_ns)
        ev_sum_start = start + stage_ns
        end = ev_sum_start + ev_sum_ns
        # The profiler takes busy intervals of the engines the DES does
        # not model as resources: the EV-Sum adder tree and the
        # controller-DRAM vcache stream are analytic add-ons.
        tracer, profiler = self.controller.tracer, self.controller.sim.profiler
        if tracer is not None:
            track = tracer.lane_track("emb", start, end)
            batch_args = {"vectors": vectors_read, "samples": len(pooled), "path": path}
            if probe is not None:
                batch_args["vcache_hits"] = hits
            tracer.add_span(
                names.SPAN_LOOKUP_BATCH, start, end, cat="emb", track=track,
                args=batch_args,
            )
            tracer.add_span(
                names.SPAN_TRANSLATE, start, start, cat="emb", track=track,
                args={"vectors": vectors_read},
            )
            tracer.add_span(
                names.SPAN_FLASH_READ, start, start + elapsed, cat="emb", track=track
            )
        if probe is not None:
            # The DRAM fetch of the hit vectors, overlapping flash_read.
            if tracer is not None:
                tracer.add_span(
                    names.VCACHE, start, start + vcache_ns, cat="emb", track=track,
                    args={"hits": hits},
                )
            if profiler is not None:
                profiler.record_busy(names.VCACHE, start, start + vcache_ns, names.VCACHE)
        if tracer is not None:
            tracer.add_span(
                names.EV_SUM, ev_sum_start, end, cat="emb", track=track,
                args={"vectors": total},
            )
            self.controller.emit_batch_spans(start, mark)
        if profiler is not None:
            profiler.record_busy(names.EV_SUM, ev_sum_start, end, names.KIND_EV_SUM)
        return LookupResult(
            pooled=pooled,
            elapsed_ns=stage_ns + ev_sum_ns,
            vectors_read=vectors_read,
            path=path,
            vcache_hits=hits,
            vcache_ns=vcache_ns,
            vcache_evictions=evictions,
            vcache_fills=fills,
        )

    def _lookup_batch_des(
        self, sparse_batch: Sequence[Sequence[Sequence[int]]]
    ) -> LookupResult:
        """Reference path: one simulation process per vector read.

        With a vector cache configured, the batch is probed first (in
        issue order) and only the misses become read processes; hit
        vectors are merged back in issue order before EV Sum, so
        pooling still accumulates in lookup order.
        """
        sim = self.controller.sim
        start = sim.now
        mark = None if self.controller.tracer is None else self.controller.batch_mark()
        lengths, flat_tables, flat_indices = self._flatten(sparse_batch)
        probe, miss_tables, miss_indices = self._probe_vcache(flat_tables, flat_indices)
        proc = sim.process(
            self._read_proc(miss_tables.tolist(), miss_indices.tolist())
        )
        sim.run()
        elapsed = sim.now - start
        miss_rows = np.empty((len(proc.value), self.dim), dtype=np.float32)
        for position, request in enumerate(proc.value):
            miss_rows[position] = np.frombuffer(request.data, dtype=np.float32)
        rows = self._bind_vcache(probe, miss_rows, flat_tables, flat_indices)
        # EV Sum: accumulate in lookup order for bitwise-stable fp32.
        pooled = np.zeros((len(lengths), self.dim), dtype=np.float32)
        cursor = 0
        for acc, count in zip(pooled, lengths.tolist()):
            for row in rows[cursor : cursor + count]:
                acc += row
            if self.pooling == "mean" and count:
                acc /= np.float32(count)
            cursor += count
        pooled = pooled.reshape(len(sparse_batch), len(self.tables) * self.dim)
        return self._finish("des", start, mark, elapsed, pooled, len(miss_rows), probe)

    def _lookup_batch_fast(
        self, sparse_batch: Sequence[Sequence[Sequence[int]]]
    ) -> LookupResult:
        """Vectorized path: translate, replay, gather while segment-reducing.

        Produces the same elapsed time and bitwise-identical pooled
        outputs as :meth:`_lookup_batch_des`
        (``tests/test_fastpath_equivalence.py``,
        ``tests/test_vcache_equivalence.py``), in O(vectors) numpy work
        instead of O(vectors) Python processes.  With a vector cache
        configured only the probe's misses are translated, replayed
        and gathered.
        """
        sim = self.controller.sim
        start = sim.now
        mark = None if self.controller.tracer is None else self.controller.batch_mark()
        lengths, flat_tables, flat_indices = self._flatten(sparse_batch)
        probe, miss_tables, miss_indices = self._probe_vcache(flat_tables, flat_indices)
        vectors_read = len(miss_indices)
        ev_size = self.tables.ev_size
        if vectors_read:
            physical_pages, cols = self._locate(miss_tables, miss_indices)
            channel_ids, die_ids = self.controller.geometry.split_page_indices(
                physical_pages
            )
            # Timing: serialize the shared FTL stage, then replay the
            # two-phase flash protocol per channel.
            enter_ns = self.controller.serve_ftl_batch(vectors_read)
            transfer_ns = np.full(
                vectors_read, self.controller.timing.vector_transfer_ns(ev_size)
            )
            _, end = fastpath.replay_reads(
                self.controller.flash,
                enter_ns,
                channel_ids,
                die_ids,
                transfer_ns,
                staged=True,
            )
            self.controller.stats.record_vector_reads(
                vectors_read, vectors_read * ev_size
            )
            sim.run(until=end)
        else:
            sim.run(until=start)
        elapsed = sim.now - start
        flash = self.controller.flash
        if vectors_read and probe is None:
            # EV Sum adds the vectors as they leave the flash: the
            # reduction asks for the rows it is about to add, a block
            # at a time, and the whole batch is never held at once.
            def rows(ids: np.ndarray) -> np.ndarray:
                return flash.peek_vectors(physical_pages[ids], cols[ids], ev_size)
        else:
            if vectors_read:
                miss_rows = flash.peek_vectors(physical_pages, cols, ev_size)
            else:
                miss_rows = np.empty((0, self.dim), dtype=np.float32)
            rows = self._bind_vcache(probe, miss_rows, flat_tables, flat_indices)
        # EV Sum: reduce each (sample, table) segment of the rows
        # strictly left to right.
        pooled = segment_pool(rows, lengths, self.pooling).reshape(
            len(sparse_batch), len(self.tables) * self.dim
        )
        return self._finish("fast", start, mark, elapsed, pooled, vectors_read, probe)

    # ------------------------------------------------------------------
    # Analytic view
    # ------------------------------------------------------------------
    def analytic_cycles(self, vectors: int) -> int:
        return flash_read_cycles(
            vectors,
            self.controller.geometry,
            self.controller.timing,
            self.tables.ev_size,
        )
