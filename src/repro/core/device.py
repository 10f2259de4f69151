"""The RM-SSD device: end-to-end simulated inference.

Wires together the substrate stack (flash array, FTL, block device,
embedding layout), the Embedding Lookup Engine, the kernel-searched MLP
Acceleration Engine, and the MMIO manager, and executes batched
recommendation inference with both numeric outputs and timing.

Two MLP design points are supported (Section VI-D):

* ``"optimized"`` — the full RM-SSD: intra-layer decomposition,
  inter-layer composition, kernel search;
* ``"naive"`` — the conventional shared-GEMM design (RM-SSD-Naive in
  Fig. 12/15): one 16x16 array processes layers sequentially per
  sample, with no decomposition, so the MLP cannot hide under the
  embedding stage for MLP-dominated models.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.lookup_engine import (
    EmbeddingLookupEngine,
    LookupResult,
    flash_read_cycles,
)
from repro.core.mlp_engine import MLPAccelerationEngine
from repro.core.registers import MMIOCostModel, MMIOManager
from repro.obs import names
from repro.embedding.layout import EmbeddingLayout
from repro.fpga.decompose import decompose_model
from repro.fpga.search import KernelSearchResult, kernel_search
from repro.fpga.specs import DEFAULT_SETTINGS, FPGASettings
from repro.sim import Simulator
from repro.ssd.blockdev import BlockDevice
from repro.ssd.controller import SSDController
from repro.ssd.geometry import SSDGeometry
from repro.ssd.timing import SSDTimingModel
from repro.ssd.vcache import VectorCache

MLP_DESIGN_OPTIMIZED = "optimized"
MLP_DESIGN_NAIVE = "naive"

#: The naive comparator's fixed GEMM array side (16x16 MACs).
NAIVE_GEMM_SIDE = 16


def operating_point(
    model,
    lookups_per_table: int,
    geometry: Optional[SSDGeometry] = None,
    ssd_timing: Optional[SSDTimingModel] = None,
    settings: FPGASettings = DEFAULT_SETTINGS,
    **search_kwargs,
) -> KernelSearchResult:
    """Kernel-search operating point of ``model`` (Section IV-C).

    Decomposes the MLPs, takes the batch-1 embedding-read time from the
    flash geometry (Eq. 1a) and runs Rules One-Four against it; the
    result holds ``Temb'/Tbot'/Ttop'`` (``.times``) and ``Nbatch``.
    ``search_kwargs`` (``bram_budget_tiles``, ``max_nbatch``) pass
    through to :func:`repro.fpga.search.kernel_search`.
    """
    geometry = geometry or SSDGeometry()
    ssd_timing = ssd_timing or SSDTimingModel(page_size=geometry.page_size)
    decomposed = decompose_model(model, lookups_per_table)
    flash_base = flash_read_cycles(
        decomposed.vectors_per_inference,
        geometry,
        ssd_timing,
        model.tables.ev_size,
    )
    return kernel_search(decomposed, flash_base, settings, **search_kwargs)


@dataclass
class DeviceTiming:
    """Timing of one device batch.

    ``serialized`` marks the naive MLP design, whose shared GEMM unit
    cannot overlap the embedding stage (no intra-layer decomposition):
    its stages add instead of pipelining.
    """

    nbatch: int
    emb_ns: float
    bot_ns: float
    top_ns: float
    io_ns: float
    serialized: bool = False

    @property
    def interval_ns(self) -> float:
        """Pipelined issue interval: the slowest stage (or the stage
        sum for the serialized naive design)."""
        if self.serialized:
            return self.emb_ns + self.bot_ns + self.top_ns + self.io_ns
        return max(self.emb_ns, self.bot_ns, self.top_ns, self.io_ns, 1.0)

    @property
    def latency_ns(self) -> float:
        """Unpipelined completion time of this batch."""
        if self.serialized:
            return self.emb_ns + self.bot_ns + self.top_ns + self.io_ns
        return max(self.emb_ns, self.bot_ns) + self.top_ns + self.io_ns


@dataclass
class WorkloadResult:
    """Aggregate of a run over many batches."""

    outputs: np.ndarray
    total_ns: float
    batch_timings: List[DeviceTiming]
    inferences: int

    @property
    def qps(self) -> float:
        return self.inferences / (self.total_ns / 1e9)

    @property
    def mean_latency_ns(self) -> float:
        if not self.batch_timings:
            return 0.0
        return sum(t.latency_ns for t in self.batch_timings) / len(self.batch_timings)


class RMSSD:
    """A fully-assembled RM-SSD holding one model."""

    def __init__(
        self,
        model,
        lookups_per_table: int,
        geometry: Optional[SSDGeometry] = None,
        ssd_timing: Optional[SSDTimingModel] = None,
        settings: FPGASettings = DEFAULT_SETTINGS,
        mlp_design: str = MLP_DESIGN_OPTIMIZED,
        use_des: bool = True,
        max_extent_pages: Optional[int] = None,
        mmio_costs: MMIOCostModel = MMIOCostModel(),
        sanitize: Optional[bool] = None,
        fastpath: Optional[bool] = None,
        tracer=None,
        metrics=None,
        vcache: Optional[VectorCache] = None,
        profiler=None,
    ) -> None:
        if mlp_design not in (MLP_DESIGN_OPTIMIZED, MLP_DESIGN_NAIVE):
            raise ValueError(f"unknown MLP design {mlp_design!r}")
        self.model = model
        self.lookups_per_table = lookups_per_table
        self.settings = settings
        self.mlp_design = mlp_design
        self.use_des = use_des
        #: ``None`` defers to the RMSSD_FASTPATH environment flag; the
        #: lookup engine falls back to the DES whenever background
        #: block I/O is still in flight (see repro.ssd.fastpath).
        self.fastpath = fastpath

        # Optional observers (see repro.obs), ``None`` = not attached;
        # ``metrics`` is a MetricsRegistry that accumulates latency
        # histograms across infer_batch calls.
        self.tracer = tracer
        self.metrics = metrics

        # ``sanitize=None`` defers to the RMSSD_SANITIZE environment
        # flag (see repro.sim.sanitizer); the substrate built from this
        # simulator inherits its invariant checks.
        self.sim = Simulator(sanitize=sanitize)
        # Attaching the profiler to the simulator makes every named
        # DES resource report busy intervals.
        self.profiler = self.sim.profiler = profiler
        # Optional controller-DRAM hot-vector cache (repro.ssd.vcache);
        # ``None`` keeps the paper's cache-free lookup path.
        if vcache is not None and vcache.ev_size == 0:
            vcache.ev_size = model.tables.ev_size
        self.controller = SSDController(
            self.sim, geometry, ssd_timing, tracer=self.tracer, vcache=vcache
        )
        self.blockdev = BlockDevice(self.controller, max_extent_pages=max_extent_pages)
        self.layout = EmbeddingLayout(self.blockdev, model.tables)
        self.layout.create_all()
        self.lookup_engine = EmbeddingLookupEngine(
            self.controller,
            self.layout,
            pooling=getattr(model, "pooling", "sum"),
        )
        self.mmio = MMIOManager(self.controller.stats, mmio_costs)

        self.search = operating_point(
            model,
            lookups_per_table,
            self.controller.geometry,
            self.controller.timing,
            settings,
        )
        self.mlp_engine = MLPAccelerationEngine(model, self.search)
        self._naive_mlp_cycles = self._naive_gemm_cycles()

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def stats(self):
        return self.controller.stats

    @property
    def vcache(self) -> Optional[VectorCache]:
        return self.controller.vcache

    @property
    def supported_nbatch(self) -> int:
        """Largest batch one device I/O carries (Rule Three's Nbatch)."""
        return self.search.nbatch

    def _naive_gemm_cycles(self) -> Tuple[int, int]:
        """MLP cost of the shared 16x16 GEMM design.

        Returns ``(compute_cycles_per_sample, stream_cycles_per_batch)``.
        Models whose weights overflow on-chip storage stream them from
        DRAM once per batch (double-buffered), which floors the naive
        design's batch time — the reason RM-SSD-Naive trails RM-SSD by
        ~3x on RMC3 (Fig. 12c) while matching it on RMC1/2.
        """
        from repro.fpga.resources import weight_bram_tiles
        from repro.fpga.search import DEFAULT_BRAM_BUDGET_TILES

        compute = 0
        weight_bytes = 0
        shapes = list(self.model.fc_shapes_bottom()) + list(self.model.fc_shapes_top())
        for rows, cols in shapes:
            compute += (
                ceil(rows / NAIVE_GEMM_SIDE)
                * ceil(cols / NAIVE_GEMM_SIDE)
                * self.settings.ii
            )
            weight_bytes += rows * cols * 4
        if weight_bram_tiles(weight_bytes) > DEFAULT_BRAM_BUDGET_TILES:
            stream = ceil(weight_bytes / 4 / self.settings.dram_words_per_cycle)
        else:
            stream = 0
        return compute, stream

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def simulate_table_upload(self) -> float:
        """Timed replay of the ``RM_create_table`` bulk write.

        The creation phase streams every table page through the block
        I/O path (Section IV-D); returns the elapsed simulated
        nanoseconds.  Contents are rewritten in place, so the laid-out
        tables are unchanged afterwards.
        """
        page_size = self.controller.geometry.page_size
        start = self.sim.now
        for layout in self.layout.layouts.values():
            for extent in layout.handle.extents:
                for lba in range(extent.start_lba, extent.end_lba):
                    data = self.controller.peek_logical(lba * page_size, page_size)
                    self.sim.process(self.controller.write_block_proc(lba, data))
        self.sim.run()
        return self.sim.now - start

    def start_background_block_reads(self, lbas: Sequence[int]) -> list:
        """Issue conventional block I/O concurrently with inference.

        RM-SSD "supports both block I/O requests and recommendation
        inference" (Section IV-A); both paths share the FTL and flash
        channels through the round-robin MUX.  The returned process
        events complete during the next inference's simulation run, and
        the contention is visible in the embedding stage time.  While
        these reads are in flight the lookup engine always takes the
        DES path — the vectorized fast path requires idle channels.
        """
        return [
            self.sim.process(self.controller.read_block_proc(lba)) for lba in lbas
        ]

    def _input_bytes(self, sparse_batch) -> int:
        indices = sum(
            len(lookups) for sample in sparse_batch for lookups in sample
        )
        dense = len(sparse_batch) * getattr(self.model, "dense_dim", 0) * 4
        return indices * 8 + dense  # 64-bit indices + fp32 dense

    def _output_bytes(self, nbatch: int) -> int:
        return max(self.settings.mmio_width_bytes, nbatch * 4)

    def infer_batch(
        self,
        dense_batch: Optional[np.ndarray],
        sparse_batch: Sequence[Sequence[Sequence[int]]],
    ) -> Tuple[np.ndarray, DeviceTiming]:
        """One device batch: numeric outputs plus its timing."""
        nbatch = len(sparse_batch)
        if nbatch < 1:
            raise ValueError("empty batch")
        batch_start = self.sim.now

        # Host -> device: control registers + DMA of indices/dense.
        send_ns = self.mmio.write_register("num_lookups", self.lookups_per_table)
        send_ns += self.mmio.write_register("nbatch", nbatch)
        send_ns += self.mmio.dma_to_device(self._input_bytes(sparse_batch))

        # Embedding Lookup Engine.
        lookup = self.lookup_engine.lookup_batch(sparse_batch, fast=self.fastpath)
        if self.use_des:
            emb_ns = lookup.elapsed_ns
        else:
            # Analytic view: only the flash misses pay Eq. 1a bandwidth;
            # the cached vectors stream from DRAM in parallel.
            emb_ns = max(
                self.controller.timing.cycles_to_ns(
                    self.lookup_engine.analytic_cycles(lookup.vectors_read)
                ),
                lookup.vcache_ns,
            )

        # MLP Acceleration Engine (numeric + stage timing).
        outputs = self.mlp_engine.forward_batch(dense_batch, lookup.pooled)
        if self.mlp_design == MLP_DESIGN_OPTIMIZED:
            stages = self.mlp_engine.stage_times_for(nbatch)
            if stages.temb > stages.flash_cycles:
                # The Le tail of the embedding stage dominates the reads.
                emb_ns = max(emb_ns, self.settings.cycles_to_ns(stages.temb))
            bot_ns = self.settings.cycles_to_ns(stages.tbot)
            top_ns = self.settings.cycles_to_ns(stages.ttop)
        else:
            # Weights re-stream from DRAM for every sample (no Rule-Two
            # double buffering in the conventional design).
            compute, stream = self._naive_mlp_cycles
            bot_ns = 0.0
            top_ns = self.settings.cycles_to_ns(max(compute, stream) * nbatch)

        # Device -> host: status poll + result DMA.
        recv_ns = self.mmio.poll_status()
        recv_ns += self.mmio.dma_from_device(self._output_bytes(nbatch))

        timing = DeviceTiming(
            nbatch=nbatch,
            emb_ns=emb_ns,
            bot_ns=bot_ns,
            top_ns=top_ns,
            io_ns=send_ns + recv_ns,
            serialized=self.mlp_design == MLP_DESIGN_NAIVE,
        )
        if self.tracer is not None:
            self._emit_request_spans(
                batch_start, timing, send_ns, recv_ns, lookup.path
            )
        if self.profiler is not None:
            self._profile_request(batch_start, timing, send_ns, recv_ns)
        if self.metrics is not None:
            self._observe_metrics(timing, batch_start + timing.latency_ns, lookup)
        return outputs, timing

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _emit_request_spans(
        self,
        batch_start: float,
        timing: DeviceTiming,
        send_ns: float,
        recv_ns: float,
        lookup_path: str,
    ) -> None:
        """Span tree of one device batch.

        The root ``request`` span covers the batch's unpipelined
        latency on a lane of the ``host`` track group (concurrent
        requests render side by side); ``io_send``/``io_recv`` nest at
        its edges.  The MLP chains get their own ``mlp`` track group so
        they can overlap the embedding spans (which live on ``emb``,
        emitted by the lookup engine) without breaking track nesting.
        """
        tracer = self.tracer
        end = batch_start + timing.latency_ns
        track = tracer.lane_track("host", batch_start, end)
        tracer.add_span(
            names.SPAN_REQUEST,
            batch_start,
            end,
            cat="host",
            track=track,
            args={
                "nbatch": timing.nbatch,
                "design": self.mlp_design,
                "lookup_path": lookup_path,
            },
        )
        tracer.add_span(
            names.SPAN_IO_SEND,
            batch_start,
            batch_start + send_ns,
            cat="io",
            track=track,
        )
        tracer.add_span(
            names.SPAN_IO_RECV, end - recv_ns, end, cat="io", track=track
        )
        if timing.serialized:
            # The naive shared-GEMM design runs after the embedding
            # stage drains; there is no per-layer decomposition to show.
            mlp_start = batch_start + timing.emb_ns
            mlp_end = mlp_start + timing.top_ns
            mlp_track = tracer.lane_track("mlp", mlp_start, mlp_end)
            tracer.add_span(
                names.SPAN_TOP_MLP,
                mlp_start,
                mlp_end,
                cat="mlp",
                track=mlp_track,
                args={"design": MLP_DESIGN_NAIVE},
            )
            return
        self._emit_chain_spans(
            names.SPAN_BOTTOM_MLP, "bottom", batch_start, timing.nbatch
        )
        top_start = batch_start + max(timing.emb_ns, timing.bot_ns)
        self._emit_chain_spans(names.SPAN_TOP_MLP, "top", top_start, timing.nbatch)

    def _emit_chain_spans(
        self, name: str, chain: str, chain_start: float, nbatch: int
    ) -> None:
        """One FC chain: pairs laid end to end, members overlaid.

        A composition pair advances in the time of its slower member
        (Fig. 9b), so both members start together and the shorter one
        nests inside the longer — the trace shows exactly where the
        scan-direction composition saves time.
        """
        pairs = self.mlp_engine.layer_intervals(chain, nbatch)
        if not pairs:
            return
        total = sum(max(d for _, d in pair) for pair in pairs)
        tracer = self.tracer
        track = tracer.lane_track("mlp", chain_start, chain_start + total)
        tracer.add_span(
            name,
            chain_start,
            chain_start + total,
            cat="mlp",
            track=track,
            args={"pairs": len(pairs)},
        )
        cursor = chain_start
        for pair in pairs:
            for layer_name, duration in pair:
                tracer.add_span(
                    names.fc_name(layer_name),
                    cursor,
                    cursor + duration,
                    cat="mlp",
                    track=track,
                )
            cursor += max(d for _, d in pair)

    def _profile_request(
        self,
        batch_start: float,
        timing: DeviceTiming,
        send_ns: float,
        recv_ns: float,
    ) -> None:
        """Utilization records of one device batch.

        Mirrors :meth:`_emit_request_spans` exactly — same interval
        arithmetic, same layer walk — but feeds the profiler instead of
        the tracer, so profiling works without tracing (and both paths
        record bitwise-equal intervals; the MLP and host-I/O times are
        analytic add-ons that may extend past the DES clock, which is
        why the profiler's run horizon is taken over all records).
        """
        profiler = self.profiler
        end = batch_start + timing.latency_ns
        profiler.record_stage(
            batch_start,
            timing.nbatch,
            timing.emb_ns,
            timing.bot_ns,
            timing.top_ns,
            timing.io_ns,
            timing.latency_ns,
            timing.serialized,
        )
        profiler.record_busy(
            names.RES_HOST_IO,
            batch_start,
            batch_start + send_ns,
            names.KIND_HOST_IO,
        )
        profiler.record_busy(
            names.RES_HOST_IO, end - recv_ns, end, names.KIND_HOST_IO
        )
        if timing.serialized:
            mlp_start = batch_start + timing.emb_ns
            profiler.record_busy(
                names.RES_GEMM_NAIVE,
                mlp_start,
                mlp_start + timing.top_ns,
                names.KIND_MLP,
            )
            return
        self._profile_chain("bottom", batch_start, timing.nbatch)
        top_start = batch_start + max(timing.emb_ns, timing.bot_ns)
        self._profile_chain("top", top_start, timing.nbatch)

    def _profile_chain(self, chain: str, chain_start: float, nbatch: int) -> None:
        """Busy intervals of one FC chain's kernels (Fig. 9b walk)."""
        pairs = self.mlp_engine.layer_intervals(chain, nbatch)
        profiler = self.profiler
        cursor = chain_start
        for pair in pairs:
            for layer_name, duration in pair:
                profiler.record_busy(
                    names.fc_name(layer_name),
                    cursor,
                    cursor + duration,
                    names.KIND_MLP,
                )
            cursor += max(d for _, d in pair)

    def _observe_metrics(
        self, timing: DeviceTiming, done_ns: float, lookup: LookupResult
    ) -> None:
        # Every observation is stamped with the batch's completion
        # instant, so a windowed registry (repro.obs.timeseries) rolls
        # device metrics into the window the batch finished in —
        # identically on the DES and fast paths, whose timings are
        # bitwise-equal.
        metrics = self.metrics
        metrics.counter(names.METRIC_DEVICE_BATCHES).inc(t_ns=done_ns)
        metrics.counter(names.METRIC_DEVICE_INFERENCES).inc(
            timing.nbatch, t_ns=done_ns
        )
        metrics.histogram(names.METRIC_REQUEST_LATENCY).observe(
            timing.latency_ns, t_ns=done_ns
        )
        metrics.histogram(names.METRIC_STAGE_EMB).observe(
            timing.emb_ns, t_ns=done_ns
        )
        metrics.histogram(names.METRIC_STAGE_BOT).observe(
            timing.bot_ns, t_ns=done_ns
        )
        metrics.histogram(names.METRIC_STAGE_TOP).observe(
            timing.top_ns, t_ns=done_ns
        )
        metrics.histogram(names.METRIC_STAGE_IO).observe(
            timing.io_ns, t_ns=done_ns
        )
        vcache = self.controller.vcache
        if vcache is not None:
            # The batch's own probe counts: every miss is a flash read.
            metrics.counter(names.METRIC_VCACHE_HITS).inc(
                lookup.vcache_hits, t_ns=done_ns
            )
            metrics.counter(names.METRIC_VCACHE_MISSES).inc(
                lookup.vectors_read, t_ns=done_ns
            )
            metrics.counter(names.METRIC_VCACHE_EVICTIONS).inc(
                lookup.vcache_evictions, t_ns=done_ns
            )
            metrics.gauge(names.METRIC_VCACHE_HIT_RATIO).set(
                vcache.hit_ratio, t_ns=done_ns
            )

    def run_workload(
        self,
        dense_batches: Sequence[Optional[np.ndarray]],
        sparse_batches: Sequence[Sequence],
        pipelined: bool = True,
    ) -> WorkloadResult:
        """Run a sequence of device batches.

        With system-level pipelining (Section IV-D) the host pre-sends
        the next batch while the device works, so steady-state cost per
        batch is its pipeline interval; the first batch pays full
        latency.  Unpipelined, every batch pays full latency.
        """
        if len(dense_batches) != len(sparse_batches):
            raise ValueError("dense/sparse batch counts differ")
        outputs: List[np.ndarray] = []
        timings: List[DeviceTiming] = []
        total_ns = 0.0
        inferences = 0
        for position, (dense, sparse) in enumerate(zip(dense_batches, sparse_batches)):
            batch_out, timing = self.infer_batch(dense, sparse)
            outputs.append(batch_out)
            timings.append(timing)
            inferences += timing.nbatch
            if pipelined:
                total_ns += timing.latency_ns if position == 0 else timing.interval_ns
            else:
                total_ns += timing.latency_ns
        return WorkloadResult(
            outputs=np.concatenate(outputs) if outputs else np.empty((0, 1)),
            total_ns=total_ns,
            batch_timings=timings,
            inferences=inferences,
        )
