"""Kernel search algorithm (Section IV-C4, Rules One-Four).

Picks a kernel size ``(kr, kc)`` for every FC layer so that the MLP
stages are never the pipeline bottleneck (``Tbot' <= Temb'`` and
``Ttop' <= Temb'``, Eq. 2) at minimum total kernel area — which is the
resource bill (Eq. 2's argmin).

Implementation of the paper's rules:

* **Rule One** — if the summed weight footprint exceeds the BRAM
  budget, the largest layers spill to off-chip DRAM.
* **Rule Two** — a DRAM-resident layer's kernel is pinned to
  ``Dwidth x II`` (16x8 for a 64-byte DDR4 bus), making its time the
  weight-streaming time ``R*C/Dwidth``.
* **Rule Three** — if even maximal kernels cannot keep the MLP stages
  under ``Temb'`` at ``Nbatch = 1``, the supported device batch doubles
  until they fit (embedding time grows linearly in ``Nbatch``; MLP
  stage time is flat while ``Nbatch <= II``).
* **Rule Four** — greedy area assignment: every non-final layer starts
  at the minimum area ``II`` required by the kernel-reuse pipeline
  (Eq. 4 exempts the last layer); areas double where the timing
  constraint or the pair-balance constraint (Eq. 5, against a pinned
  DRAM partner) demands; scan shapes alternate so that
  ``kc_i >= kr_{i+1}`` and ``kce == kcb`` (Eq. 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2, sqrt
from typing import Dict, List, Optional

from repro.fpga.compose import StageTimes, chain_cycles, stage_times
from repro.fpga.decompose import (
    PLACEMENT_BRAM,
    PLACEMENT_DRAM,
    DecomposedModel,
    LayerAssignment,
)
from repro.fpga.kernel import KernelSize, batch_cycles, dram_layer_kernel
from repro.fpga.resources import (
    ResourceVector,
    engine_resources,
    weight_bram_tiles,
)
from repro.fpga.specs import DEFAULT_SETTINGS, FPGASettings

#: Default on-chip budget for MLP weights, in BRAM36 tiles.  The
#: prototype's XCVU9P backs large layers with URAM, so the practical
#: budget exceeds the low-end part's BRAM count; 1024 tiles (~4.5 MB)
#: keeps RMC1/2 fully on-chip and spills only RMC3's 10 MB first layer,
#: matching Table V.
DEFAULT_BRAM_BUDGET_TILES = 1024


def _pow2_ceil(value: int) -> int:
    return 1 << max(0, (value - 1).bit_length())


@dataclass
class KernelSearchResult:
    """Outcome of the search: kernels in place plus derived numbers."""

    model: DecomposedModel
    nbatch: int
    times: StageTimes
    resources: ResourceVector
    feasible: bool
    settings: FPGASettings
    flash_cycles_batch1: int = 1

    @property
    def kernels(self) -> Dict[str, KernelSize]:
        return {layer.name: layer.kernel for layer in self.model.all_layers()}

    @property
    def total_kernel_area(self) -> int:
        return sum(layer.kernel.area for layer in self.model.all_layers())

    def summary(self) -> str:
        kernel_text = ", ".join(
            f"{name}={kernel}" for name, kernel in self.kernels.items()
        )
        return (
            f"{self.model.name}: Nbatch={self.nbatch}, "
            f"interval={self.times.interval} cyc, {kernel_text}"
        )


class _Searcher:
    """Stateful implementation of Rules One-Four for one model."""

    def __init__(
        self,
        model: DecomposedModel,
        flash_cycles_batch1: int,
        settings: FPGASettings,
        bram_budget_tiles: int,
        max_nbatch: int,
    ) -> None:
        self.model = model
        self.flash_cycles_batch1 = max(1, flash_cycles_batch1)
        self.settings = settings
        self.bram_budget_tiles = bram_budget_tiles
        self.max_nbatch = max_nbatch
        self.nbatch = 1
        self.feasible = True
        self._areas: Dict[str, int] = {}

    # -- Rule One -------------------------------------------------------
    def assign_placements(self) -> None:
        layers = self.model.all_layers()
        tiles = {layer.name: weight_bram_tiles(layer.weight_bytes) for layer in layers}
        total = sum(tiles.values())
        by_size = sorted(layers, key=lambda l: tiles[l.name], reverse=True)
        for layer in layers:
            layer.placement = PLACEMENT_BRAM
        for layer in by_size:
            if total <= self.bram_budget_tiles:
                break
            layer.placement = PLACEMENT_DRAM
            total -= tiles[layer.name]

    # -- Rule Two -------------------------------------------------------
    def pin_dram_kernels(self) -> None:
        for layer in self.model.all_layers():
            if layer.placement == PLACEMENT_DRAM:
                layer.kernel = dram_layer_kernel(self.settings)
                self._areas[layer.name] = layer.kernel.area

    # -- Helpers --------------------------------------------------------
    def _bram_layers(self, layers: List[LayerAssignment]) -> List[LayerAssignment]:
        return [l for l in layers if l.placement == PLACEMENT_BRAM]

    def _last_layer(self) -> Optional[LayerAssignment]:
        if self.model.top:
            return self.model.top[-1]
        if self.model.bottom:
            return self.model.bottom[-1]
        return None

    def _min_area(self, layer: LayerAssignment) -> int:
        last = self._last_layer()
        if last is not None and layer.name == last.name:
            # Eq. 4 exempts the final layer from the II-reuse minimum.
            return max(1, self.settings.ii // 2)
        return self.settings.ii

    def _max_area(self) -> int:
        return self.settings.kmax * self.settings.kmax

    def _apply_area(self, layer: LayerAssignment, area: int) -> None:
        """Give the layer a provisional square-ish kernel of ``area``."""
        self._areas[layer.name] = area
        kr = _pow2_ceil(int(sqrt(area)))
        kr = min(kr, area)
        layer.kernel = KernelSize(kr=kr, kc=area // kr)

    def _temb(self) -> int:
        flash = self.nbatch * self.flash_cycles_batch1
        if self.model.emb is None:
            return flash
        emb = self.model.emb
        return max(
            flash,
            batch_cycles(emb.rows, emb.cols, emb.kernel, self.nbatch, self.settings),
        )

    def _chain_time(self, layers: List[LayerAssignment]) -> int:
        if not layers:
            return 0
        return chain_cycles(layers, self.nbatch, self.settings)

    def _flash_time(self) -> int:
        """The embedding-read component of Temb' at the current batch."""
        return self.nbatch * self.flash_cycles_batch1

    def _emb_fc_time(self) -> int:
        """Current cycles of the Le tail (0 if the model has none)."""
        if self.model.emb is None:
            return 0
        emb = self.model.emb
        return batch_cycles(emb.rows, emb.cols, emb.kernel, self.nbatch, self.settings)

    # -- Rule Three -----------------------------------------------------
    def _interval_per_sample(self) -> float:
        """Per-sample pipeline interval at the current batch/kernels."""
        interval = max(
            self._flash_time(),
            self._emb_fc_time(),
            self._chain_time(self.model.bottom),
            self._chain_time(self.model.top),
            1,
        )
        return interval / self.nbatch

    def choose_nbatch(self) -> None:
        """Escalate the device batch until every FC stage — bottom, top,
        and the Le tail itself — hides under the flash-read time.

        The flash term of Temb' grows linearly in Nbatch while FC stage
        times are flat up to ``II`` samples, so batching converts an
        MLP-bound pipeline into an embedding-bound one (the Fig. 12c
        crossover).  A model whose weights must stream from DRAM every
        batch (WnD's huge first layer) can stay FC-bound at any batch;
        escalation then stops once batching no longer improves the
        per-sample interval.
        """
        max_area = self._max_area()
        for layer in self.model.all_layers():
            if layer.placement == PLACEMENT_BRAM:
                self._apply_area(layer, max_area)
        self.nbatch = 1
        while self.nbatch < self.max_nbatch:
            flash = self._flash_time()
            if (
                self._chain_time(self.model.bottom) <= flash
                and self._chain_time(self.model.top) <= flash
                and self._emb_fc_time() <= flash
            ):
                return
            current = self._interval_per_sample()
            self.nbatch *= 2
            if self._interval_per_sample() >= current * 0.999:
                self.nbatch //= 2  # no further gain: streaming-bound
                return

    # -- Rule Four ------------------------------------------------------
    def assign_areas(self) -> None:
        for layer in self.model.all_layers():
            if layer.placement == PLACEMENT_BRAM:
                self._apply_area(layer, self._min_area(layer))
        # Grow the embedding-side FC until it hides under the flash time.
        self._grow_emb_layer()
        # Grow chain layers until both MLP stages fit under Temb'.
        for chain in (self.model.bottom, self.model.top):
            self._grow_chain(chain)
        # Eq. 5 against pinned DRAM partners.
        self._balance_pairs()

    def _grow_emb_layer(self) -> None:
        emb = self.model.emb
        if emb is None or emb.placement == PLACEMENT_DRAM:
            return
        while (
            self._emb_fc_time() > self._flash_time()
            and self._areas[emb.name] < self._max_area()
        ):
            self._apply_area(emb, self._areas[emb.name] * 2)

    def _grow_chain(self, chain: List[LayerAssignment]) -> None:
        while self._chain_time(chain) > self._temb():
            growable = [
                layer
                for layer in self._bram_layers(chain)
                if self._areas[layer.name] < self._max_area()
            ]
            if not growable:
                self.feasible = False
                return
            # Prefer the doubling that shrinks the chain most; when a
            # composed pair is balanced, no single doubling helps, so
            # fall back to the slowest growable layer to break the tie.
            best_layer = None
            best_delta = 0
            current = self._chain_time(chain)
            for layer in growable:
                area = self._areas[layer.name]
                self._apply_area(layer, area * 2)
                delta = current - self._chain_time(chain)
                self._apply_area(layer, area)
                if delta > best_delta:
                    best_delta = delta
                    best_layer = layer
            if best_layer is None:
                best_layer = max(
                    growable,
                    key=lambda l: batch_cycles(
                        l.rows, l.cols, l.kernel, self.nbatch, self.settings
                    ),
                )
            self._apply_area(best_layer, self._areas[best_layer.name] * 2)

    def _balance_pairs(self) -> None:
        """Eq. 5: a BRAM layer paired with a pinned DRAM layer should
        not run slower than that fixed partner."""
        for chain in (self.model.bottom, self.model.top):
            for first in range(0, len(chain), 2):
                pair = chain[first : first + 2]
                if len(pair) < 2:
                    continue
                dram = [l for l in pair if l.placement == PLACEMENT_DRAM]
                bram = [l for l in pair if l.placement == PLACEMENT_BRAM]
                if len(dram) != 1 or len(bram) != 1:
                    continue
                target = batch_cycles(
                    dram[0].rows, dram[0].cols, dram[0].kernel, self.nbatch, self.settings
                )
                layer = bram[0]
                while (
                    batch_cycles(
                        layer.rows, layer.cols, layer.kernel, self.nbatch, self.settings
                    )
                    > target
                    and self._areas[layer.name] < self._max_area()
                ):
                    self._apply_area(layer, self._areas[layer.name] * 2)

    # -- Shape assignment (Eq. 3) ----------------------------------------
    def assign_shapes(self) -> None:
        kc_bottom_tail = self._assign_chain_shapes(self.model.bottom, kc_prev=None)
        kc_emb = self._assign_emb_shape(kc_bottom_tail)
        # The top chain is fed by both Le and Lb at kce == kcb.
        feed = kc_emb if kc_emb is not None else kc_bottom_tail
        self._assign_chain_shapes(self.model.top, kc_prev=feed)

    def _assign_chain_shapes(
        self, chain: List[LayerAssignment], kc_prev: Optional[int]
    ) -> Optional[int]:
        for layer in chain:
            if layer.placement == PLACEMENT_DRAM:
                kc_prev = layer.kernel.kc  # pinned by Rule Two
                continue
            kc_prev = self._shape_one(layer, kc_prev)
        return kc_prev

    def _assign_emb_shape(self, kc_bottom_tail: Optional[int]) -> Optional[int]:
        emb = self.model.emb
        if emb is None:
            return None
        if emb.placement == PLACEMENT_DRAM:
            return emb.kernel.kc
        if kc_bottom_tail is not None:
            # kce == kcb (Eq. 3): give Le the same output rate as Lb.
            area = self._areas[emb.name]
            kc = min(kc_bottom_tail, area)
            kr = min(area // kc, self.settings.kmax)
            emb.kernel = KernelSize(kr=kr, kc=kc)
            return kc
        return self._shape_one(emb, kc_prev=None)

    def _shape_one(self, layer: LayerAssignment, kc_prev: Optional[int]) -> int:
        """Pick ``(kr, kc)`` for ``area``; returns the layer's kc.

        First layer of a chain: near-square with ``kr >= kc`` (the
        Table V pattern).  Later layers: ``kr = min(kc_prev, area)`` so
        that ``kc_prev >= kr`` (Eq. 3) holds by construction.
        """
        area = self._areas[layer.name]
        kmax = self.settings.kmax
        if kc_prev is None:
            kr = min(_pow2_ceil(int(ceil(sqrt(area)))), area)
        else:
            kr = min(kc_prev, area)
        kr = min(kr, kmax)
        kc = area // kr
        if kc > kmax:
            # A tiny upstream kc would force kc past the kernel-side
            # cap; lift kr instead (a small inter-layer buffer absorbs
            # the rate mismatch).
            kc = kmax
            kr = min(kmax, area // kc)
        # Do not provision more columns than the layer has outputs.
        cols_cap = _pow2_ceil(layer.cols)
        if kc > cols_cap:
            kc = cols_cap
        layer.kernel = KernelSize(kr=kr, kc=kc)
        return kc

    # -- Driver ----------------------------------------------------------
    def run(self) -> KernelSearchResult:
        self.assign_placements()
        self.pin_dram_kernels()
        self.choose_nbatch()
        self.assign_areas()
        self.assign_shapes()
        flash_rate = self.model.vectors_per_inference / self.flash_cycles_batch1
        times = stage_times(self.model, self.nbatch, flash_rate, self.settings)
        # Eq. 2 feasibility: the MLP chains hide under the embedding
        # stage (flash reads plus the Le tail).
        if times.tbot > times.temb or times.ttop > times.temb:
            self.feasible = False
        return KernelSearchResult(
            model=self.model,
            nbatch=self.nbatch,
            times=times,
            resources=engine_resources(self.model, self.settings),
            feasible=self.feasible,
            settings=self.settings,
            flash_cycles_batch1=self.flash_cycles_batch1,
        )


def kernel_search(
    model: DecomposedModel,
    flash_cycles_batch1: int,
    settings: FPGASettings = DEFAULT_SETTINGS,
    bram_budget_tiles: int = DEFAULT_BRAM_BUDGET_TILES,
    max_nbatch: int = 256,
) -> KernelSearchResult:
    """Run the full kernel search for one decomposed model.

    ``flash_cycles_batch1`` is the embedding-read time ``M*N / bEV`` at
    batch 1 in engine cycles (obtainable from
    :func:`repro.core.lookup_engine.flash_read_cycles`).
    """
    searcher = _Searcher(
        model, flash_cycles_batch1, settings, bram_budget_tiles, max_nbatch
    )
    return searcher.run()


def default_kernels(
    model: DecomposedModel,
    settings: FPGASettings = DEFAULT_SETTINGS,
    bram_budget_tiles: int = DEFAULT_BRAM_BUDGET_TILES,
    kernel_area_log2: int = 8,
    first_bottom_kernel: Optional[KernelSize] = None,
) -> DecomposedModel:
    """Assign the *default* (unsearched) kernels of Section VI-D.

    RMC1/2 default to 16x16 everywhere; RMC3 to 8x8 with a 16x8 first
    bottom layer.  Used by the Table VI "MLP" design point.
    """
    searcher = _Searcher(model, 1, settings, bram_budget_tiles, 1)
    searcher.assign_placements()
    searcher.pin_dram_kernels()
    side = 1 << (kernel_area_log2 // 2)
    for position, layer in enumerate(model.all_layers()):
        if layer.placement == PLACEMENT_DRAM:
            continue
        if position == 0 and first_bottom_kernel is not None:
            layer.kernel = first_bottom_kernel
        else:
            layer.kernel = KernelSize(side, side)
    return model
