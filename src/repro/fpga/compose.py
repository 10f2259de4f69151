"""Inter-layer composition and pipeline stage times (Eq. 1a-1c).

Adjacent FC layers are *composed into pairs* by alternating the kernel
scan direction (Fig. 9b): while layer ``Li`` scans columns, ``Li+1``
scans rows, so a pair advances in the time of its slower member rather
than the sum.  The resulting stage times:

* ``Temb' = max(Nbatch * M*N / bEV,  cycles(Le))``        (Eq. 1a)
* ``Tbot' = sum over pairs (i, i+1) of max(cycles)``      (Eq. 1b)
* ``Ttop' = sum over pairs (j, j+1), j from 1, of max``   (Eq. 1c)

A pipelined RM-SSD issues one small batch per ``max`` of the three
stage times (throughput) and completes a batch after the embedding and
top stages have both run (latency).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import List, Sequence

from repro.fpga.decompose import DecomposedModel, LayerAssignment
from repro.fpga.kernel import batch_cycles
from repro.fpga.specs import DEFAULT_SETTINGS, FPGASettings


def pair_layers(layers: Sequence[LayerAssignment]) -> List[tuple]:
    """Group a chain into composition pairs ((0,1), (2,3), ...)."""
    pairs = []
    for first in range(0, len(layers), 2):
        pairs.append(tuple(layers[first : first + 2]))
    return pairs


def chain_cycles(
    layers: Sequence[LayerAssignment],
    nbatch: int,
    settings: FPGASettings = DEFAULT_SETTINGS,
) -> int:
    """Composed chain time: sum of per-pair maxima (Eq. 1b/1c)."""
    total = 0
    for pair in pair_layers(layers):
        total += max(
            batch_cycles(layer.rows, layer.cols, layer.kernel, nbatch, settings)
            for layer in pair
        )
    return total


@dataclass(frozen=True)
class StageTimes:
    """Pipeline stage times for one small batch, in cycles."""

    temb: int
    tbot: int
    ttop: int
    nbatch: int
    flash_cycles: int  # the flash-read component of temb

    @property
    def interval(self) -> int:
        """Cycles between successive batch completions (pipelined)."""
        return max(self.temb, self.tbot, self.ttop, 1)

    @property
    def latency(self) -> int:
        """Fill latency of one batch through the pipeline.

        The bottom chain overlaps the embedding stage (that is the
        point of the intra-layer decomposition), so latency is the
        slower of the two front stages plus the top chain.
        """
        return max(self.temb, self.tbot) + self.ttop

    def throughput_qps(self, clock_hz: float) -> float:
        """Steady-state inferences per second."""
        return self.nbatch * clock_hz / self.interval


def embedding_flash_cycles(
    vectors: int,
    ev_size: int,
    read_bandwidth_vectors_per_cycle: float,
) -> int:
    """``M*N / bEV`` — flash-side embedding read time in cycles."""
    if read_bandwidth_vectors_per_cycle <= 0:
        raise ValueError("read bandwidth must be positive")
    return ceil(vectors / read_bandwidth_vectors_per_cycle)


def stage_times(
    model: DecomposedModel,
    nbatch: int,
    read_bandwidth_vectors_per_cycle: float,
    settings: FPGASettings = DEFAULT_SETTINGS,
) -> StageTimes:
    """Evaluate Eq. 1 for a kernel-assigned decomposed model."""
    for layer in model.all_layers():
        if layer.kernel is None:
            raise ValueError(f"layer {layer.name} has no kernel assigned")
    flash = nbatch * embedding_flash_cycles(
        model.vectors_per_inference, model.ev_size, read_bandwidth_vectors_per_cycle
    )
    temb = flash
    if model.emb is not None:
        temb = max(
            flash,
            batch_cycles(
                model.emb.rows, model.emb.cols, model.emb.kernel, nbatch, settings
            ),
        )
    tbot = chain_cycles(model.bottom, nbatch, settings) if model.bottom else 0
    ttop = chain_cycles(model.top, nbatch, settings) if model.top else 0
    return StageTimes(
        temb=temb, tbot=tbot, ttop=ttop, nbatch=nbatch, flash_cycles=flash
    )


def uncomposed_chain_cycles(
    layers: Sequence[LayerAssignment],
    nbatch: int,
    settings: FPGASettings = DEFAULT_SETTINGS,
) -> int:
    """Chain time *without* inter-layer composition (Fig. 9a).

    Every layer must drain before the next starts, so the chain costs
    the sum of all layer times — the baseline the composed design is
    compared against ("the time consumption of MLP can be reduced by
    half").
    """
    return sum(
        batch_cycles(layer.rows, layer.cols, layer.kernel, nbatch, settings)
        for layer in layers
    )
