"""Intra-layer decomposition (Section IV-C2, Fig. 8).

The first top-MLP layer ``L0`` consumes the concatenation of the
bottom-MLP output (width ``Rb``) and the pooled embeddings (width
``Re``).  Because concatenation fixes which weight rows belong to which
source, ``RC`` decomposes into ``Rb*C + Re*C``:

* ``Lb`` (``Rb x C``) is appended to the bottom chain — the paper's
  *new bottom MLP*;
* ``Le`` (``Re x C``) becomes the tail of the *new embedding layer*;
* the partial sums of ``Lb`` and ``Le`` are added elementwise before
  ``L1``, so neither source blocks the other.

The remaining top layers ``L1..`` form the *new top MLP* (indices start
at 1, matching Table V's ``Lt1``, ``Lt2``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.fpga.kernel import KernelSize

#: Layer placements (Rule One / Rule Two).
PLACEMENT_BRAM = "bram"
PLACEMENT_DRAM = "dram"


@dataclass
class LayerAssignment:
    """One FC layer in the remapped topology."""

    name: str
    rows: int  # R
    cols: int  # C
    placement: str = PLACEMENT_BRAM
    kernel: Optional[KernelSize] = None

    @property
    def weight_bytes(self) -> int:
        return self.rows * self.cols * 4

    @property
    def macs(self) -> int:
        return self.rows * self.cols

    def __repr__(self) -> str:
        kernel = str(self.kernel) if self.kernel else "?"
        return (
            f"LayerAssignment({self.name}: {self.rows}x{self.cols}, "
            f"{self.placement}, kernel={kernel})"
        )


@dataclass
class DecomposedModel:
    """The remapped ISC-RS topology of Fig. 8 (right side).

    ``bottom`` is the extended bottom chain (``Lb0.. + Lb``), ``emb``
    the embedding-side FC tail ``Le`` (``None`` for a model with no top
    MLP at all), ``top`` the shortened top chain (``Lt1..``).
    """

    name: str
    bottom: List[LayerAssignment]
    emb: Optional[LayerAssignment]
    top: List[LayerAssignment]
    num_tables: int
    lookups_per_table: int
    ev_size: int

    def all_layers(self) -> List[LayerAssignment]:
        layers = list(self.bottom)
        if self.emb is not None:
            layers.append(self.emb)
        layers.extend(self.top)
        return layers

    @property
    def vectors_per_inference(self) -> int:
        """``M * N``: flash vector reads per inference."""
        return self.num_tables * self.lookups_per_table


def decompose(
    name: str,
    bottom_shapes: Sequence[Tuple[int, int]],
    top_shapes: Sequence[Tuple[int, int]],
    embedding_out_dim: int,
    num_tables: int,
    lookups_per_table: int,
    ev_size: int,
) -> DecomposedModel:
    """Apply intra-layer decomposition to a model's FC shapes.

    ``bottom_shapes`` may be empty (NCF/WnD); then ``L0``'s non-
    embedding input width (dense pass-through or tower quirks) becomes
    the sole ``Lb`` layer, or is dropped entirely when zero.
    """
    if not top_shapes:
        raise ValueError("a recommendation model needs a top MLP")
    top0_rows, top0_cols = top_shapes[0]
    if embedding_out_dim > top0_rows:
        raise ValueError(
            f"embedding width {embedding_out_dim} exceeds top L0 input {top0_rows}"
        )
    rb = top0_rows - embedding_out_dim  # bottom-sourced rows of L0
    re = embedding_out_dim

    bottom_layers = [
        LayerAssignment(f"Lb{i}", rows, cols)
        for i, (rows, cols) in enumerate(bottom_shapes)
    ]
    if rb > 0:
        bottom_layers.append(LayerAssignment("Lb", rb, top0_cols))
    emb_layer = LayerAssignment("Le", re, top0_cols) if re > 0 else None
    top_layers = [
        LayerAssignment(f"Lt{j}", rows, cols)
        for j, (rows, cols) in enumerate(top_shapes[1:], start=1)
    ]
    return DecomposedModel(
        name=name,
        bottom=bottom_layers,
        emb=emb_layer,
        top=top_layers,
        num_tables=num_tables,
        lookups_per_table=lookups_per_table,
        ev_size=ev_size,
    )


def decompose_model(model, lookups_per_table: int) -> DecomposedModel:
    """Decompose any model exposing the ISC-mapping introspection API
    (``fc_shapes_bottom`` / ``fc_shapes_top`` / ``embedding_out_dim``).

    Models whose first FC layer consumes only part of the pooled
    embeddings (NCF's MLP tower sees two of the four tables) expose
    ``isc_embedding_width`` to override the decomposition split.
    """
    top_shapes = model.fc_shapes_top()
    emb_width = getattr(model, "isc_embedding_width", model.embedding_out_dim)
    emb_width = min(emb_width, top_shapes[0][0]) if top_shapes else emb_width
    return decompose(
        name=model.name,
        bottom_shapes=model.fc_shapes_bottom(),
        top_shapes=top_shapes,
        embedding_out_dim=emb_width,
        num_tables=len(model.tables),
        lookups_per_table=lookups_per_table,
        ev_size=model.tables.ev_size,
    )
