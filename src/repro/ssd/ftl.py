"""Flash Translation Layer.

Translates logical block addresses (LBAs, in units of logical pages) to
physical page indices.  The paper's prototype "applies the linear
mapping function in the FTL design, and each page's data are scattered
around the four DDR4 chips for higher throughput" — that scattering is
exactly what :class:`repro.ssd.geometry.SSDGeometry`'s channel-major
page numbering provides, so :class:`LinearMapping` is the identity on
page numbers.

The FTL is shared between the conventional block I/O path and the
embedding-vector path; the controller arbitrates between them with a
round-robin MUX (Section IV-B2).  Each translation costs a small fixed
number of cycles.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ssd.geometry import SSDGeometry


class LinearMapping:
    """Identity LBA->PBA mapping (the prototype's choice)."""

    def __init__(self, geometry: SSDGeometry) -> None:
        self.geometry = geometry

    def translate(self, lba: int) -> int:
        if not 0 <= lba < self.geometry.total_pages:
            raise ValueError(f"LBA {lba} out of device range")
        return lba

    def translate_array(self, lbas) -> np.ndarray:
        """Batched :meth:`translate`: ``lbas`` itself, after a bounds check."""
        lbas = np.asarray(lbas, dtype=np.int64)
        if lbas.size:
            bounds = (lbas < 0) | (lbas >= self.geometry.total_pages)
            if bounds.any():
                raise ValueError(f"LBA {int(lbas[bounds][0])} out of device range")
        return lbas

    def map_write(self, lba: int) -> int:
        return self.translate(lba)


class FlashTranslationLayer:
    """FTL facade: a mapping policy plus a translation cost.

    ``lookup_cycles`` models the pipeline stage the translation takes in
    the controller; the EV path pre-scans table metadata so its
    translation is cheap (Fig. 6 step 1).
    """

    def __init__(
        self,
        geometry: SSDGeometry,
        mapping: Optional[object] = None,
        lookup_cycles: int = 8,
    ) -> None:
        self.geometry = geometry
        self.mapping = mapping if mapping is not None else LinearMapping(geometry)
        self.lookup_cycles = lookup_cycles
        #: Sanitizer-mode L2P checks; attached by the owning controller.
        self.sanitizer = None

    def attach_sanitizer(self, sanitizer) -> None:
        """Enable L2P injectivity/bounds checks on every translation."""
        self.sanitizer = sanitizer

    def _check(self, lba: int, physical: int) -> int:
        if self.sanitizer is not None:
            self.sanitizer.on_translate(
                lba, physical, self.geometry.total_pages,
                component=type(self.mapping).__name__,
            )
        return physical

    def translate(self, lba: int) -> int:
        """LBA (logical page number) -> physical page index."""
        return self._check(lba, self.mapping.translate(lba))

    def translate_array(self, lbas) -> np.ndarray:
        """Batched translation for the vectorized lookup fast path,
        through the mapping's own array method."""
        lbas = np.asarray(lbas, dtype=np.int64)
        physical = self.mapping.translate_array(lbas)
        if self.sanitizer is not None:
            self.sanitizer.on_translate_array(
                lbas, physical, self.geometry.total_pages,
                component=type(self.mapping).__name__,
            )
        return physical

    def map_write(self, lba: int) -> int:
        return self._check(lba, self.mapping.map_write(lba))

    def translate_byte_address(self, byte_offset: int) -> tuple:
        """Byte offset in logical space -> ``(physical_page, col)``."""
        lba, col = self.geometry.byte_to_page(byte_offset)
        return self.translate(lba), col
