"""SSD substrate: flash array, FTL, controllers, timing, vector cache.

This package implements the emulated SSD of the paper's Section V: a
flash array organized as channels x dies x planes x blocks x pages with
the Table II timing model, a flash translation layer, a controller
whose flash reads are page- or vector-grained (FMC and EV-FMC), the
controller-DRAM vector cache (whose LRU also runs the host-side
baselines' page and vector caches), and I/O traffic accounting.
"""

from repro.ssd.blockdev import BlockDevice
from repro.ssd.controller import SSDController
from repro.ssd.flash import FlashArray
from repro.ssd.ftl import FlashTranslationLayer, LinearMapping
from repro.ssd.geometry import PhysicalAddress, SSDGeometry
from repro.ssd.stats import IOSnapshot, IOStatistics
from repro.ssd.timing import SSDTimingModel
from repro.ssd.vcache import VectorCache

__all__ = [
    "BlockDevice",
    "FlashArray",
    "FlashTranslationLayer",
    "IOSnapshot",
    "IOStatistics",
    "LinearMapping",
    "PhysicalAddress",
    "SSDController",
    "SSDGeometry",
    "SSDTimingModel",
    "VectorCache",
]
