"""Tests for the flash translation layer."""

import pytest

from repro.ssd.ftl import FlashTranslationLayer, LinearMapping
from repro.ssd.geometry import SSDGeometry


@pytest.fixture
def geo():
    return SSDGeometry(
        channels=4,
        dies_per_channel=2,
        planes_per_die=1,
        blocks_per_plane=4,
        pages_per_block=8,
    )


class TestLinearMapping:
    def test_identity(self, geo):
        mapping = LinearMapping(geo)
        for lba in [0, 1, geo.total_pages - 1]:
            assert mapping.translate(lba) == lba

    def test_out_of_range_rejected(self, geo):
        mapping = LinearMapping(geo)
        with pytest.raises(ValueError):
            mapping.translate(geo.total_pages)
        with pytest.raises(ValueError):
            mapping.translate(-1)

    def test_map_write_is_identity(self, geo):
        mapping = LinearMapping(geo)
        assert mapping.map_write(17) == 17


class TestFacade:
    def test_default_is_linear(self, geo):
        ftl = FlashTranslationLayer(geo)
        assert ftl.translate(9) == 9

    def test_byte_address_translation(self, geo):
        ftl = FlashTranslationLayer(geo)
        physical, col = ftl.translate_byte_address(2 * 4096 + 300)
        assert physical == 2
        assert col == 300

    def test_lookup_cycles_default(self, geo):
        assert FlashTranslationLayer(geo).lookup_cycles == 8
