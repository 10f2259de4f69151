"""Tests for the on-SSD embedding layout and the EV Translator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding.layout import EmbeddingLayout
from repro.embedding.table import EmbeddingTableSet
from repro.embedding.translator import EVTranslator
from repro.sim import Simulator
from repro.sim.workspace import Workspace
from repro.ssd.blockdev import BlockDevice
from repro.ssd.controller import SSDController
from repro.ssd.geometry import SSDGeometry


def make_device(max_extent_pages=None):
    geo = SSDGeometry(
        channels=4,
        dies_per_channel=2,
        planes_per_die=2,
        blocks_per_plane=32,
        pages_per_block=32,
    )
    return BlockDevice(SSDController(Simulator(), geo), max_extent_pages=max_extent_pages)


def build(max_extent_pages=None, num_tables=2, rows=100, dim=32):
    device = make_device(max_extent_pages)
    tables = EmbeddingTableSet.uniform(num_tables, rows, dim, seed=11)
    layout = EmbeddingLayout(device, tables)
    layout.create_all()
    return device, tables, layout


class TestLayout:
    def test_vectors_never_straddle_pages(self):
        _, tables, layout = build(dim=32)
        tl = layout.layout_for(0)
        for index in range(tables[0].rows):
            offset = tl.vector_file_offset(index)
            assert offset // 4096 == (offset + tables.ev_size - 1) // 4096

    def test_dense_packing_for_power_of_two(self):
        _, _, layout = build(dim=32)  # 128 B vectors, 32 per page
        tl = layout.layout_for(0)
        assert tl.slots_per_page == 32
        assert tl.vector_file_offset(31) == 31 * 128
        assert tl.vector_file_offset(32) == 4096

    def test_rows_written_correctly(self):
        device, tables, layout = build()
        tl = layout.layout_for(1)
        for index in [0, 31, 32, 99]:
            data = device.read_file(
                tl.handle.name, tl.vector_file_offset(index), tables.ev_size
            )
            assert data == tables[1].row_bytes(index)

    def test_oversized_vector_rejected(self):
        device = make_device()
        tables = EmbeddingTableSet.uniform(1, 10, dim=2048)  # 8 KB vector
        with pytest.raises(ValueError):
            EmbeddingLayout(device, tables)

    def test_extent_ranges_cover_all_indices_contiguously(self):
        _, tables, layout = build(max_extent_pages=1)
        for table_id in range(len(tables)):
            ranges = layout.layout_for(table_id).extent_ranges
            assert ranges[0].first_index == 0
            for a, b in zip(ranges, ranges[1:]):
                assert b.first_index == a.last_index + 1
            assert ranges[-1].last_index == tables[table_id].rows - 1

    def test_metadata_export(self):
        _, tables, layout = build()
        meta = layout.metadata()
        assert set(meta.keys()) == {0, 1}
        assert meta[0][0].start_lba == layout.layout_for(0).handle.extents[0].start_lba


class TestTranslator:
    def _translator(self, layout, tables):
        return EVTranslator.for_layout(layout, page_size=4096)

    def test_translation_matches_layout(self):
        device, tables, layout = build()
        translator = self._translator(layout, tables)
        for table_id in range(len(tables)):
            for index in [0, 1, 50, 99]:
                read = translator.translate(table_id, index)
                assert read.device_offset == layout.device_offset(table_id, index)
                assert read.size == tables.ev_size

    def test_translation_with_fragmented_extents(self):
        device, tables, layout = build(max_extent_pages=1)
        translator = self._translator(layout, tables)
        for index in range(tables[0].rows):
            read = translator.translate(0, index)
            assert read.device_offset == layout.device_offset(0, index)

    def test_translated_reads_return_correct_vectors(self):
        device, tables, layout = build(max_extent_pages=2)
        translator = self._translator(layout, tables)
        for table_id, index in [(0, 7), (1, 64), (0, 99)]:
            read = translator.translate(table_id, index)
            data = device.controller.peek_logical(read.device_offset, read.size)
            restored = np.frombuffer(data, dtype=np.float32)
            assert np.array_equal(restored, tables[table_id].row(index))

    def test_unregistered_table_raises(self):
        translator = EVTranslator(page_size=4096)
        with pytest.raises(KeyError):
            translator.translate(0, 0)

    def test_out_of_range_index_raises(self):
        _, tables, layout = build()
        translator = self._translator(layout, tables)
        with pytest.raises(IndexError):
            translator.translate(0, tables[0].rows)

    def test_batch_translation(self):
        _, tables, layout = build()
        translator = self._translator(layout, tables)
        offsets = translator.translate_array(0, [1, 2, 3], Workspace())
        assert offsets.tolist() == [
            translator.translate(0, index).device_offset for index in [1, 2, 3]
        ]

    def test_translation_cycles_linear(self):
        translator = EVTranslator(page_size=4096)
        assert translator.translation_cycles(80) == 80 * EVTranslator.CYCLES_PER_LOOKUP

    @settings(max_examples=50, deadline=None)
    @given(index=st.integers(min_value=0, max_value=99))
    def test_translation_roundtrip_property(self, index):
        device, tables, layout = build(max_extent_pages=3)
        translator = self._translator(layout, tables)
        read = translator.translate(1, index)
        data = device.controller.peek_logical(read.device_offset, read.size)
        assert np.array_equal(
            np.frombuffer(data, dtype=np.float32), tables[1].row(index)
        )
