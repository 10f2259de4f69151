"""The batched EV translation against its scalar reference.

``EVTranslator.translate_array`` resolves a whole lookup stream, every
table at once, from translator-wide extent arrays; ``translate``
resolves one lookup from one table's extent list and shares no code
with it.  The differential drives both over generated layouts —
fragmented multi-extent tables with holes, heterogeneous row counts
and vector sizes (page tails included), tables registered out of id
order, empty, single-table and 32-table streams — and asks for equal
offsets on good streams and the scalar's exception on bad ones, named
at the batch's first offender.  The hostile tests pin the refusals of
unregistered table ids and non-integral addresses, on the translator,
the controller and the geometry, before any state moves.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.embedding.layout import ExtentRange
from repro.embedding.translator import EVTranslator
from repro.sim import Simulator
from repro.sim.workspace import Workspace
from repro.ssd.controller import SSDController
from repro.ssd.geometry import SSDGeometry

PAGE_SIZE = 4096
#: At most this many extents per table (cuts + 1).
EXTENTS = 7
#: One table's draws, as one strategy built once: rows, vector size,
#: cut points (those below ``rows`` apply), which bounds are kept (a
#: bit each), the first extent's start LBA (the others' follow from it
#: by a fixed stride, wrapping) and the extents' registration order (a
#: rotation of the indices, maybe reversed; those below their count).
TABLE = st.tuples(
    st.integers(1, 300),
    st.sampled_from([64, 96, 128, 256, 1000, PAGE_SIZE]),
    st.sets(st.integers(1, 299), max_size=EXTENTS - 1),
    st.integers(0, 2**EXTENTS - 1),
    st.integers(0, 10_000).map(
        lambda lba: [(lba + 3_583 * k) % 10_001 for k in range(EXTENTS)]
    ),
    st.tuples(st.integers(0, EXTENTS - 1), st.booleans()).map(
        lambda turn: [(turn[0] + k) % EXTENTS for k in range(EXTENTS)][:: 1 - 2 * turn[1]]
    ),
)
#: Distinct table draws per layout; a larger layout cycles through them
#: under distinct ids.
SPECS = 4


@st.composite
def layouts(draw):
    """``(translator, tables)``: ``tables`` maps each registered id to
    ``(rows, covered rows, uncovered rows)``."""
    count = draw(st.sampled_from([1, 2, 5, 32]))
    ids = draw(st.permutations(range(count + draw(st.integers(0, 8)))))[:count]
    translator = EVTranslator(page_size=PAGE_SIZE)
    tables = {}
    specs = draw(st.lists(TABLE, min_size=min(count, SPECS), max_size=min(count, SPECS)))
    # ``ids`` is a permutation: tables are registered out of id order.
    for position, table_id in enumerate(ids):
        rows, ev_size, cut_set, keep, lbas, order = specs[position % len(specs)]
        cuts = sorted(cut for cut in cut_set if cut < rows)
        bounds = list(zip([0] + cuts, cuts + [rows]))
        kept = [b for bit, b in enumerate(bounds) if keep >> bit & 1] or [bounds[0]]
        extents = [
            ExtentRange(extent_id=number, first_index=first, last_index=end - 1, start_lba=lba)
            for number, ((first, end), lba) in enumerate(zip(kept, lbas))
        ]
        shuffled = [extents[at] for at in order if at < len(extents)]
        translator.register_table(table_id, shuffled, ev_size, rows)
        covered = [row for first, end in kept for row in range(first, end)]
        uncovered = sorted(set(range(rows)) - set(covered))
        tables[table_id] = (rows, covered, uncovered)
    return translator, tables


@st.composite
def good_streams(draw, tables):
    """Covered lookups only: one table, or any mix of them.  The stream
    is one list draw of positions into the chosen tables' covered
    ``(table, row)`` pairs."""
    ids = sorted(tables)
    if draw(st.booleans()):
        ids = [draw(st.sampled_from(ids))]
    pairs = [(table_id, row) for table_id in ids for row in tables[table_id][1]]
    length = draw(st.sampled_from([0, 1, 7, 200]))
    positions = st.integers(0, len(pairs) - 1)
    return [pairs[at] for at in draw(st.lists(positions, min_size=length, max_size=length))]


def bad_lookups(draw, tables, kind):
    """One lookup ``translate`` refuses, of the given kind."""
    table_id = draw(st.sampled_from(sorted(tables)))
    rows, _, uncovered = tables[table_id]
    if kind == "table":
        unregistered = [t for t in range(-3, max(tables) + 6) if t not in tables]
        return draw(st.sampled_from(unregistered)), 0
    if kind == "row":
        return table_id, draw(st.sampled_from([-1, -(2**40), rows, rows + 7, 2**40]))
    if kind == "fraction":
        return table_id, draw(st.sampled_from([0.5, 1.25, -0.5])) + draw(st.integers(0, rows - 1))
    holed = [t for t in sorted(tables) if tables[t][2]]
    table_id = draw(st.sampled_from(holed))
    return table_id, draw(st.sampled_from(tables[table_id][2]))


def scalar_offsets(translator, stream):
    return [translator.translate(t, i).device_offset for t, i in stream]


def batched(translator, stream):
    tables = [t for t, _ in stream]
    indices = [i for _, i in stream]
    return translator.translate_array(tables, indices, Workspace())


class TestTranslatorDifferential:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_offsets_equal_scalar(self, data):
        translator, tables = data.draw(layouts())
        stream = data.draw(good_streams(tables))
        offsets = batched(translator, stream)
        assert offsets.dtype == np.int64
        assert offsets.tolist() == scalar_offsets(translator, stream)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bad_lookups_raise_the_scalar_error_at_the_first(self, data):
        translator, tables = data.draw(layouts())
        stream = data.draw(good_streams(tables))
        kind = data.draw(st.sampled_from(["table", "row", "fraction", "hole"]))
        assume(kind != "hole" or any(uncovered for _, _, uncovered in tables.values()))
        bad = [bad_lookups(data.draw, tables, kind) for _ in range(data.draw(st.integers(1, 3)))]
        for lookup in bad:
            stream.insert(data.draw(st.integers(0, len(stream))), lookup)
        first = next(lookup for lookup in stream if lookup in bad)
        with pytest.raises((KeyError, IndexError, RuntimeError)) as scalar:
            translator.translate(*first)
        with pytest.raises(scalar.type) as error:
            batched(translator, stream)
        if kind == "fraction":
            assert "indices must be int64 row numbers" in str(error.value)
            assert repr(first[1]) in str(error.value)
        else:
            assert str(error.value) == str(scalar.value)

    @pytest.mark.parametrize("tables", [0, [], np.zeros(0, dtype=np.int64)])
    def test_empty_stream(self, tables):
        translator = EVTranslator(page_size=PAGE_SIZE)
        translator.register_table(
            0, [ExtentRange(0, 0, 9, start_lba=3)], ev_size=128, rows=10
        )
        offsets = translator.translate_array(tables, [], Workspace())
        assert offsets.dtype == np.int64 and offsets.shape == (0,)
        with pytest.raises(KeyError, match="table 7 not registered"):
            translator.translate_array(7, [], Workspace())

    def test_hole_below_the_first_extent(self):
        """The search lands on another table's extent; it is a hole."""
        translator = EVTranslator(page_size=PAGE_SIZE)
        translator.register_table(
            0, [ExtentRange(0, 5, 9, start_lba=3)], ev_size=128, rows=10
        )
        translator.register_table(
            1, [ExtentRange(0, 4, 99, start_lba=30)], ev_size=128, rows=100
        )
        for lookup in [(0, 1), (1, 2)]:
            with pytest.raises(RuntimeError) as scalar:
                translator.translate(*lookup)
            with pytest.raises(RuntimeError) as error:
                batched(translator, [(1, 50), lookup])
            assert str(error.value) == str(scalar.value)

    def test_table_registered_after_a_batch_is_translated(self):
        translator = EVTranslator(page_size=PAGE_SIZE)
        translator.register_table(
            0, [ExtentRange(0, 0, 9, start_lba=3)], ev_size=128, rows=10
        )
        translator.translate_array(0, [1], Workspace())
        translator.register_table(
            2, [ExtentRange(0, 0, 4, start_lba=50)], ev_size=256, rows=5
        )
        stream = [(2, 4), (0, 9), (2, 0)]
        assert batched(translator, stream).tolist() == scalar_offsets(translator, stream)

    def test_earlier_check_wins_over_earlier_lookup(self):
        """A bad row ahead of an unregistered table still loses: table
        ids are checked before rows (a fractional row array included),
        rows before holes."""
        translator = EVTranslator(page_size=PAGE_SIZE)
        translator.register_table(
            0,
            [ExtentRange(0, 0, 3, start_lba=3), ExtentRange(1, 6, 9, start_lba=8)],
            ev_size=128,
            rows=10,
        )
        with pytest.raises(KeyError, match="table 4 not registered"):
            translator.translate_array([0, 0, 4], [4, 99, 0], Workspace())
        with pytest.raises(KeyError, match="table 5 not registered"):
            translator.translate_array([0, 5], [1.5, 0], Workspace())
        with pytest.raises(IndexError, match="indices must be int64 row numbers: got 1.5"):
            translator.translate_array([0, 0], [99, 1.5], Workspace())
        with pytest.raises(IndexError, match="index 99 out of range for table 0"):
            translator.translate_array([0, 0], [4, 99], Workspace())


@pytest.fixture
def translator():
    translator = EVTranslator(page_size=PAGE_SIZE)
    translator.register_table(
        0, [ExtentRange(0, 0, 99, start_lba=10)], ev_size=256, rows=100
    )
    return translator


class TestHostileAddresses:
    @pytest.mark.parametrize(
        "tables, name",
        [([0, 5, 0], 5), ([0, -1, 0], -1), ([0, 1, 0], 1), (5, 5), ([0.5, 0, 0], 0.5)],
    )
    def test_hostile_unregistered_table_refused(self, translator, tables, name):
        with pytest.raises(KeyError) as scalar:
            translator.translate(name, 2)
        with pytest.raises(KeyError) as error:
            translator.translate_array(tables, [1, 2, 3], Workspace())
        assert str(error.value) == str(scalar.value) == repr(f"table {name} not registered")

    @pytest.mark.parametrize("table_id", [-1, EVTranslator.TABLE_IDS, 10**9])
    def test_hostile_table_id_outside_the_handle_range_refused(self, translator, table_id):
        extents = [ExtentRange(0, 0, 9, start_lba=3)]
        with pytest.raises(ValueError, match=f"table id {table_id} outside"):
            translator.register_table(table_id, extents, ev_size=128, rows=10)
        with pytest.raises(KeyError, match=f"table {table_id} not registered"):
            translator.translate_array(table_id, [1], Workspace())

    @pytest.mark.parametrize("indices", [[1.5], [0, 1.5], np.array([2.0, 3.0]), ["1"]])
    def test_hostile_fractional_row_refused(self, translator, indices):
        with pytest.raises(IndexError, match="indices must be int64 row numbers"):
            translator.translate_array(0, indices, Workspace())
        with pytest.raises(IndexError, match="indices must be int64 row numbers"):
            translator.translate(0, indices[-1])

    def test_hostile_bool_rows_pass_as_integers(self, translator):
        offsets = translator.translate_array(0, [True, False], Workspace())
        assert offsets.tolist() == [
            translator.translate(0, True).device_offset,
            translator.translate(0, 0).device_offset,
        ]
        assert translator.translate(0, True) == translator.translate(0, 1)

    @pytest.mark.parametrize("offsets", [[4096.7], [0, 4096.5], np.array([8192.0])])
    def test_hostile_fractional_byte_offset_refused(self, offsets):
        controller = SSDController(Simulator())
        sanitizer = controller.ftl.sanitizer
        checks = None if sanitizer is None else sanitizer.checks
        with pytest.raises(ValueError, match="byte offsets must be int64"):
            controller.translate_vector_offsets(offsets, 256, Workspace())
        assert (None if sanitizer is None else sanitizer.checks) == checks

    def test_hostile_negative_and_straddling_offsets_refused(self):
        controller = SSDController(Simulator())
        with pytest.raises(ValueError, match="negative byte offset"):
            controller.translate_vector_offsets([4096, -256], 256, Workspace())
        with pytest.raises(ValueError, match="offset 4000 size 256 straddles"):
            controller.translate_vector_offsets([0, 4000, 8000], 256, Workspace())

    @pytest.mark.parametrize("pages", [[5.9], [1, 2.5], np.array([3.0]), [None]])
    def test_hostile_fractional_page_index_refused(self, pages):
        with pytest.raises(ValueError, match="page indices must be int64"):
            SSDGeometry().split_page_indices(pages, Workspace())

    def test_decoded_pages_match_the_scalar_decode(self):
        for geometry in (SSDGeometry(), SSDGeometry(channels=3, dies_per_channel=5)):
            pages = np.arange(0, geometry.total_pages, 997)
            channels, dies = geometry.split_page_indices(pages, Workspace())
            assert list(zip(channels.tolist(), dies.tolist())) == [
                geometry.channel_and_die(page) for page in pages.tolist()
            ]
            offsets = pages * geometry.page_size + 128
            controller = SSDController(Simulator(), geometry=geometry)
            located = controller.translate_vector_offsets(offsets, 128, Workspace())
            assert [array.tolist() for array in located] == [
                pages.tolist(), [128] * len(pages), channels.tolist(), dies.tolist()
            ]
