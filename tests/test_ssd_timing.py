"""Tests for the Table II timing model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ssd.timing import SSDTimingModel


@pytest.fixture
def timing():
    return SSDTimingModel()


class TestTableIIConstants:
    """The paper's published constants must fall out of the formulas."""

    def test_cycle_is_5ns_at_200mhz(self, timing):
        assert timing.cycle_ns == pytest.approx(5.0)

    def test_cpage_is_4000_cycles(self, timing):
        assert timing.page_read_cycles == pytest.approx(4000)

    def test_flush_is_2800_cycles(self, timing):
        # 0.7 * 4000 (the 7:3 flush:transfer split).
        assert timing.flush_cycles == pytest.approx(2800)

    def test_transfer_is_1200_cycles(self, timing):
        assert timing.transfer_cycles == pytest.approx(1200)

    def test_cev_formula_matches_table_ii(self, timing):
        # Table II: CEV = 0.293 * EVsize + 2800 cycles.
        for ev_size in [64, 128, 256, 1024]:
            expected = 0.29296875 * ev_size + 2800
            assert timing.vector_read_cycles(ev_size) == pytest.approx(expected)

    def test_cev_128b_example(self, timing):
        # A dim-32 fp32 vector is 128 B: CEV ~ 2837.5 cycles ~ 14.2 us.
        assert timing.vector_read_cycles(128) == pytest.approx(2837.5)
        assert timing.vector_read_ns(128) == pytest.approx(14187.5)

    def test_page_read_is_20us(self, timing):
        assert timing.page_read_ns == pytest.approx(20000.0)


class TestVectorReadBehaviour:
    def test_vector_read_cheaper_than_page_read(self, timing):
        assert timing.vector_read_ns(128) < timing.page_read_ns

    def test_full_page_vector_read_equals_page_read(self, timing):
        assert timing.vector_read_cycles(4096) == pytest.approx(
            timing.page_read_cycles
        )

    @given(ev_size=st.integers(min_value=1, max_value=4096))
    def test_monotone_in_vector_size(self, ev_size):
        timing = SSDTimingModel()
        smaller = timing.vector_read_cycles(ev_size)
        assert smaller <= timing.vector_read_cycles(4096) + 1e-9
        assert smaller >= timing.flush_cycles

    def test_invalid_sizes_rejected(self, timing):
        with pytest.raises(ValueError):
            timing.vector_read_cycles(0)
        with pytest.raises(ValueError):
            timing.vector_read_cycles(4097)

    def test_transfer_portion_scales_linearly(self, timing):
        assert timing.vector_transfer_cycles(2048) == pytest.approx(
            timing.transfer_cycles / 2
        )


class TestDerived:
    def test_qd1_random_read_iops_near_45k(self, timing):
        # Table II reports 45K IOPS for 4K random reads; at queue depth
        # one the device is latency-bound to ~1 / (Tpage + overhead).
        iops = timing.random_read_iops_bound(channels=1)
        assert 40_000 < iops < 50_000

    def test_iops_scales_with_channels(self, timing):
        assert timing.random_read_iops_bound(channels=4) == pytest.approx(
            4 * timing.random_read_iops_bound(channels=1)
        )

    def test_cycle_conversions_roundtrip(self, timing):
        assert timing.ns_to_cycles(timing.cycles_to_ns(123.0)) == pytest.approx(123.0)

    def test_invalid_flush_fraction(self):
        with pytest.raises(ValueError):
            SSDTimingModel(flush_fraction=1.5)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "name, value",
    [
        ("page_read_us", NAN), ("page_read_us", INF), ("page_read_us", 0.0),
        ("clock_hz", NAN), ("clock_hz", INF), ("clock_hz", -1.0),
        ("request_overhead_cycles", -5), ("request_overhead_cycles", NAN),
        ("request_overhead_cycles", INF),
        ("page_program_us", -1.0), ("page_program_us", NAN),
        ("page_program_us", INF),
        ("flush_fraction", NAN), ("page_size", 0),
    ],
)
def test_hostile_timing_parameter_is_named(name, value):
    # The flash array and controller read their latencies once, from
    # this object, so its constructor is the boundary.  clock_hz=inf
    # used to raise a raw ZeroDivisionError; the rest were accepted.
    with pytest.raises(ValueError, match=name):
        SSDTimingModel(**{name: value})


@pytest.mark.parametrize(
    "kwargs", [dict(page_read_us=1e306), dict(clock_hz=1e-305)]
)
def test_hostile_timing_overflow_is_refused(kwargs):
    # Finite parameters whose ns conversion overflows (or turns NaN).
    with pytest.raises(ValueError, match="overflows"):
        SSDTimingModel(**kwargs)


def test_zero_overhead_is_allowed():
    overhead_ns = SSDTimingModel(request_overhead_cycles=0).request_overhead_ns
    assert overhead_ns == pytest.approx(0.0, abs=0)


class TestExplicitNsAccessors:
    def test_page_read_ns_matches_us_field(self, timing):
        assert timing.page_read_ns == pytest.approx(timing.page_read_us * 1e3)

    def test_page_program_ns_matches_us_field(self, timing):
        assert timing.page_program_ns == pytest.approx(
            timing.page_program_us * 1e3
        )

    def test_program_ns_alias_is_deprecated(self, timing):
        with pytest.warns(DeprecationWarning, match="page_program_ns"):
            value = timing.program_ns
        assert value == pytest.approx(timing.page_program_ns)
