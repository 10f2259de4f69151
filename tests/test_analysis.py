"""Tests for analysis helpers: metrics, report rendering, energy."""

import numpy as np
import pytest

from repro.analysis.energy import (
    EnergyBreakdown,
    EnergyModel,
    naive_ssd_energy,
    rmssd_energy,
)
from repro.analysis.metrics import (
    geometric_mean,
    latency_reduction,
    percentile,
    speedup,
    throughput_qps,
)
from repro.analysis.report import (
    Table,
    format_seconds,
    format_si,
    stage_breakdown_table,
)


class TestMetrics:
    def test_throughput(self):
        assert throughput_qps(1000, 1e9) == pytest.approx(1000.0)

    def test_throughput_invalid(self):
        with pytest.raises(ValueError):
            throughput_qps(1, 0)

    def test_speedup(self):
        assert speedup(100, 25) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            speedup(100, 0)

    def test_latency_reduction(self):
        assert latency_reduction(100, 3) == pytest.approx(0.97)
        with pytest.raises(ValueError):
            latency_reduction(0, 1)

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1, -1])

    def test_percentile_basics(self):
        values = [1, 2, 3, 4, 5]
        assert percentile(values, 0) == 1
        assert percentile(values, 50) == 3
        assert percentile(values, 100) == 5

    def test_percentile_interpolates(self):
        assert percentile([0, 10], 25) == pytest.approx(2.5)

    def test_percentile_single_value(self):
        assert percentile([7], 99) == 7

    def test_percentile_invalid(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_percentile_unsorted_input(self):
        assert percentile([5, 1, 3], 50) == 3

    def test_percentile_presorted_indexes_in_place(self):
        # presorted=True used to copy its input on every call; it now
        # reads two order statistics of whatever sequence it is given —
        # list, tuple or ndarray — with the result unchanged bit for bit.
        def copying(values, q):
            # The implementation this one replaced.
            values = list(values)
            if len(values) == 1:
                return values[0]
            position = (len(values) - 1) * q / 100.0
            lower = int(position)
            upper = min(lower + 1, len(values) - 1)
            fraction = position - lower
            return values[lower] * (1 - fraction) + values[upper] * fraction

        rng = np.random.default_rng(16)
        for size in (1, 2, 3, 10, 997):
            ordered = np.sort(rng.exponential(1e6, size=size))
            for q in (0, 0.1, 25, 50, 95, 99, 99.9, 100):
                expected = copying(ordered.tolist(), q)
                for values in (ordered, ordered.tolist(), tuple(ordered.tolist())):
                    got = percentile(values, q, presorted=True)
                    assert type(got) is float
                    assert got == expected  # lint: ok[R2]
        with pytest.raises(ValueError, match="empty sequence"):
            percentile(np.empty(0), 50, presorted=True)

    def test_percentile_presorted_does_not_copy(self):
        class NoCopy(list):
            def __iter__(self):
                raise AssertionError("presorted input was copied")

        assert percentile(NoCopy([1.0, 2.0, 4.0]), 50, presorted=True) == 2.0


class TestReport:
    def test_format_si(self):
        assert format_si(1_500_000) == "1.50M"
        assert format_si(2_000) == "2.00K"
        assert format_si(42) == "42"

    def test_format_seconds(self):
        assert format_seconds(2.5e9) == "2.50s"
        assert format_seconds(3.2e6) == "3.20ms"
        assert format_seconds(4.7e3) == "4.70us"
        assert format_seconds(500) == "500ns"

    def test_format_seconds_sub_nanosecond(self):
        # Per-cycle quantities at multi-GHz clocks are fractions of a
        # nanosecond; they must not round to "0ns".
        assert format_seconds(0.5) == "0.5ns"
        assert format_seconds(0.3125) == "0.312ns"
        assert format_seconds(0) == "0ns"

    def test_format_seconds_negative(self):
        assert format_seconds(-4.7e3) == "-4.70us"
        assert format_seconds(-0.5) == "-0.5ns"

    def test_table_renders_aligned(self):
        table = Table("Title", ["a", "bb"])
        table.add_row(1, "x")
        table.add_row(100, "yy")
        text = table.render()
        assert "Title" in text
        lines = text.splitlines()
        assert len({len(l) for l in lines[2:]}) <= 2  # header + rows align

    def test_table_wrong_cell_count(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_table_print(self, capsys):
        table = Table("t", ["col"])
        table.add_row("v")
        table.print()
        assert "col" in capsys.readouterr().out

    def test_stage_breakdown_sorted_with_shares(self):
        table = stage_breakdown_table(
            "t", {"emb": 3000.0, "top": 1000.0, "bot": 0.0}
        )
        rows = table.rows
        assert [row[0] for row in rows] == ["emb", "top", "bot", "(sum)"]
        assert rows[0][1:] == ["3.00us", "75.0%"]
        assert rows[1][2] == "25.0%"
        assert rows[-1] == ["(sum)", "4.00us", "100.0%"]

    def test_stage_breakdown_per_inference_column(self):
        table = stage_breakdown_table(
            "t", {"emb": 2000.0}, per_inference=4
        )
        assert table.columns == ["stage", "time", "share", "per-inference"]
        assert table.rows[0][3] == "500ns"

    def test_stage_breakdown_empty_total(self):
        table = stage_breakdown_table("t", {"emb": 0.0})
        assert table.rows[0][2] == "-"
        assert table.rows[-1][2] == "-"


class TestEnergy:
    def test_breakdown_total(self):
        breakdown = EnergyBreakdown(
            flash_nj=1, host_link_nj=2, compute_nj=3, static_nj=4
        )
        assert breakdown.total_nj == 10
        assert breakdown.total_uj == pytest.approx(0.01)
        assert breakdown.as_dict()["total"] == 10

    def test_vector_read_cheaper_on_bus_than_page(self):
        energy = EnergyModel()
        vector = energy.vector_read_energy_nj(100, 128)
        page = energy.flash_read_energy_nj(100, 100 * 4096)
        assert vector < page

    def test_rmssd_link_energy_tiny(self):
        rm = rmssd_energy(
            model_macs=100_000, vectors=640, ev_size=128,
            result_bytes=64, elapsed_s=1e-3,
        )
        ssd = naive_ssd_energy(
            model_macs=100_000, miss_pages=500, hit_bytes=100_000,
            ev_size=128, vectors=640, elapsed_s=20e-3,
        )
        assert rm.host_link_nj < ssd.host_link_nj / 100
        assert rm.total_nj < ssd.total_nj

    def test_static_power_scales_with_time(self):
        slow = rmssd_energy(1, 1, 128, 64, elapsed_s=1.0)
        fast = rmssd_energy(1, 1, 128, 64, elapsed_s=0.5)
        assert slow.static_nj == pytest.approx(2 * fast.static_nj)
