"""Tests for the kernel search algorithm against Table V."""

import pytest

from repro.core.device import operating_point
from repro.fpga.decompose import PLACEMENT_BRAM, PLACEMENT_DRAM, decompose_model
from repro.fpga.kernel import KernelSize
from repro.fpga.search import default_kernels
from repro.fpga.specs import FPGASettings, XC7A200T
from repro.models import build_model, get_config


def run_search(config_key):
    config = get_config(config_key)
    model = build_model(config, rows_per_table=16)
    return operating_point(model, config.lookups_per_table)


class TestTableV:
    """Table V: kernel sizes chosen for each layer."""

    def test_rmc1_matches_table_v(self):
        result = run_search("rmc1")
        kernels = {name: str(k) for name, k in result.kernels.items()}
        assert kernels == {
            "Lb0": "4x2",
            "Lb1": "2x4",
            "Lb": "4x2",
            "Le": "4x2",
            "Lt1": "2x4",
            "Lt2": "4x1",
        }
        assert result.nbatch == 1
        assert result.feasible

    def test_rmc2_matches_table_v(self):
        # Table V gives RMC1 and RMC2 the same kernel row.
        result = run_search("rmc2")
        kernels = {name: str(k) for name, k in result.kernels.items()}
        assert kernels == {
            "Lb0": "4x2",
            "Lb1": "2x4",
            "Lb": "4x2",
            "Le": "4x2",
            "Lt1": "2x4",
            "Lt2": "4x1",
        }

    def test_rmc3_matches_table_v(self):
        result = run_search("rmc3")
        kernels = {name: str(k) for name, k in result.kernels.items()}
        # Rule Two pins the 10 MB first layer to the DRAM kernel 16x8;
        # the rest follow Table V's row for RMC3.
        assert kernels == {
            "Lb0": "16x8",
            "Lb1": "8x2",
            "Lb2": "2x4",
            "Lb": "4x2",
            "Le": "4x2",
            "Lt1": "2x4",
            "Lt2": "4x1",
        }

    def test_rmc3_first_layer_spilled_to_dram(self):
        result = run_search("rmc3")
        placements = {l.name: l.placement for l in result.model.all_layers()}
        assert placements["Lb0"] == PLACEMENT_DRAM
        assert all(
            p == PLACEMENT_BRAM for name, p in placements.items() if name != "Lb0"
        )

    def test_rmc1_rmc2_stay_fully_on_chip(self):
        for key in ("rmc1", "rmc2"):
            result = run_search(key)
            assert all(
                l.placement == PLACEMENT_BRAM for l in result.model.all_layers()
            )


class TestEq2Objective:
    """Eq. 2: the MLP stages must hide under the embedding stage."""

    def test_mlp_stages_fit_under_temb(self):
        for key in ("rmc1", "rmc2", "rmc3", "ncf", "wnd"):
            result = run_search(key)
            assert result.feasible, key
            assert result.times.tbot <= result.times.temb, key
            assert result.times.ttop <= result.times.temb, key

    def test_embedding_dominated_models_need_no_batching(self):
        assert run_search("rmc1").nbatch == 1
        assert run_search("rmc2").nbatch == 1

    def test_mlp_dominated_model_escalates_batch(self):
        # Rule Three: RMC3's DRAM-streamed first layer exceeds the
        # 200-vector embedding time, so Nbatch must grow.
        result = run_search("rmc3")
        assert result.nbatch > 1
        assert result.nbatch <= 16

    def test_scan_chain_constraint_eq3(self):
        # kc_i >= kr_{i+1} along every chain.
        for key in ("rmc1", "rmc2", "rmc3"):
            result = run_search(key)
            for chain in (result.model.bottom, result.model.top):
                for a, b in zip(chain, chain[1:]):
                    assert a.kernel.kc >= b.kernel.kr, (key, a.name, b.name)

    def test_kce_equals_kcb(self):
        # Eq. 3's second constraint: Le and Lb feed Lt1 at one rate.
        for key in ("rmc1", "rmc2", "rmc3"):
            result = run_search(key)
            lb = result.model.bottom[-1]
            le = result.model.emb
            assert le.kernel.kc == lb.kernel.kc, key

    def test_min_area_constraint_eq4(self):
        # Non-final layers keep kr*kc >= II for the reuse pipeline.
        for key in ("rmc1", "rmc2", "rmc3"):
            result = run_search(key)
            layers = result.model.all_layers()
            for layer in layers[:-1]:
                assert layer.kernel.area >= 8, (key, layer.name)

    def test_search_is_deterministic(self):
        a = run_search("rmc3").kernels
        b = run_search("rmc3").kernels
        assert a == b


class TestResourceEfficiency:
    def test_optimized_cheaper_than_default(self):
        for key in ("rmc1", "rmc2", "rmc3"):
            config = get_config(key)
            optimized = run_search(key).resources

            model = build_model(config, rows_per_table=16)
            dec = decompose_model(model, config.lookups_per_table)
            if key == "rmc3":
                default_kernels(dec, kernel_area_log2=6,
                                first_bottom_kernel=KernelSize(16, 8))
            else:
                default_kernels(dec, kernel_area_log2=8)
            from repro.fpga.resources import engine_resources

            default = engine_resources(dec)
            assert optimized.lut < default.lut, key
            assert optimized.dsp < default.dsp, key

    def test_rmc12_optimized_fits_low_end_part(self):
        for key in ("rmc1", "rmc2"):
            assert XC7A200T.fits(run_search(key).resources), key

    def test_rmc3_default_does_not_fit_low_end_part(self):
        config = get_config("rmc3")
        model = build_model(config, rows_per_table=16)
        dec = decompose_model(model, config.lookups_per_table)
        default_kernels(dec, kernel_area_log2=6, first_bottom_kernel=KernelSize(16, 8))
        from repro.fpga.resources import engine_resources

        assert not XC7A200T.fits(engine_resources(dec))

    def test_total_area_small_for_rmc1(self):
        # 5 layers at the II minimum plus a 4-wide final layer.
        result = run_search("rmc1")
        assert result.total_kernel_area == 5 * 8 + 4
