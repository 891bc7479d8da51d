"""Integration tests: every experiment module renders end to end.

These run the table/figure generators at reduced scale and assert the
structural claims their reports encode (not just "returns a string").
"""

import numpy as np
import pytest

from repro import config
from repro.bench.experiments import fig3, fig8, fig9, fig11, table3, table4

needs_compiled_backend = pytest.mark.skipif(
    config.runtime.backend == "numpy",
    reason="compiled-kernel performance claim; NumPy fallback forced",
)


class TestTable3:
    def test_model_scorer_renders_both_rows(self):
        out = table3.run(
            dataset="clinical-small",
            scorer="model",
            s_vvec_grid=(8, 16),
            s_imgb_grid=(8, 16),
            s_vxg_grid=(1, 2),
        )
        assert "ours:host" in out and "paper:skl" in out
        assert out.count("cscv-z") >= 2 and out.count("cscv-m") >= 2


class TestTable4:
    @pytest.mark.slow
    def test_single_precision_full_row_set(self):
        out = table4.run(dataset_names=["clinical-small"], dtype=np.float32,
                         iterations=5)
        for name in table4.SINGLE_FORMATS:
            assert name in out
        assert "85.48" in out  # the paper's CSCV-M column is printed

    @needs_compiled_backend
    def test_speedup_summary_headline(self):
        s = table4.speedup_summary(dataset_name="clinical-small")
        assert s["cscv_best"] > 0
        assert s["vs_mkl_csr"] > 0.5  # CSCV competitive with vendor CSR
        assert s["second_name"] not in ("cscv-z", "cscv-m")


class TestFig3:
    def test_layout_rendering_contains_all_pixels(self):
        out = fig3.run(pixels=((5, 5), (7, 7)))
        assert "pixel (5, 5)" in out and "pixel (7, 7)" in out
        assert "padding" in out


class TestFig8:
    def test_monotone_trends_in_sweep(self):
        points = fig8.sweep(
            dataset="clinical-small",
            s_vvec_grid=(4, 8),
            s_imgb_grid=(8, 16),
            s_vxg_grid=(1, 2),
        )
        assert len(points) == 8
        # R_nnzE monotone in s_vvec at fixed (imgb, vxg)
        by_key = {
            (p.params.s_vvec, p.params.s_imgb, p.params.s_vxg): p.r_nnze
            for p in points
        }
        assert by_key[(8, 8, 1)] >= by_key[(4, 8, 1)]
        assert by_key[(8, 16, 1)] >= by_key[(8, 8, 1)]
        assert by_key[(8, 8, 2)] >= by_key[(8, 8, 1)]
        # CSCV-M trades the padding zeros for a uint32 mask per VxG slot
        # and an int64 offset per VxG: its bytes relative to CSCV-Z fall
        # as s_vvec and s_vxg grow, and undercut Z at s_vvec=8, s_vxg=2
        ratio = {
            (p.params.s_vvec, p.params.s_imgb, p.params.s_vxg):
                p.memory_m / p.memory_z
            for p in points
        }
        for imgb in (8, 16):
            assert ratio[(8, imgb, 1)] < ratio[(4, imgb, 1)]
            assert ratio[(8, imgb, 2)] < ratio[(4, imgb, 2)]
            assert ratio[(4, imgb, 2)] < ratio[(4, imgb, 1)]
            assert ratio[(8, imgb, 2)] < ratio[(8, imgb, 1)]
            assert ratio[(8, imgb, 2)] < 1.0

    def test_render(self):
        out = fig8.run(dataset="clinical-small")
        assert "R_nnzE" in out and "memory CSCV-M" in out


class TestFig9:
    def test_annotated_cells(self):
        out = fig9.run(
            dataset="clinical-small",
            s_vvec_grid=(8,),
            s_imgb_grid=(8, 16),
            s_vxg_grid=(1, 2),
            iterations=3,
        )
        assert "CSCV-Z host" in out and "CSCV-M host" in out
        assert "(1)" in out or "(2)" in out  # chosen S_VxG annotation


class TestFig11:
    def test_reasons_reproduced(self):
        out = fig11.run(dataset="clinical-small", iterations=5)
        assert "reason 1" in out and "reason 2" in out
        assert "cscv-m" in out

    def test_cscv_m_lowest_traffic(self):
        from repro.api import build_format
        from repro.bench.datasets import get_dataset
        from repro.core.params import PAPER_TABLE3
        from repro.sparse.stats import memory_requirement

        coo, geom = get_dataset("clinical-small").load(dtype=np.float32)
        params = {"cscv-m": PAPER_TABLE3[("skl", "cscv-m", "single")]}
        mems = {}
        for name in ("cscv-m", "mkl-csr", "csr", "merge"):
            fmt = build_format(name, coo, geom=geom, params=params.get(name))
            mems[name] = memory_requirement(fmt)["M_rit"]
        assert mems["cscv-m"] == min(mems.values())
