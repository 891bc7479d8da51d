"""Tests for autotuning, the top-level API, and matrix statistics."""

import numpy as np
import pytest

from repro.api import build_ct_matrix, build_format, spmv_all_formats
from repro.core.autotune import AutotuneResult, autotune_parameters, parameter_sweep
from repro.core.params import CSCVParams
from repro.errors import AutotuneError, ValidationError
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.sparse.csr import CSRMatrix
from repro.sparse.stats import (
    MatrixStats,
    column_bandwidth,
    effective_bandwidth_ratio,
    memory_requirement,
)


@pytest.fixture(scope="module")
def ct(fine_ct):
    return fine_ct


class TestParameterSweep:
    def test_structural_sweep(self, ct):
        coo, geom = ct
        points = parameter_sweep(
            coo, geom, s_vvec_grid=(4, 8), s_imgb_grid=(8, 16), s_vxg_grid=(1, 2),
        )
        assert len(points) == 8
        item = coo.dtype.itemsize
        for p in points:
            assert p.r_nnze >= 0
            # M drops the padding zeros and streams instead a uint32 mask
            # per VxG slot and an int64 packed offset per VxG
            num_vxg = (1 + p.r_nnze) * coo.nnz / p.params.vxg_len
            padding = p.r_nnze * coo.nnz * item
            overhead = num_vxg * (4 * p.params.s_vxg + 8)
            assert p.memory_m - p.memory_z == pytest.approx(overhead - padding)
            assert (p.memory_m <= p.memory_z) == (padding >= overhead)
            assert p.gflops_z is None  # measure=False

    def test_measured_sweep(self, ct):
        coo, geom = ct
        points = parameter_sweep(
            coo, geom, s_vvec_grid=(8,), s_imgb_grid=(8,), s_vxg_grid=(1,),
            measure=True, iterations=3,
        )
        assert points[0].gflops_z > 0 and points[0].gflops_m > 0


class TestAutotune:
    def test_model_scorer_deterministic(self, ct):
        coo, geom = ct
        kwargs = dict(
            scorer="model", s_vvec_grid=(4, 8), s_imgb_grid=(8, 16), s_vxg_grid=(1, 2),
        )
        a = autotune_parameters(coo, geom, **kwargs)
        b = autotune_parameters(coo, geom, **kwargs)
        assert a.best_z == b.best_z and a.best_m == b.best_m

    def test_model_scorer_m_prefers_low_memory(self, ct):
        coo, geom = ct
        res = autotune_parameters(
            coo, geom, scorer="model",
            s_vvec_grid=(4, 16), s_imgb_grid=(8,), s_vxg_grid=(1,),
        )
        mems = {p.params.s_vvec: p.memory_m for p in res.points}
        assert res.best_m.s_vvec == min(mems, key=mems.get)

    def test_result_table_rows(self, ct):
        coo, geom = ct
        res = autotune_parameters(
            coo, geom, scorer="model",
            s_vvec_grid=(4, 8), s_imgb_grid=(8,), s_vxg_grid=(1,),
        )
        rows = res.as_table_rows()
        assert len(rows) == 2 and rows[0][0] == "cscv-z"

    def test_unknown_scorer(self, ct):
        coo, geom = ct
        with pytest.raises(AutotuneError):
            autotune_parameters(coo, geom, scorer="oracle")


class TestTopLevelAPI:
    def test_build_ct_matrix_projectors(self):
        for projector in ("strip", "pixel"):
            coo, geom = build_ct_matrix(12, projector=projector)
            assert coo.shape == geom.shape
            assert coo.nnz > 0

    def test_build_ct_matrix_unknown_projector(self):
        with pytest.raises(ValidationError):
            build_ct_matrix(8, projector="fan")

    def test_build_format_plain(self, ct):
        coo, geom = ct
        fmt = build_format("csr", coo)
        assert isinstance(fmt, CSRMatrix)

    @pytest.mark.parametrize("knob", [{"reference_mode": "btb"},
                                      {"build_workers": 2}])
    def test_build_format_rejects_cscv_knobs_for_other_formats(self, ct, knob):
        from repro.core.format_z import CSCVMatrix
        from repro.sparse.matrix_base import available_formats, get_format

        coo, _ = ct
        names = [n for n in available_formats()
                 if not issubclass(get_format(n), CSCVMatrix)]
        assert len(names) == 15
        for name in names:
            with pytest.raises(ValidationError, match="unknown kwargs"):
                build_format(name, coo, **knob)

    def test_build_format_cscv_needs_geom(self, ct):
        coo, _ = ct
        with pytest.raises(ValidationError):
            build_format("cscv-z", coo)

    def test_build_format_cscv_with_params(self, ct):
        coo, geom = ct
        fmt = build_format("cscv-m", coo, geom=geom, params=CSCVParams(8, 8, 1))
        assert fmt.params.s_vvec == 8

    def test_spmv_all_formats_agree(self):
        geom = ParallelBeamGeometry.for_image(12, num_views=16)
        coo, geom = build_ct_matrix(12, geom=geom)
        x = np.linspace(0, 1, coo.shape[1])
        results = spmv_all_formats(coo, x, geom=geom)
        assert "cscv-z" in results and "csr" in results
        ref = results["csr"].astype(np.float64)
        for name, y in results.items():
            rel = np.abs(y.astype(np.float64) - ref).max() / np.abs(ref).max()
            assert rel < 1e-6, name

    def test_spmv_all_formats_skips_cscv_without_geom(self, ct):
        from repro.api import SkippedFormat

        coo, _ = ct
        results = spmv_all_formats(coo, np.ones(coo.shape[1]), formats=["csr", "cscv-z"])
        assert "csr" in results and "cscv-z" in results
        skip = results["cscv-z"]
        assert isinstance(skip, SkippedFormat) and not skip
        assert "geom=" in skip.reason
        assert results["csr"].shape == (coo.shape[0],)


class TestStats:
    def test_matrix_stats_basic(self, ct):
        coo, geom = ct
        st = MatrixStats.from_coo(coo.shape, coo.rows, coo.cols)
        assert st.nnz == coo.nnz
        assert st.row_nnz_mean == pytest.approx(coo.nnz / coo.shape[0])
        assert 0 < st.density < 1

    def test_p3_spread_axes(self, ct):
        coo, _ = ct
        st = MatrixStats.from_coo(coo.shape, coo.rows, coo.cols)
        assert st.p3_spread("col") >= 0
        assert st.p3_spread("row") >= 0
        with pytest.raises(ValueError):
            st.p3_spread("diag")

    def test_memory_requirement_composition(self, ct):
        coo, _ = ct
        csr = CSRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals)
        mem = memory_requirement(csr)
        assert mem["M_rit"] == mem["M_A"] + mem["M_x"] + mem["M_y"]
        assert mem["M_x"] == coo.shape[1] * csr.dtype.itemsize

    def test_effective_bandwidth_ratio(self, ct):
        coo, _ = ct
        csr = CSRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals)
        r = effective_bandwidth_ratio(csr, seconds=1.0, peak_bandwidth_gbs=100.0)
        assert r == pytest.approx(memory_requirement(csr)["M_rit"] / 1e11)
        with pytest.raises(ValueError):
            effective_bandwidth_ratio(csr, 0.0, 100.0)

    def test_column_bandwidth_ct_matrix_is_huge(self, ct):
        # a CT pixel is touched by every view -> bin-major row span ~ m
        coo, geom = ct
        span = column_bandwidth(coo.rows, coo.cols, coo.shape[1])
        occupied = span[span > 0]
        assert occupied.max() > 0.8 * coo.shape[0]

    def test_column_bandwidth_empty_columns_zero(self):
        span = column_bandwidth(np.array([0]), np.array([1]), 3)
        assert span[0] == 0 and span[2] == 0 and span[1] == 1
