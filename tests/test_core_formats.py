"""Tests for the CSCV-Z / CSCV-M execution formats: SpMV correctness,
transpose, memory model, threading, ``out=`` validation — under both backends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import build_ct_matrix
from repro.core.builder import build_cscv
from repro.core.format_m import CSCVMMatrix
from repro.core.format_z import CSCVZMatrix
from repro.core.params import CSCVParams
from repro.core.spmv import product
from repro.errors import ValidationError
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


@pytest.fixture(scope="module")
def setup(fine_ct):
    coo, geom = fine_ct
    csr = CSRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals)
    rng = np.random.default_rng(7)
    x = rng.random(coo.shape[1]).astype(np.float32)
    y_ref = csr.spmv(x)
    return coo, geom, x, y_ref


PARAM_GRID = [
    CSCVParams(4, 8, 1),
    CSCVParams(8, 8, 2),
    CSCVParams(8, 16, 4),
    CSCVParams(16, 16, 2),
    CSCVParams(16, 12, 3),
    CSCVParams(32, 8, 1),
    CSCVParams(1, 4, 1),
    CSCVParams(5, 7, 2),   # non-power-of-two everything
]


@pytest.mark.parametrize("params", PARAM_GRID, ids=str)
class TestSpMVCorrectness:
    def test_z_matches_csr(self, setup, params, backend):
        coo, geom, x, y_ref = setup
        z = CSCVZMatrix.from_ct(coo, geom, params)
        rel = np.abs(z.spmv(x) - y_ref).max() / np.abs(y_ref).max()
        assert rel < 5e-6

    def test_m_matches_csr(self, setup, params, backend):
        coo, geom, x, y_ref = setup
        m = CSCVMMatrix.from_ct(coo, geom, params)
        rel = np.abs(m.spmv(x) - y_ref).max() / np.abs(y_ref).max()
        assert rel < 5e-6


class TestSharedData:
    def test_z_and_m_share_arrays(self, setup):
        coo, geom, x, _ = setup
        z = CSCVZMatrix.from_ct(coo, geom, CSCVParams(8, 8, 2))
        m = CSCVMMatrix(z.data)
        assert m.data is z.data
        np.testing.assert_allclose(z.spmv(x), m.spmv(x), rtol=1e-6)

    def test_r_nnze_identical(self, setup):
        coo, geom, _, _ = setup
        z = CSCVZMatrix.from_ct(coo, geom, CSCVParams(8, 8, 2))
        m = CSCVMMatrix(z.data)
        assert z.r_nnze == m.r_nnze


class TestDoublePrecision:
    def test_f64_exact_vs_csr(self, fine_ct, backend):
        coo32, geom = fine_ct
        coo = coo32.astype(np.float64)
        rng = np.random.default_rng(3)
        x = rng.random(coo.shape[1])
        y_ref = CSRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals).spmv(x)
        for cls in (CSCVZMatrix, CSCVMMatrix):
            fmt = cls.from_ct(coo, geom, CSCVParams(8, 8, 2))
            np.testing.assert_allclose(fmt.spmv(x), y_ref, rtol=1e-12, atol=1e-12)


class TestTranspose:
    def test_z_transpose(self, setup):
        coo, geom, _, _ = setup
        z = CSCVZMatrix.from_ct(coo, geom, CSCVParams(8, 8, 2))
        rng = np.random.default_rng(5)
        y = rng.random(coo.shape[0]).astype(np.float32)
        expected = coo.to_dense().T.astype(np.float64) @ y.astype(np.float64)
        got = z.transpose_spmv(y)
        rel = np.abs(got - expected).max() / np.abs(expected).max()
        assert rel < 5e-6

    def test_m_transpose(self, setup):
        coo, geom, _, _ = setup
        m = CSCVMMatrix.from_ct(coo, geom, CSCVParams(8, 8, 2))
        rng = np.random.default_rng(5)
        y = rng.random(coo.shape[0]).astype(np.float32)
        expected = coo.to_dense().T.astype(np.float64) @ y.astype(np.float64)
        rel = np.abs(m.transpose_spmv(y) - expected).max() / np.abs(expected).max()
        assert rel < 5e-6

    def test_adjoint_identity(self, setup):
        # <Ax, y> == <x, A^T y> — the defining adjoint property
        coo, geom, x, _ = setup
        z = CSCVZMatrix.from_ct(coo, geom, CSCVParams(8, 16, 2))
        rng = np.random.default_rng(11)
        y = rng.random(coo.shape[0]).astype(np.float32)
        lhs = float(z.spmv(x).astype(np.float64) @ y.astype(np.float64))
        rhs = float(x.astype(np.float64) @ z.transpose_spmv(y).astype(np.float64))
        assert lhs == pytest.approx(rhs, rel=1e-5)


class TestThreading:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_thread_count_invariance_z(self, setup, threads):
        coo, geom, x, y_ref = setup
        data = build_cscv(coo.rows, coo.cols, coo.vals, geom, CSCVParams(8, 8, 2),
                          np.float32)
        y = np.zeros(coo.shape[0], dtype=np.float32)
        product(CSCVZMatrix(data, threads=threads), x, y)
        rel = np.abs(y - y_ref).max() / np.abs(y_ref).max()
        assert rel < 5e-6

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_thread_count_invariance_m(self, setup, threads):
        coo, geom, x, y_ref = setup
        data = build_cscv(coo.rows, coo.cols, coo.vals, geom, CSCVParams(8, 8, 2),
                          np.float32)
        y = np.zeros(coo.shape[0], dtype=np.float32)
        product(CSCVMMatrix(data, threads=threads), x, y)
        rel = np.abs(y - y_ref).max() / np.abs(y_ref).max()
        assert rel < 5e-6


class TestOutValidation:
    """Every CSCV product validates ``out=`` (shape, dtype, C order)."""

    @pytest.fixture(params=[CSCVZMatrix, CSCVMMatrix], ids=["z", "m"])
    def fmt(self, request, small_ct_f32):
        coo, geom = small_ct_f32
        return request.param.from_ct(coo, geom)

    def test_adjoint_vector_too_short(self, fmt, backend):
        y = np.ones(fmt.shape[0], dtype=np.float32)
        with pytest.raises(ValidationError, match="shape"):
            fmt.transpose_spmv(y, out=np.zeros(fmt.shape[1] - 1, dtype=np.float32))

    def test_adjoint_vector_wrong_dtype(self, fmt, backend):
        y = np.ones(fmt.shape[0], dtype=np.float32)
        with pytest.raises(ValidationError, match="float32"):
            fmt.transpose_spmv(y, out=np.zeros(fmt.shape[1]))

    def test_adjoint_stack_wrong_width(self, fmt, backend):
        from repro.recon import ProjectionOperator

        Y = np.ones((fmt.shape[0], 3), dtype=np.float32)
        out = np.zeros((fmt.shape[1], 1), dtype=np.float32)
        with pytest.raises(ValidationError, match="shape"):
            fmt.transpose_spmm(Y, out=out)
        with pytest.raises(ValidationError, match="shape"):
            ProjectionOperator(fmt).adjoint(Y, out=out)

    def test_adjoint_stack_wrong_dtype(self, fmt, backend):
        Y = np.ones((fmt.shape[0], 3), dtype=np.float32)
        with pytest.raises(ValidationError, match="float32"):
            fmt.transpose_spmm(Y, out=np.zeros((fmt.shape[1], 3)))

    def test_adjoint_stack_not_c_contiguous(self, fmt, backend):
        Y = np.ones((fmt.shape[0], 3), dtype=np.float32)
        out = np.zeros((3, fmt.shape[1]), dtype=np.float32).T
        with pytest.raises(ValidationError, match="C-contiguous"):
            fmt.transpose_spmm(Y, out=out)

    def test_valid_out_is_filled_in_place(self, fmt, backend):
        y = np.ones(fmt.shape[0], dtype=np.float32)
        out = np.full(fmt.shape[1], 7.0, dtype=np.float32)
        assert fmt.transpose_spmv(y, out=out) is out
        np.testing.assert_array_equal(out, fmt.transpose_spmv(y))


class TestMemoryModel:
    def test_m_streams_less_than_z(self, setup):
        coo, geom, _, _ = setup
        z = CSCVZMatrix.from_ct(coo, geom, CSCVParams(8, 16, 2))
        m = CSCVMMatrix(z.data)
        assert m.memory_bytes()["total"] < z.memory_bytes()["total"]
        assert m.traffic_saving_vs_z() > 0.0

    @pytest.mark.parametrize("cls", [CSCVZMatrix, CSCVMMatrix],
                             ids=["z", "m"])
    @pytest.mark.parametrize("adjoint", [False, True], ids=["fwd", "adj"])
    def test_memory_bytes_counts_the_kernel_arrays(self, setup, monkeypatch,
                                                   cls, adjoint):
        """``memory_bytes()`` is the nbytes of exactly the stored arrays
        the C kernel is handed (checked on the argument list itself)."""
        from repro.core import spmv

        coo, geom, _, _ = setup
        fmt = cls(CSCVZMatrix.from_ct(coo, geom, CSCVParams(8, 16, 2)).data)
        calls = []
        monkeypatch.setattr(spmv.dispatch, "get",
                            lambda name, dtype: lambda *args: calls.append(args))
        size = fmt.shape[0] if adjoint else fmt.shape[1]
        product(fmt, np.ones(size, dtype=fmt.dtype), adjoint=adjoint)
        (args,) = calls
        stored = {id(v): v for v in vars(fmt.data).values()
                  if isinstance(v, np.ndarray)}
        handed = [a for a in args if id(a) in stored]
        value_stream = fmt.data.values if cls is CSCVZMatrix else fmt.data.packed
        mb = fmt.memory_bytes()
        assert mb["total"] == sum(a.nbytes for a in handed)
        assert mb["values"] == value_stream.nbytes
        assert mb["indices"] == mb["total"] - mb["values"]

    def test_index_compression_vs_csc(self, setup):
        # paper: VxG index volume ~0.03x of CSC... at realistic scale the
        # map adds overhead; assert it is well below half of CSC's indices
        coo, geom, _, _ = setup
        z = CSCVZMatrix.from_ct(coo, geom, CSCVParams(16, 16, 4))
        assert z.index_compression_vs_csc() < 0.5

    def test_m_values_exactly_nnz(self, setup):
        coo, geom, _, _ = setup
        m = CSCVMMatrix.from_ct(coo, geom, CSCVParams(8, 8, 2))
        assert m.memory_bytes()["values"] == coo.nnz * 4


class TestConstructionErrors:
    def test_shape_mismatch(self, setup):
        coo, _, _, _ = setup
        wrong = ParallelBeamGeometry(image_size=8, num_bins=13, num_views=4,
                                     delta_angle_deg=1.0)
        with pytest.raises(ValidationError):
            CSCVZMatrix.from_ct(coo, wrong)

    def test_from_coo_requires_geom(self, setup):
        coo, _, _, _ = setup
        with pytest.raises(ValidationError):
            CSCVZMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals)

    def test_from_coo_with_geom(self, setup):
        coo, geom, x, y_ref = setup
        z = CSCVZMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals, geom=geom)
        rel = np.abs(z.spmv(x) - y_ref).max() / np.abs(y_ref).max()
        assert rel < 5e-6

    @pytest.mark.parametrize("cls", [CSCVZMatrix, CSCVMMatrix])
    def test_from_coo_keeps_threads(self, cls):
        geom = ParallelBeamGeometry.for_image(16)
        coo, _ = build_ct_matrix(16, geom=geom, dtype=np.float32)
        fmt = cls.from_coo(coo.shape, coo.rows, coo.cols, coo.vals,
                           geom=geom, threads=3)
        assert fmt.threads == 3


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), s_vvec=st.sampled_from([4, 8, 16]))
def test_property_random_x_agreement(seed, s_vvec):
    """Z and M agree with COO on random inputs, including negatives/zeros."""
    geom = ParallelBeamGeometry(image_size=10, num_bins=16, num_views=12,
                                delta_angle_deg=5.0)
    from repro.geometry.projector_strip import strip_area_matrix

    rows, cols, vals = strip_area_matrix(geom)
    coo = COOMatrix.from_coo(geom.shape, rows, cols, vals)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(coo.shape[1])
    x[rng.random(x.size) < 0.3] = 0.0
    ref = coo.to_dense() @ x
    data = build_cscv(coo.rows, coo.cols, coo.vals, geom, CSCVParams(s_vvec, 5, 2))
    np.testing.assert_allclose(CSCVZMatrix(data).spmv(x), ref, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(CSCVMMatrix(data).spmv(x), ref, rtol=1e-10, atol=1e-10)
