"""Cross-format correctness: every format must agree with the dense result.

Covers all registered non-CSCV formats on random matrices, CT matrices,
adversarial structures (empty rows/columns, single entries, dense rows),
both dtypes, and both backends.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.sparse import (
    BSRMatrix,
    COOMatrix,
    CSCMatrix,
    CSR5Matrix,
    CSRMatrix,
    CVRMatrix,
    ELLMatrix,
    ESBMatrix,
    HYBMatrix,
    MergeCSRMatrix,
    MKLLikeCSC,
    MKLLikeCSR,
    SPC5Matrix,
    VHCCMatrix,
    available_formats,
    get_format,
)

ALL_CLASSES = [
    COOMatrix,
    CSRMatrix,
    CSCMatrix,
    ELLMatrix,
    HYBMatrix,
    BSRMatrix,
    CSR5Matrix,
    SPC5Matrix,
    ESBMatrix,
    CVRMatrix,
    VHCCMatrix,
    MergeCSRMatrix,
    MKLLikeCSR,
    MKLLikeCSC,
]


def random_coo(rng, m, n, density=0.15, dtype=np.float64):
    size = max(int(m * n * density), 1)
    rows = rng.integers(0, m, size)
    cols = rng.integers(0, n, size)
    vals = rng.standard_normal(size).astype(dtype)
    return rows, cols, vals


def dense_reference(shape, rows, cols, vals):
    d = np.zeros(shape, dtype=np.float64)
    np.add.at(d, (rows, cols), vals.astype(np.float64))
    return d


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.name)
class TestFormatAgainstDense:
    def test_random_matrix(self, cls, rng, backend):
        m, n = 37, 29
        rows, cols, vals = random_coo(rng, m, n)
        fmt = cls.from_coo((m, n), rows, cols, vals)
        x = rng.standard_normal(n)
        expected = dense_reference((m, n), rows, cols, vals) @ x
        got = fmt.spmv(x)
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10)

    def test_to_dense_roundtrip(self, cls, rng):
        m, n = 13, 17
        rows, cols, vals = random_coo(rng, m, n, density=0.2)
        fmt = cls.from_coo((m, n), rows, cols, vals)
        np.testing.assert_allclose(
            fmt.to_dense(), dense_reference((m, n), rows, cols, vals), rtol=1e-12
        )

    def test_float32(self, cls, rng, backend):
        m, n = 21, 18
        rows, cols, vals = random_coo(rng, m, n, dtype=np.float32)
        fmt = cls.from_coo((m, n), rows, cols, vals, dtype=np.float32)
        assert fmt.dtype == np.float32
        x = rng.standard_normal(n).astype(np.float32)
        expected = dense_reference((m, n), rows, cols, vals) @ x.astype(np.float64)
        np.testing.assert_allclose(fmt.spmv(x), expected, rtol=2e-4, atol=2e-4)

    def test_empty_matrix(self, cls):
        z = np.zeros(0, dtype=np.int64)
        fmt = cls.from_coo((5, 4), z, z, np.zeros(0))
        assert fmt.nnz == 0
        np.testing.assert_array_equal(fmt.spmv(np.ones(4)), np.zeros(5))

    def test_single_entry(self, cls):
        fmt = cls.from_coo((6, 6), [2], [3], [7.0])
        y = fmt.spmv(np.arange(6, dtype=np.float64))
        expected = np.zeros(6)
        expected[2] = 21.0
        np.testing.assert_allclose(y, expected)

    def test_empty_rows_and_cols(self, cls, rng):
        # rows 0 and m-1, cols 0 and n-1 deliberately empty
        m, n = 10, 9
        rows = rng.integers(1, m - 1, 30)
        cols = rng.integers(1, n - 1, 30)
        vals = rng.standard_normal(30)
        fmt = cls.from_coo((m, n), rows, cols, vals)
        x = rng.standard_normal(n)
        expected = dense_reference((m, n), rows, cols, vals) @ x
        np.testing.assert_allclose(fmt.spmv(x), expected, rtol=1e-10, atol=1e-12)
        assert fmt.spmv(x)[0] == 0.0

    def test_dense_single_row(self, cls):
        # one fully dense row among sparse ones (row-length skew)
        n = 24
        rows = np.concatenate([np.full(n, 3), [0, 7]])
        cols = np.concatenate([np.arange(n), [1, 2]])
        vals = np.ones(n + 2)
        fmt = cls.from_coo((9, n), rows, cols, vals)
        y = fmt.spmv(np.ones(n))
        assert y[3] == pytest.approx(n)

    def test_duplicates_summed(self, cls):
        fmt = cls.from_coo((3, 3), [1, 1, 1], [2, 2, 0], [1.0, 2.0, 4.0])
        d = fmt.to_dense()
        assert d[1, 2] == pytest.approx(3.0)
        assert d[1, 0] == pytest.approx(4.0)

    def test_memory_bytes_contract(self, cls, rng):
        rows, cols, vals = random_coo(rng, 15, 15)
        fmt = cls.from_coo((15, 15), rows, cols, vals)
        mem = fmt.memory_bytes()
        assert set(mem) >= {"values", "indices", "total"}
        assert mem["total"] == mem["values"] + mem["indices"]
        assert mem["values"] >= fmt.nnz * fmt.dtype.itemsize

    def test_out_parameter(self, cls, rng):
        rows, cols, vals = random_coo(rng, 11, 8)
        fmt = cls.from_coo((11, 8), rows, cols, vals)
        x = rng.standard_normal(8)
        out = np.full(11, 99.0)
        res = fmt.spmv(x, out=out)
        assert res is out
        np.testing.assert_allclose(out, fmt.spmv(x))

    def test_input_validation(self, cls, rng):
        rows, cols, vals = random_coo(rng, 5, 5)
        fmt = cls.from_coo((5, 5), rows, cols, vals)
        with pytest.raises(ValidationError):
            fmt.spmv(np.ones(6))
        with pytest.raises(ValidationError):
            fmt.spmv(np.ones((5, 1)))


class TestRegistry:
    def test_all_names_registered(self):
        names = available_formats()
        for cls in ALL_CLASSES:
            assert cls.name in names

    def test_get_format(self):
        assert get_format("csr") is CSRMatrix

    def test_unknown_format(self):
        from repro.errors import FormatError

        with pytest.raises(FormatError):
            get_format("nope")

    def test_cscv_registered_too(self):
        assert "cscv-z" in available_formats()
        assert "cscv-m" in available_formats()


class TestMatmulOperator:
    def test_matmul(self, rng):
        rows, cols, vals = random_coo(rng, 9, 7)
        fmt = CSRMatrix.from_coo((9, 7), rows, cols, vals)
        x = rng.standard_normal(7)
        np.testing.assert_allclose(fmt @ x, fmt.spmv(x))


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 24),
    n=st.integers(1, 24),
    seed=st.integers(0, 2**31 - 1),
    cls_idx=st.integers(0, len(ALL_CLASSES) - 1),
)
# ELL with one nonzero in 17 rows: width 1 is 17x the mean row nnz, but
# pads to only 17 slots
@example(m=17, n=12, seed=262143, cls_idx=3)
def test_property_spmv_matches_dense(m, n, seed, cls_idx):
    """Any format, any shape, any sparsity: y == dense @ x."""
    rng = np.random.default_rng(seed)
    nnz = rng.integers(0, m * n + 1)
    rows = rng.integers(0, m, nnz)
    cols = rng.integers(0, n, nnz)
    vals = rng.standard_normal(nnz)
    cls = ALL_CLASSES[cls_idx]
    fmt = cls.from_coo((m, n), rows, cols, vals)
    x = rng.standard_normal(n)
    expected = dense_reference((m, n), rows, cols, vals) @ x
    np.testing.assert_allclose(fmt.spmv(x), expected, rtol=1e-9, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_property_linearity(seed):
    """SpMV is linear: A(ax + bz) = a*Ax + b*Az (exact in float64 tolerance)."""
    rng = np.random.default_rng(seed)
    rows, cols, vals = random_coo(rng, 16, 12)
    fmt = CSRMatrix.from_coo((16, 12), rows, cols, vals)
    x = rng.standard_normal(12)
    z = rng.standard_normal(12)
    a, b = rng.standard_normal(2)
    lhs = fmt.spmv(a * x + b * z)
    rhs = a * fmt.spmv(x) + b * fmt.spmv(z)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------- #
# ``out=`` validation on the non-CSCV adjoints: every native transpose and
# every ProjectionOperator fallback rejects a mis-shaped, mis-typed or
# non-C-contiguous buffer with ValidationError instead of resizing,
# casting or failing deep inside NumPy.


@pytest.fixture(scope="module")
def ct16():
    from repro.api import build_ct_matrix

    coo, _ = build_ct_matrix(16, dtype=np.float32)
    return coo


def _adjoint_vector(kind, coo):
    from repro.recon import ProjectionOperator

    cls = {"csr": CSRMatrix, "csc": CSCMatrix, "mkl-csr": MKLLikeCSR,
           "op-fallback": ELLMatrix}[kind]
    fmt = cls.from_coo(coo.shape, coo.rows, coo.cols, coo.vals)
    return ProjectionOperator(fmt).adjoint if kind == "op-fallback" else fmt.transpose_spmv


def _adjoint_stack(kind, coo):
    from repro.recon import ProjectionOperator

    if kind == "csr":
        return CSRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals).transpose_spmm
    cls = {"op-columns": CSCMatrix, "op-fallback": ELLMatrix}[kind]
    return ProjectionOperator(cls.from_coo(coo.shape, coo.rows, coo.cols, coo.vals)).adjoint


VECTOR_ADJOINTS = ["csr", "csc", "mkl-csr", "op-fallback"]
STACK_ADJOINTS = ["csr", "op-columns", "op-fallback"]


class TestAdjointOutValidation:
    @pytest.mark.parametrize("kind", VECTOR_ADJOINTS)
    @pytest.mark.parametrize("delta", [1, -1], ids=["long", "short"])
    def test_vector_wrong_length(self, ct16, kind, delta):
        adjoint = _adjoint_vector(kind, ct16)
        y = np.ones(ct16.shape[0], dtype=np.float32)
        out = np.zeros(ct16.shape[1] + delta, dtype=np.float32)
        with pytest.raises(ValidationError, match="shape"):
            adjoint(y, out)

    @pytest.mark.parametrize("kind", VECTOR_ADJOINTS)
    def test_vector_wrong_dtype(self, ct16, kind):
        adjoint = _adjoint_vector(kind, ct16)
        y = np.ones(ct16.shape[0], dtype=np.float32)
        with pytest.raises(ValidationError, match="float32"):
            adjoint(y, np.zeros(ct16.shape[1]))

    @pytest.mark.parametrize("kind", VECTOR_ADJOINTS)
    def test_vector_not_c_contiguous(self, ct16, kind):
        adjoint = _adjoint_vector(kind, ct16)
        y = np.ones(ct16.shape[0], dtype=np.float32)
        out = np.zeros(2 * ct16.shape[1], dtype=np.float32)[::2]
        with pytest.raises(ValidationError, match="C-contiguous"):
            adjoint(y, out)

    @pytest.mark.parametrize("kind", VECTOR_ADJOINTS)
    def test_vector_valid_out_is_filled_in_place(self, ct16, kind):
        adjoint = _adjoint_vector(kind, ct16)
        y = np.linspace(0.5, 1.5, ct16.shape[0]).astype(np.float32)
        out = np.full(ct16.shape[1], 7.0, dtype=np.float32)
        assert adjoint(y, out) is out
        np.testing.assert_array_equal(out, adjoint(y))

    @pytest.mark.parametrize("kind", STACK_ADJOINTS)
    def test_stack_wrong_width(self, ct16, kind):
        adjoint = _adjoint_stack(kind, ct16)
        Y = np.ones((ct16.shape[0], 3), dtype=np.float32)
        with pytest.raises(ValidationError, match="shape"):
            adjoint(Y, np.zeros((ct16.shape[1], 2), dtype=np.float32))

    @pytest.mark.parametrize("kind", STACK_ADJOINTS)
    def test_stack_wrong_dtype(self, ct16, kind):
        adjoint = _adjoint_stack(kind, ct16)
        Y = np.ones((ct16.shape[0], 3), dtype=np.float32)
        with pytest.raises(ValidationError, match="float32"):
            adjoint(Y, np.zeros((ct16.shape[1], 3)))

    @pytest.mark.parametrize("kind", STACK_ADJOINTS)
    def test_stack_fortran_order(self, ct16, kind):
        adjoint = _adjoint_stack(kind, ct16)
        Y = np.ones((ct16.shape[0], 3), dtype=np.float32)
        out = np.zeros((ct16.shape[1], 3), dtype=np.float32, order="F")
        with pytest.raises(ValidationError, match="C-contiguous"):
            adjoint(Y, out)

    @pytest.mark.parametrize("kind", STACK_ADJOINTS)
    def test_stack_valid_out_is_filled_in_place(self, ct16, kind):
        adjoint = _adjoint_stack(kind, ct16)
        rng = np.random.default_rng(3)
        Y = rng.random((ct16.shape[0], 3)).astype(np.float32)
        out = np.full((ct16.shape[1], 3), 7.0, dtype=np.float32)
        assert adjoint(Y, out) is out
        np.testing.assert_array_equal(out, adjoint(Y))
