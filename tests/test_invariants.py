"""Invariants of the CSCV products, one case per row of the dispatcher table.

Every row of :data:`repro.core.spmv.ROUTES` — CSCV-Z and CSCV-M, forward
and adjoint, 1-D and ``(·, k)`` — is checked at float32 and float64, on
the C kernels and the NumPy fallback, for k in {1, 3, 8}, on an odd
(33²) and an even (64²) operator, at the default kernel thread count:

(a) ``<A x, y> == <x, A^T y>`` up to rounding;
(b) C == NumPy within :data:`C_VS_NUMPY_TOL` — the NumPy fallback
    accumulates in float64 and casts, the C kernels accumulate in the
    matrix dtype; at any thread count;
(c) column j of a k-wide product is bit-equal to the ``(·, 1)`` product
    of that column alone (batched == solo);
(d) the 1-D NumPy product is bit-equal to the ``(·, 1)`` NumPy product;
(e) every row with a C kernel is bit-equal at any kernel thread count:
    each thread owns whole view groups (forward) or image tile rows
    (adjoint), so no output entry is summed in thread arrival order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.api import build_ct_matrix
from repro.core.format_m import CSCVMMatrix
from repro.core.format_z import CSCVZMatrix
from repro.core.spmv import ROUTES
from repro.kernels import dispatch

SIZES = (33, 64)
DTYPES = (np.float32, np.float64)
BATCHES = (1, 3, 8)

#: (b): max|C - NumPy| <= tol * max|NumPy|, per dtype.
C_VS_NUMPY_TOL = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-12}
#: (a): |<Ax, y> - <x, A^T y>| <= tol * sum|Ax| |y|, per dtype.
DOT_TOL = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-12}

#: Rows and their operand widths: None is a 1-D operand.
CASES = [
    (row, k)
    for row in sorted(ROUTES)
    for k in (BATCHES if row[2] else (None,))
]


def _row_id(row) -> str:
    adjoint, variant, two_d = row
    return f"{variant}-{'adj' if adjoint else 'fwd'}-{'2d' if two_d else '1d'}"


#: The :data:`CASES` whose row is served by a C kernel.
C_CASES = [(row, k) for row, k in CASES if ROUTES[row][2] is not None]


@pytest.fixture(scope="module",
                params=[(s, np.dtype(d)) for s in SIZES for d in DTYPES],
                ids=lambda p: f"{p[0]}-{p[1].name}")
def data(request):
    size, dtype = request.param
    coo, geom = build_ct_matrix(size, dtype=dtype)
    return CSCVZMatrix.from_ct(coo, geom).data


@pytest.fixture(params=["c", "numpy"])
def kernels(request, monkeypatch):
    """Run under the compiled kernels, then under the NumPy fallback."""
    monkeypatch.setattr(config.runtime, "backend",
                        "auto" if request.param == "c" else "numpy")
    if request.param == "c" and dispatch.backend_in_use() != "c":
        pytest.skip("compiled kernels unavailable")
    return request.param


def _fmt(data, variant: str, threads: int | None = None):
    cls = CSCVZMatrix if variant == "z" else CSCVMMatrix
    return cls(data, threads=threads)


def _operand(fmt, adjoint: bool, k, seed: int) -> np.ndarray:
    size = fmt.shape[0] if adjoint else fmt.shape[1]
    shape = (size,) if k is None else (size, k)
    rng = np.random.default_rng(seed)
    return (rng.random(shape) - 0.5).astype(fmt.dtype)


def _apply(fmt, adjoint: bool, v: np.ndarray) -> np.ndarray:
    if v.ndim == 1:
        return fmt.transpose_spmv(v) if adjoint else fmt.spmv(v)
    return fmt.transpose_spmm(v) if adjoint else fmt.spmm(v)


def _bits(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


@pytest.mark.parametrize("variant", ["z", "m"])
@pytest.mark.parametrize("k", (None,) + BATCHES)
def test_a_adjoint_identity(data, kernels, variant, k):
    fmt = _fmt(data, variant)
    x, y = _operand(fmt, False, k, 1), _operand(fmt, True, k, 2)
    ax = _apply(fmt, False, x).astype(np.float64)
    aty = _apply(fmt, True, y).astype(np.float64)
    lhs = (ax * y).sum(axis=0)
    rhs = (x.astype(np.float64) * aty).sum(axis=0)
    scale = (np.abs(ax) * np.abs(y)).sum(axis=0)
    assert np.all(np.abs(lhs - rhs) <= DOT_TOL[fmt.dtype] * scale)


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("row,k", CASES,
                         ids=[f"{_row_id(r)}-k{k}" for r, k in CASES])
def test_b_c_matches_numpy(data, monkeypatch, row, k, threads):
    adjoint, variant, _ = row
    fmt = _fmt(data, variant, threads)
    v = _operand(fmt, adjoint, k, 3)
    monkeypatch.setattr(config.runtime, "backend", "numpy")
    ref = _apply(fmt, adjoint, v)
    monkeypatch.setattr(config.runtime, "backend", "auto")
    if dispatch.backend_in_use() != "c":
        pytest.skip("compiled kernels unavailable")
    got = _apply(fmt, adjoint, v)
    err = np.abs(got.astype(np.float64) - ref).max()
    assert err <= C_VS_NUMPY_TOL[fmt.dtype] * np.abs(ref).max()


@pytest.mark.parametrize("k", [3, 8])
@pytest.mark.parametrize("row", [r for r in sorted(ROUTES) if r[2]], ids=_row_id)
def test_c_batch_column_equals_solo(data, kernels, row, k):
    adjoint, variant, _ = row
    fmt = _fmt(data, variant)
    v = _operand(fmt, adjoint, k, 4)
    full = _apply(fmt, adjoint, v)
    for j in range(k):
        solo = _apply(fmt, adjoint, np.ascontiguousarray(v[:, j:j + 1]))
        np.testing.assert_array_equal(_bits(full[:, j]), _bits(solo[:, 0]),
                                      err_msg=f"column {j} of k={k}")


@pytest.mark.parametrize("row", [r for r in sorted(ROUTES) if not r[2]], ids=_row_id)
def test_d_vector_equals_single_column(data, monkeypatch, row):
    monkeypatch.setattr(config.runtime, "backend", "numpy")
    adjoint, variant, _ = row
    fmt = _fmt(data, variant)
    v = _operand(fmt, adjoint, None, 5)
    np.testing.assert_array_equal(_bits(_apply(fmt, adjoint, v)),
                                  _bits(_apply(fmt, adjoint, v[:, None])[:, 0]))


@pytest.mark.parametrize("threads", [2, 4])
@pytest.mark.parametrize("row,k", C_CASES,
                         ids=[f"{_row_id(r)}-k{k}" for r, k in C_CASES])
def test_e_thread_count_bit_equal(data, monkeypatch, row, k, threads):
    monkeypatch.setattr(config.runtime, "backend", "auto")
    if dispatch.backend_in_use() != "c":
        pytest.skip("compiled kernels unavailable")
    adjoint, variant, _ = row
    v = _operand(_fmt(data, variant), adjoint, k, 7)
    serial = _apply(_fmt(data, variant, 1), adjoint, v)
    got = _apply(_fmt(data, variant, threads), adjoint, v)
    np.testing.assert_array_equal(_bits(got), _bits(serial))


def test_sirt_stack_column_equals_solo_float64(kernels):
    """End to end: a float64 CSCV-Z SIRT stack reproduces its solo runs."""
    from repro.recon import ProjectionOperator, sirt_reconstruct

    coo, geom = build_ct_matrix(48, dtype=np.float64)
    op = ProjectionOperator(CSCVZMatrix.from_ct(coo, geom))
    rng = np.random.default_rng(6)
    sino = op.forward(rng.random((op.shape[1], 4)))
    stack = sirt_reconstruct(op, sino, iterations=5)
    for j in range(4):
        solo = sirt_reconstruct(op, np.ascontiguousarray(sino[:, j:j + 1]),
                                iterations=5)
        np.testing.assert_array_equal(_bits(stack[:, j]), _bits(solo[:, 0]))
