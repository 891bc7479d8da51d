"""Invariants of the CSCV products, one case per row of the dispatcher table.

Every row of :data:`repro.core.spmv.ROUTES` — CSCV-Z and CSCV-M, forward
and adjoint — is checked on a vector and on ``(·, k)`` stacks for k in
{1, 3, 8}, at float32 and float64, on the C kernels and the NumPy
fallback, on an odd (33²) and an even (64²) operator, at the default
kernel thread count:

(a) ``<A x, y> == <x, A^T y>`` up to rounding;
(b) C == NumPy within :data:`C_VS_NUMPY_TOL` — the NumPy fallback
    accumulates in float64 and casts, the C kernels accumulate in the
    matrix dtype; at any thread count, and on degenerate geometries (one
    view; an odd size whose narrow detector leaves blocks empty);
(c) column j of a k-wide product is bit-equal to the ``(·, 1)`` product
    of that column alone (batched == solo);
(d) the 1-D product is bit-equal to the ``(·, 1)`` product;
(e) every row and width is bit-equal at any kernel thread count: each
    thread owns whole view groups (forward) or image tile rows
    (adjoint), so no output entry is summed in thread arrival order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.api import build_ct_matrix
from repro.core.format_m import CSCVMMatrix
from repro.core.format_z import CSCVZMatrix
from repro.core.params import CSCVParams
from repro.core.spmv import ROUTES
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.kernels import dispatch

SIZES = (33, 64)
DTYPES = (np.float32, np.float64)
BATCHES = (1, 3, 8)

#: (b): max|C - NumPy| <= tol * max|NumPy|, per dtype.
C_VS_NUMPY_TOL = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-12}
#: (a): |<Ax, y> - <x, A^T y>| <= tol * sum|Ax| |y|, per dtype.
DOT_TOL = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-12}

#: Rows and their operand widths: None is a 1-D operand.
CASES = [(row, k) for row in sorted(ROUTES) for k in (None,) + BATCHES]

#: Degenerate scans: a single view, and an odd image whose 7-bin
#: detector misses the corner tiles, so 9 of its 50 blocks are empty.
DEGENERATE = {
    "one-view": ParallelBeamGeometry.for_image(17, 1),
    "empty-blocks": ParallelBeamGeometry(33, 7, 20, 9.0),
}


# Test ids keep the "1d"/"2d" row names the table had before a vector
# and a stack shared one kernel, so results stay comparable across it.
def _row_id(row, layout: str = "2d") -> str:
    adjoint, variant = row
    return f"{variant}-{'adj' if adjoint else 'fwd'}-{layout}"


CASE_IDS = [f"{_row_id(row, '1d' if k is None else '2d')}-k{k}"
            for row, k in CASES]


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


def _check_c_matches_numpy(fmt, monkeypatch, adjoint, k):
    v = _operand(fmt, adjoint, k, 3)
    monkeypatch.setattr(config.runtime, "backend", "numpy")
    ref = _apply(fmt, adjoint, v)
    monkeypatch.setattr(config.runtime, "backend", "auto")
    if dispatch.backend_in_use() != "c":
        pytest.skip("compiled kernels unavailable")
    got = _apply(fmt, adjoint, v)
    err = np.abs(got.astype(np.float64) - ref).max()
    assert err <= C_VS_NUMPY_TOL[fmt.dtype] * np.abs(ref).max()


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("row,k", CASES, ids=CASE_IDS)
def test_b_c_matches_numpy(data, monkeypatch, row, k, threads):
    adjoint, variant = row
    _check_c_matches_numpy(_fmt(data, variant, threads), monkeypatch,
                           adjoint, k)


@pytest.fixture(scope="module", params=sorted(DEGENERATE))
def degenerate_data(request):
    geom = DEGENERATE[request.param]
    coo, _ = build_ct_matrix(geom.image_size, geom=geom, dtype=np.float32)
    data = CSCVZMatrix.from_ct(coo, geom, CSCVParams(16, 8, 2)).data
    if request.param == "empty-blocks":  # fewer blocks than (group, tile) pairs
        tiles, groups = -(-geom.image_size // 8), -(-geom.num_views // 16)
        assert data.num_blocks < tiles * tiles * groups
    else:
        assert data.shape[0] == geom.num_bins
    return data


@pytest.mark.parametrize("row,k", CASES, ids=CASE_IDS)
def test_b_degenerate_geometry_c_matches_numpy(degenerate_data, monkeypatch,
                                               row, k):
    adjoint, variant = row
    _check_c_matches_numpy(_fmt(degenerate_data, variant, 2), monkeypatch,
                           adjoint, k)


@pytest.mark.parametrize("k", [3, 8])
@pytest.mark.parametrize("row", sorted(ROUTES), ids=_row_id)
def test_c_batch_column_equals_solo(data, kernels, row, k):
    adjoint, variant = row
    fmt = _fmt(data, variant)
    v = _operand(fmt, adjoint, k, 4)
    full = _apply(fmt, adjoint, v)
    for j in range(k):
        solo = _apply(fmt, adjoint, np.ascontiguousarray(v[:, j:j + 1]))
        np.testing.assert_array_equal(_bits(full[:, j]), _bits(solo[:, 0]),
                                      err_msg=f"column {j} of k={k}")


@pytest.mark.parametrize("row", sorted(ROUTES), ids=lambda r: _row_id(r, "1d"))
def test_d_vector_equals_single_column(data, monkeypatch, row):
    adjoint, variant = row
    fmt = _fmt(data, variant)
    v = _operand(fmt, adjoint, None, 5)
    for backend in ("numpy", "auto"):  # NumPy, then C where it is built
        monkeypatch.setattr(config.runtime, "backend", backend)
        np.testing.assert_array_equal(
            _bits(_apply(fmt, adjoint, v)),
            _bits(_apply(fmt, adjoint, v[:, None])[:, 0]), err_msg=backend)


@pytest.mark.parametrize("threads", [2, 4])
@pytest.mark.parametrize("row,k", CASES, ids=CASE_IDS)
def test_e_thread_count_bit_equal(data, monkeypatch, row, k, threads):
    monkeypatch.setattr(config.runtime, "backend", "auto")
    if dispatch.backend_in_use() != "c":
        pytest.skip("compiled kernels unavailable")
    adjoint, variant = row
    v = _operand(_fmt(data, variant), adjoint, k, 7)
    serial = _apply(_fmt(data, variant, 1), adjoint, v)
    got = _apply(_fmt(data, variant, threads), adjoint, v)
    np.testing.assert_array_equal(_bits(got), _bits(serial))


def _check_sirt_stack_column_equals_solo(dtype):
    from repro.recon import ProjectionOperator, sirt_reconstruct

    coo, geom = build_ct_matrix(48, dtype=dtype)
    op = ProjectionOperator(CSCVZMatrix.from_ct(coo, geom))
    rng = np.random.default_rng(6)
    sino = op.forward(rng.random((op.shape[1], 4)).astype(dtype))
    stack = sirt_reconstruct(op, sino, iterations=5)
    for j in range(4):
        solo = sirt_reconstruct(op, np.ascontiguousarray(sino[:, j:j + 1]),
                                iterations=5)
        np.testing.assert_array_equal(_bits(stack[:, j]), _bits(solo[:, 0]))


def test_sirt_stack_column_equals_solo_float64(kernels):
    """End to end: a float64 CSCV-Z SIRT stack reproduces its solo runs."""
    _check_sirt_stack_column_equals_solo(np.float64)


def test_sirt_stack_column_equals_solo_float32(kernels):
    """The same at float32, where the C kernels accumulate in float32."""
    _check_sirt_stack_column_equals_solo(np.float32)


def test_c_backed_sirt_runs_no_numpy_product(monkeypatch):
    """A C-backed SIRT on an (m, 1) and an (m, 3) stack runs every
    product, adjoints included, on the compiled kernels."""
    from repro.obs import metrics as obs_metrics
    from repro.recon import ProjectionOperator, sirt_reconstruct

    monkeypatch.setattr(config.runtime, "backend", "auto")
    if dispatch.backend_in_use() != "c":
        pytest.skip("compiled kernels unavailable")
    coo, geom = build_ct_matrix(24, dtype=np.float32)
    data = CSCVZMatrix.from_ct(coo, geom).data
    rng = np.random.default_rng(8)
    for fmt in (CSCVZMatrix(data), CSCVMMatrix(data)):
        op = ProjectionOperator(fmt)
        for k in (1, 3):
            obs_metrics.registry.reset()
            sino = rng.random((op.shape[0], k)).astype(np.float32)
            sirt_reconstruct(op, sino, iterations=3)
            names = obs_metrics.registry.names()
            assert any(n.startswith("spmv.calls.") and n.endswith(".c")
                       for n in names), names
            assert not [n for n in names
                        if n.startswith("spmv.calls.") and n.endswith(".flat")]
