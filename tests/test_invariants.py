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

(a) also holds for every registered format through
:class:`~repro.recon.ProjectionOperator` — native adjoints and the
transposed-CSR fallback alike — on the degenerate geometries, and (b)
for the C kernels of the non-CSCV formats (``csr_spmv``, ``csr_spmm``,
``csc_spmv``, ``ell_spmv``, ``spc5_spmv``) on the same geometries.
End to end, the SART-family solvers (SIRT, ART, OS-SART) on CSCV-Z keep
(c) — each column of a stack solve equals its solo solve — and (e).

The 1-wide adjoint, which sums 16 VxGs (8 in float64) at once on
AVX-512, is checked on its edges: VxGs of 8 to 32 lanes, blocks whose
VxG count leaves a partial group, and operands holding signed zeros,
infinities and NaNs, for (b) and (c) at 1 and 2 threads.  (c) also
holds for ``csr``'s one-pass ``spmm``.  Solver event norms are bitwise
independent of the BLAS library's thread count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.api import build_ct_matrix, build_format, reconstruct
from repro.core.format_m import CSCVMMatrix
from repro.core.format_z import CSCVZMatrix
from repro.core.params import CSCVParams
from repro.core.spmv import ROUTES
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.kernels import dispatch
from repro.sparse.matrix_base import available_formats

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
    _check_adjoint_identity(fmt, lambda v: _apply(fmt, False, v),
                            lambda v: _apply(fmt, True, v), k)


def _check_adjoint_identity(fmt, forward, adjoint, k):
    """``<A x, y> == <x, A^T y>`` per column, within :data:`DOT_TOL`."""
    x, y = _operand(fmt, False, k, 1), _operand(fmt, True, k, 2)
    ax = forward(x).astype(np.float64)
    aty = adjoint(y).astype(np.float64)
    lhs = (ax * y).sum(axis=0)
    rhs = (x.astype(np.float64) * aty).sum(axis=0)
    scale = (np.abs(ax) * np.abs(y)).sum(axis=0)
    assert np.all(np.abs(lhs - rhs) <= DOT_TOL[fmt.dtype] * scale)


@pytest.fixture(scope="module",
                params=[(g, np.dtype(d)) for g in sorted(DEGENERATE)
                        for d in DTYPES],
                ids=lambda p: f"{p[0]}-{p[1].name}")
def degenerate_coo(request):
    name, dtype = request.param
    geom = DEGENERATE[name]
    coo, _ = build_ct_matrix(geom.image_size, geom=geom, dtype=dtype)
    return coo, geom


@pytest.mark.parametrize("k", [None, 3])
@pytest.mark.parametrize("name", available_formats())
def test_a_adjoint_identity_every_format(degenerate_coo, kernels, name, k):
    from repro.recon import ProjectionOperator

    coo, geom = degenerate_coo
    op = ProjectionOperator(build_format(name, coo, geom=geom))
    _check_adjoint_identity(op.fmt, op.forward, op.adjoint, k)


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


#: Non-CSCV formats with C kernels -> the kernels their vector and
#: ``(·, 3)`` products run (the others loop ``spmv`` per column).
C_FORMAT_KERNELS = {
    "csr": ("csr_spmv", "csr_spmm"),
    "csc": ("csc_spmv",),
    "ell": ("ell_spmv",),
    "spc5": ("spc5_spmv",),
}


@pytest.mark.parametrize("k", [None, 3])
@pytest.mark.parametrize("name", sorted(C_FORMAT_KERNELS))
def test_b_format_kernels_c_match_numpy(degenerate_coo, monkeypatch, name, k):
    coo, _ = degenerate_coo
    fmt = build_format(name, coo)
    monkeypatch.setattr(config.runtime, "backend", "auto")
    if dispatch.backend_in_use() == "c":
        for kernel in C_FORMAT_KERNELS[name]:
            assert dispatch.get(kernel, fmt.dtype) is not None, kernel
    _check_c_matches_numpy(fmt, monkeypatch, False, k)


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


#: The SART-family solvers and their non-default parameters: all three
#: run on the operator's forward and adjoint products alone.
SART_FAMILY = {"sirt": {}, "art": {}, "os-sart": {"num_subsets": 4}}


def _sart_problem(dtype, k: int):
    from repro.recon import ProjectionOperator

    coo, geom = build_ct_matrix(48, dtype=dtype)
    op = ProjectionOperator(CSCVZMatrix.from_ct(coo, geom))
    rng = np.random.default_rng(6)
    return op, geom, op.forward(rng.random((op.shape[1], k)).astype(dtype))


def _check_stack_column_equals_solo(dtype, solver: str = "sirt"):
    op, geom, sino = _sart_problem(dtype, 4)
    params = dict(SART_FAMILY[solver], solver=solver, geom=geom, iterations=5)
    stack = reconstruct(op, sino, **params).image
    for j in range(4):
        solo = reconstruct(op, np.ascontiguousarray(sino[:, j:j + 1]),
                           **params).image
        np.testing.assert_array_equal(_bits(stack[:, j]), _bits(solo[:, 0]))


def test_sirt_stack_column_equals_solo_float64(kernels):
    """End to end: a float64 CSCV-Z SIRT stack reproduces its solo runs."""
    _check_stack_column_equals_solo(np.float64)


def test_sirt_stack_column_equals_solo_float32(kernels):
    """The same at float32, where the C kernels accumulate in float32."""
    _check_stack_column_equals_solo(np.float32)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("solver", ["art", "os-sart"])
def test_sart_stack_column_equals_solo(kernels, solver, dtype):
    """ART and OS-SART on a CSCV-Z stack reproduce their solo runs."""
    _check_stack_column_equals_solo(dtype, solver)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("solver", sorted(SART_FAMILY))
def test_sart_thread_count_bit_equal(monkeypatch, solver, dtype):
    """A SART-family solve on CSCV-Z is bit-equal at 1 and 2 kernel
    threads (the ``REPRO_THREADS`` default)."""
    monkeypatch.setattr(config.runtime, "backend", "auto")
    if dispatch.backend_in_use() != "c":
        pytest.skip("compiled kernels unavailable")
    op, geom, sino = _sart_problem(dtype, 3)
    images = []
    for threads in (1, 2):
        monkeypatch.setattr(config.runtime, "threads", threads)
        images.append(reconstruct(op, sino, solver=solver, geom=geom,
                                  iterations=4, **SART_FAMILY[solver]).image)
    np.testing.assert_array_equal(_bits(images[1]), _bits(images[0]))


def test_c_backed_sirt_runs_no_numpy_product(monkeypatch):
    """A C-backed SIRT on an (m, 1) and an (m, 3) stack runs every
    product, adjoints included, on the compiled kernels."""
    from repro.obs import metrics as obs_metrics
    from repro.recon import ProjectionOperator

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
            reconstruct(op, sino, solver="sirt", iterations=3)
            names = obs_metrics.registry.names()
            assert any(n.startswith("spmv.calls.") and n.endswith(".c")
                       for n in names), names
            assert not [n for n in names
                        if n.startswith("spmv.calls.") and n.endswith(".flat")]


#: One process's event norms: SIRT, CGLS and OS-SART on an (m, 8) stack
#: (23,360 residual entries at 64², past the length from which OpenBLAS
#: splits a dot over its threads), ICD on one column, and the final
#: images' relative errors, all as exact hex.
_NORMS_SCRIPT = """
import json
import numpy as np
from repro.api import build_ct_matrix, reconstruct
from repro.core.format_z import CSCVZMatrix
from repro.recon import ProjectionOperator
from repro.recon.metrics import relative_error

coo, geom = build_ct_matrix(64, dtype=np.float64)
op = ProjectionOperator(CSCVZMatrix.from_ct(coo, geom))
rng = np.random.default_rng(9)
truth = rng.random((op.shape[1], 8))
sino = op.forward(truth)
out = {}
for solver, y, extra in [("sirt", sino, {}), ("cgls", sino, {}),
                         ("os-sart", sino, {"num_subsets": 4}),
                         ("icd", np.ascontiguousarray(sino[:, 0]), {})]:
    events = []
    res = reconstruct(op, y, solver=solver, geom=geom, iterations=3,
                      callback=events.append, **extra)
    out[solver] = [[None if v is None else float(v).hex()
                    for v in (e.residual_norm, e.normal_residual_norm)]
                   for e in events]
    ref = truth if res.image.ndim == 2 else truth[:, 0]
    out[solver + "/error"] = relative_error(res.image, ref).hex()
print(json.dumps(out))
"""


def test_event_norms_independent_of_blas_threads():
    """Event norms and image errors are bitwise equal whether the BLAS
    library NumPy links runs one thread or two: every solver-path
    reduction is a fixed-order NumPy loop, not a threaded BLAS dot."""
    import os
    import subprocess
    import sys

    runs = []
    for blas_threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "OPENBLAS_NUM_THREADS": blas_threads}
        proc = subprocess.run([sys.executable, "-c", _NORMS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------- #
# Edge cases of the 1-wide adjoint, which sums W VxGs at once on AVX-512
# (W = 16 floats, 8 doubles) and a VxG's lanes W at a time.

#: (s_vvec, s_imgb, s_vxg): VxGs of 8, 16, 24 and 32 lanes; (12, 8, 2)
#: puts a CSCVE across the 16-lane chunk boundary.
EDGE_PARAMS = [(8, 8, 1), (8, 8, 2), (8, 8, 3), (12, 8, 2), (16, 8, 2)]
#: Operand kinds: signed zeros; signed zeros and infinities; and NaNs too.
EDGE_KINDS = ("zeros", "inf", "nan")


@pytest.fixture(scope="module",
                params=[(p, np.dtype(d)) for p in EDGE_PARAMS for d in DTYPES],
                ids=lambda p: f"vxg{p[0][0] * p[0][2]}-{p[0][0]}x{p[0][2]}"
                              f"-{p[1].name}")
def edge_data(request):
    params, dtype = request.param
    coo, geom = build_ct_matrix(64, dtype=dtype)
    data = CSCVZMatrix.from_ct(coo, geom, CSCVParams(*params)).data
    counts = np.diff(data.blk_vxg_ptr)
    # blocks whose VxG count leaves a partial group of W, for both W
    assert np.any(counts % 16) and np.any(counts % 8)
    return data


def _edge_operand(fmt, k: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng(11)
    v = _operand(fmt, True, k, 10)
    flat = v.reshape(-1)
    spots = rng.permutation(flat.size)[: 16 * k]  # few: most pixels stay finite
    specials = {"zeros": [0.0, -0.0], "inf": [0.0, -0.0, np.inf, -np.inf],
                "nan": [0.0, -0.0, np.inf, -np.inf, np.nan]}[kind]
    flat[spots] = np.resize(np.array(specials, dtype=v.dtype), spots.size)
    return v


def _assert_same(got, want, kind: str, err_msg: str = ""):
    """Bitwise equal; for NaN operands only the NaN positions, since a
    sum of two NaNs keeps the payload of whichever operand comes first."""
    if kind == "nan":
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want),
                                      err_msg=err_msg)
    else:
        np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=err_msg)


@pytest.mark.parametrize("kind", EDGE_KINDS)
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("variant", ["z", "m"])
def test_c_adjoint_vector_equals_batch_column_edges(edge_data, monkeypatch,
                                                    variant, threads, kind):
    """(c) for the 1-wide adjoint on every VxG length, partial groups and
    non-finite operands: each vector product is column j of the k-wide
    one."""
    monkeypatch.setattr(config.runtime, "backend", "auto")
    if dispatch.backend_in_use() != "c":
        pytest.skip("compiled kernels unavailable")
    fmt = _fmt(edge_data, variant, threads)
    v = _edge_operand(fmt, 8, kind)
    full = _apply(fmt, True, v)
    for j in range(v.shape[1]):
        solo = _apply(fmt, True, np.ascontiguousarray(v[:, j]))
        _assert_same(solo, full[:, j], kind, err_msg=f"column {j}")


@pytest.mark.parametrize("kind", EDGE_KINDS)
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("variant", ["z", "m"])
def test_b_adjoint_vector_matches_numpy_edges(edge_data, monkeypatch,
                                              variant, threads, kind):
    """(b) for the same cases: the C vector adjoint has NaNs and signed
    infinities where NumPy has them, and its finite entries agree within
    :data:`C_VS_NUMPY_TOL`."""
    fmt = _fmt(edge_data, variant, threads)
    v = _edge_operand(fmt, 1, kind)[:, 0]
    monkeypatch.setattr(config.runtime, "backend", "numpy")
    with np.errstate(invalid="ignore"):  # 0 * inf and inf - inf
        ref = _apply(fmt, True, v)
    monkeypatch.setattr(config.runtime, "backend", "auto")
    if dispatch.backend_in_use() != "c":
        pytest.skip("compiled kernels unavailable")
    got = _apply(fmt, True, v).astype(np.float64)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
    np.testing.assert_array_equal(np.isinf(got) * np.sign(got),
                                  np.isinf(ref) * np.sign(ref))
    finite = np.isfinite(ref)
    assert finite.any()
    err = np.abs(got[finite] - ref[finite]).max()
    assert err <= C_VS_NUMPY_TOL[fmt.dtype] * np.abs(ref[finite]).max()


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_c_csr_batch_column_equals_solo(kernels, dtype):
    """(c) for ``csr``'s one-pass ``spmm`` (C ``csr_spmm``, or one NumPy
    ``reduceat`` over all columns): column j is its ``(·, 1)`` solo run."""
    coo, _ = build_ct_matrix(33, dtype=dtype)
    fmt = build_format("csr", coo)
    v = _operand(fmt, False, 8, 12)
    full = fmt.spmm(v)
    for j in range(v.shape[1]):
        solo = fmt.spmm(np.ascontiguousarray(v[:, j:j + 1]))
        np.testing.assert_array_equal(_bits(full[:, j]), _bits(solo[:, 0]),
                                      err_msg=f"column {j}")
