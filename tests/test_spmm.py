"""Batched multi-RHS SpMV (SpMM) tests: drivers, formats, solvers, bugfixes.

Covers the whole batched stack — the C and NumPy SpMM paths against
per-column SpMV, NumPy-vs-C equality at any thread count, batched
solvers against their single-sinogram runs — plus the bugfix sweep that
rode along: O(nnz) adjoint fallback (no densification), CSCV file
validation, and the autotune None-guard.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.api import build_ct_matrix, build_format
from repro.core.builder import build_cscv
from repro.core.format_m import CSCVMMatrix
from repro.core.format_z import CSCVZMatrix
from repro.core.params import CSCVParams
from repro.errors import AutotuneError, FormatError
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix

BATCHES = (1, 3, 16)


def _tol(dtype):
    return dict(rtol=2e-4, atol=2e-5) if np.dtype(dtype) == np.float32 else dict(
        rtol=1e-10, atol=1e-12
    )


def _per_column(fmt, X):
    return np.column_stack(
        [fmt.spmv(np.ascontiguousarray(X[:, j])) for j in range(X.shape[1])]
    )


# ---------------------------------------------------------------------- #
# SpMM vs per-column SpMV across formats, batches and backends


class TestSpMMEquivalence:
    @pytest.mark.parametrize("name", ["csr", "cscv-z", "cscv-m"])
    @pytest.mark.parametrize("k", BATCHES)
    def test_batched_matches_per_column(self, small_ct_f32, backend, rng, name, k):
        coo, geom = small_ct_f32
        fmt = build_format(name, coo, geom=geom, params=CSCVParams(8, 16, 2))
        X = np.ascontiguousarray(rng.random((fmt.shape[1], k)), dtype=fmt.dtype)
        np.testing.assert_allclose(
            fmt.spmm(X), _per_column(fmt, X), **_tol(fmt.dtype)
        )

    @pytest.mark.parametrize("name", ["csr", "cscv-z", "cscv-m"])
    def test_float64(self, small_ct, backend, rng, name):
        coo, geom = small_ct
        fmt = build_format(name, coo, geom=geom, params=CSCVParams(8, 16, 2))
        X = np.ascontiguousarray(rng.random((fmt.shape[1], 5)))
        np.testing.assert_allclose(
            fmt.spmm(X), _per_column(fmt, X), **_tol(np.float64)
        )

    def test_default_loop_fallback_formats(self, small_ct, rng):
        """Formats without a batched override use the per-column default."""
        coo, geom = small_ct
        for name in ("ell", "csr5", "spc5", "merge"):
            fmt = build_format(name, coo, geom=geom)
            X = np.ascontiguousarray(rng.random((fmt.shape[1], 3)))
            np.testing.assert_allclose(
                fmt.spmm(X), _per_column(fmt, X), **_tol(np.float64)
            )

    def test_matvec_dispatch(self, small_ct, rng):
        coo, geom = small_ct
        csr = build_format("csr", coo, geom=geom)
        x = rng.random(csr.shape[1])
        X = np.ascontiguousarray(rng.random((csr.shape[1], 2)))
        assert csr.matvec(x).ndim == 1
        assert csr.matvec(X).shape == (csr.shape[0], 2)
        np.testing.assert_allclose(csr @ X, csr.spmm(X))

    def test_empty_matrix(self, backend):
        geom = ParallelBeamGeometry.for_image(4)
        e = np.zeros(0)
        for cls in (CSCVZMatrix, CSCVMMatrix):
            fmt = cls.from_coo(
                (geom.num_rays, geom.num_pixels), e.astype(np.int64),
                e.astype(np.int64), e, geom=geom,
            )
            Y = fmt.spmm(np.ones((geom.num_pixels, 3)))
            assert Y.shape == (geom.num_rays, 3)
            assert not Y.any()
        csr = CSRMatrix.from_coo((5, 4), e.astype(np.int64), e.astype(np.int64), e)
        assert not csr.spmm(np.ones((4, 3))).any()

    def test_zero_batch(self, small_ct):
        coo, geom = small_ct
        csr = build_format("csr", coo, geom=geom)
        Y = csr.spmm(np.zeros((csr.shape[1], 0)))
        assert Y.shape == (csr.shape[0], 0)


# ---------------------------------------------------------------------- #
# NumPy vs C equality; threads= must not change the NumPy result


class TestDriverEquality:
    @pytest.fixture(scope="class", params=[np.float32, np.float64])
    def data(self, request):
        coo, geom = build_ct_matrix(32, dtype=request.param)
        return build_cscv(
            coo.rows, coo.cols, coo.vals, geom, CSCVParams(8, 8, 2), request.param
        )

    def _run(self, cls, data, threads, backend_name, x_or_X):
        prev = config.runtime.backend
        config.runtime.backend = backend_name
        try:
            fmt = cls(data, threads=threads)
            return fmt.spmm(x_or_X) if x_or_X.ndim == 2 else fmt.spmv(x_or_X)
        finally:
            config.runtime.backend = prev

    @pytest.mark.parametrize("cls", [CSCVZMatrix, CSCVMMatrix])
    def test_spmv_flat_threaded_c_agree(self, data, cls, rng):
        assert data.num_blocks >= 8  # enough blocks for several threads
        x = rng.random(data.shape[1]).astype(data.dtype)
        flat = self._run(cls, data, 1, "numpy", x)
        threaded = self._run(cls, data, 4, "numpy", x)
        np.testing.assert_allclose(threaded, flat, **_tol(data.dtype))
        c = self._run(cls, data, 4, "auto", x)
        np.testing.assert_allclose(c, flat, **_tol(data.dtype))

    @pytest.mark.parametrize("cls", [CSCVZMatrix, CSCVMMatrix])
    @pytest.mark.parametrize("k", BATCHES)
    def test_spmm_flat_threaded_c_agree(self, data, cls, rng, k):
        X = np.ascontiguousarray(rng.random((data.shape[1], k)), dtype=data.dtype)
        flat = self._run(cls, data, 1, "numpy", X)
        threaded = self._run(cls, data, 4, "numpy", X)
        np.testing.assert_allclose(threaded, flat, **_tol(data.dtype))
        c = self._run(cls, data, 4, "auto", X)
        np.testing.assert_allclose(c, flat, **_tol(data.dtype))

    def test_single_block_threads_exceed_blocks(self, rng):
        """threads > num_blocks leaves the NumPy result unchanged."""
        coo, geom = build_ct_matrix(16, dtype=np.float32)
        data = build_cscv(
            coo.rows, coo.cols, coo.vals, geom, CSCVParams(8, 16, 2), np.float32
        )
        assert data.num_blocks == 1
        X = np.ascontiguousarray(rng.random((data.shape[1], 3)), dtype=np.float32)
        prev = config.runtime.backend
        config.runtime.backend = "numpy"
        try:
            few = CSCVZMatrix(data, threads=1).spmm(X)
            many = CSCVZMatrix(data, threads=8).spmm(X)
        finally:
            config.runtime.backend = prev
        np.testing.assert_allclose(many, few, **_tol(np.float32))


# ---------------------------------------------------------------------- #
# batched operator + solvers


class TestBatchedRecon:
    @pytest.fixture(scope="class")
    def problem(self):
        coo, geom = build_ct_matrix(24, dtype=np.float32)
        return coo, geom

    def test_operator_batched_forward_adjoint(self, problem, rng):
        from repro.recon import ProjectionOperator

        coo, geom = problem
        op = ProjectionOperator(
            build_format("cscv-z", coo, geom=geom, params=CSCVParams(8, 8, 2))
        )
        X = rng.random((op.shape[1], 3)).astype(np.float32)
        Y = op.forward(X)
        assert Y.shape == (op.shape[0], 3)
        np.testing.assert_allclose(
            Y[:, 1], op.forward(np.ascontiguousarray(X[:, 1])), **_tol(np.float32)
        )
        B = op.adjoint(Y)
        assert B.shape == (op.shape[1], 3)
        np.testing.assert_allclose(
            B[:, 2], op.adjoint(np.ascontiguousarray(Y[:, 2])), **_tol(np.float32)
        )

    def test_sirt_stack_matches_columns(self, problem, rng):
        from repro.recon import ProjectionOperator, sirt_reconstruct

        coo, geom = problem
        op = ProjectionOperator(build_format("csr", coo, geom=geom))
        truth = rng.random((op.shape[1], 3)).astype(np.float32)
        sino = op.forward(truth)
        stack = sirt_reconstruct(op, sino, iterations=5)
        assert stack.shape == truth.shape
        for j in range(3):
            single = sirt_reconstruct(
                op, np.ascontiguousarray(sino[:, j]), iterations=5
            )
            np.testing.assert_allclose(stack[:, j], single, rtol=1e-4, atol=1e-5)

    def test_cgls_stack_matches_columns(self, problem, rng):
        from repro.recon import ProjectionOperator, cgls_reconstruct

        coo, geom = problem
        op = ProjectionOperator(build_format("csr", coo, geom=geom))
        truth = rng.random((op.shape[1], 3)).astype(np.float32)
        sino = op.forward(truth)
        stack = cgls_reconstruct(op, sino, iterations=6)
        for j in range(3):
            single = cgls_reconstruct(
                op, np.ascontiguousarray(sino[:, j]), iterations=6
            )
            np.testing.assert_allclose(stack[:, j], single, rtol=1e-3, atol=1e-4)

    def test_os_sart_stack_matches_columns(self, problem, rng):
        from repro.recon.os_sart import os_sart_reconstruct

        coo, geom = problem
        csr = CSRMatrix.from_coo_matrix(coo.astype(np.float32))
        sino = csr.spmm(rng.random((csr.shape[1], 2)).astype(np.float32))
        stack = os_sart_reconstruct(csr, geom, sino, iterations=2, num_subsets=4)
        for j in range(2):
            single = os_sart_reconstruct(
                csr, geom, np.ascontiguousarray(sino[:, j]),
                iterations=2, num_subsets=4,
            )
            np.testing.assert_allclose(stack[:, j], single, rtol=1e-4, atol=1e-5)


# ---------------------------------------------------------------------- #
# adjoint fallback: O(nnz), never densifies (bugfix regression)


class TestAdjointFallback:
    def test_no_to_dense_on_adjoint_path(self, small_ct_f32, rng):
        from repro.recon.linops import ProjectionOperator

        coo, geom = small_ct_f32
        fmt = build_format("csr5", coo, geom=geom)  # has no transpose_spmv
        assert not hasattr(fmt, "transpose_spmv")
        dense_t = fmt.to_dense().T  # reference, computed before poisoning

        def boom():  # pragma: no cover - must never run
            raise AssertionError("adjoint path densified the matrix")

        fmt.to_dense = boom
        op = ProjectionOperator(fmt)
        y = rng.random(fmt.shape[0]).astype(np.float32)
        np.testing.assert_allclose(
            op.adjoint(y), dense_t @ y, **_tol(np.float32)
        )
        Y = rng.random((fmt.shape[0], 3)).astype(np.float32)
        np.testing.assert_allclose(
            op.adjoint(Y), dense_t @ Y, **_tol(np.float32)
        )

    def test_norm_helpers_use_triplets(self, small_ct, rng):
        from repro.recon.linops import ProjectionOperator

        coo, geom = small_ct
        fmt = build_format("csr", coo, geom=geom)
        dense = fmt.to_dense()
        fmt.to_dense = lambda: (_ for _ in ()).throw(AssertionError("densified"))
        op = ProjectionOperator(fmt)
        np.testing.assert_allclose(
            op.row_norms_sq(), (dense.astype(np.float64) ** 2).sum(axis=1)
        )
        np.testing.assert_allclose(
            op.col_norms_sq(), (dense.astype(np.float64) ** 2).sum(axis=0)
        )

    def test_all_shipped_formats_override_triplets(self, small_ct):
        """The base-class to_dense-backed default must stay unused in-tree."""
        from repro.sparse.matrix_base import SpMVFormat, _REGISTRY

        for cls in _REGISTRY.values():
            assert cls.to_coo_triplets is not SpMVFormat.to_coo_triplets or (
                cls.to_coo_triplets.__qualname__.startswith("_ScipyBacked")
            ), f"{cls.__name__} lacks a direct to_coo_triplets"


# ---------------------------------------------------------------------- #
# CSCV file validation (bugfix)


class TestLoadValidation:
    @pytest.fixture()
    def saved(self, tmp_path, small_ct_f32):
        from repro.core.io import save_cscv

        coo, geom = small_ct_f32
        data = build_cscv(
            coo.rows, coo.cols, coo.vals, geom, CSCVParams(8, 16, 2), np.float32
        )
        path = tmp_path / "m.npz"
        save_cscv(path, data)
        return path, data

    def _corrupt(self, path, tmp_path, **edits):
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        arrays.update(edits)
        out = tmp_path / "corrupt.npz"
        np.savez_compressed(out, **arrays)
        return out

    def test_roundtrip_still_works(self, saved):
        from repro.core.io import load_cscv

        path, data = saved
        loaded = load_cscv(path)
        np.testing.assert_array_equal(loaded.values, data.values)
        assert loaded.nnz == data.nnz

    def test_short_meta_rejected(self, saved, tmp_path):
        from repro.core.io import load_cscv

        path, _ = saved
        bad = self._corrupt(path, tmp_path, _meta=np.array([1, 2, 3], dtype=np.int64))
        with pytest.raises(FormatError, match="_meta"):
            load_cscv(bad)

    def test_truncated_packed_rejected(self, saved, tmp_path):
        from repro.core.io import load_cscv

        path, data = saved
        bad = self._corrupt(path, tmp_path, packed=data.packed[:-3])
        with pytest.raises(FormatError, match="packed"):
            load_cscv(bad)

    def test_truncated_values_rejected(self, saved, tmp_path):
        from repro.core.io import load_cscv

        path, data = saved
        bad = self._corrupt(path, tmp_path, values=data.values[:-1])
        with pytest.raises(FormatError, match="values"):
            load_cscv(bad)

    def test_nonmonotone_block_ptr_rejected(self, saved, tmp_path):
        from repro.core.io import load_cscv

        path, data = saved
        broken = data.blk_vxg_ptr.copy()
        if broken.size > 2:
            broken[1] = broken[-1] + 5  # spike: later entries now decrease
        bad = self._corrupt(path, tmp_path, blk_vxg_ptr=broken)
        with pytest.raises(FormatError, match="blk_vxg_ptr"):
            load_cscv(bad)

    def test_ysize_map_mismatch_rejected(self, saved, tmp_path):
        from repro.core.io import load_cscv

        path, data = saved
        broken = data.blk_ysize.copy()
        broken[0] += 1
        bad = self._corrupt(path, tmp_path, blk_ysize=broken)
        with pytest.raises(FormatError, match="blk_ysize|maps"):
            load_cscv(bad)


# ---------------------------------------------------------------------- #
# autotune: measured scorer must not crash on missing timings (bugfix)


class TestAutotuneGuard:
    def test_measure_without_timings_raises_named_combo(self, small_ct_f32, monkeypatch):
        import repro.core.autotune as at

        coo, geom = small_ct_f32

        def fake_sweep(*a, **kw):
            return [
                at.SweepPoint(
                    params=CSCVParams(8, 16, 2), r_nnze=0.1,
                    memory_z=1.0, memory_m=1.0,
                )
            ]

        monkeypatch.setattr(at, "parameter_sweep", fake_sweep)
        with pytest.raises(AutotuneError, match=r"s_vvec=8.*s_imgb=16.*s_vxg=2"):
            at.autotune_parameters(coo, geom, scorer="measure")
