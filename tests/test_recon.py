"""Tests for the reconstruction application layer."""

import numpy as np
import pytest

from repro.api import build_ct_matrix, operator, reconstruct
from repro.core.format_z import CSCVZMatrix
from repro.core.params import CSCVParams
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.geometry.phantom import disk_phantom, shepp_logan
from repro.recon import (
    ProjectionOperator,
    fbp_reconstruct,
    kaczmarz_sweep,
    psnr,
    relative_error,
    rmse,
)
from repro.recon.fbp import filter_sinogram, ramp_filter
from repro.recon.icd import icd_single_update
from repro.recon.metrics import correlation
from repro.sparse import CSCMatrix, CSRMatrix


@pytest.fixture(scope="module")
def problem():
    geom = ParallelBeamGeometry.for_image(32, num_views=64)
    coo, geom = build_ct_matrix(32, geom=geom)
    truth = shepp_logan(32).ravel()
    csr = CSRMatrix.from_coo_matrix(coo)
    op = ProjectionOperator(csr)
    sino = op.forward(truth)
    return coo, geom, op, truth, sino


class TestProjectionOperator:
    def test_forward_matches_format(self, problem):
        coo, _, op, truth, _ = problem
        np.testing.assert_allclose(op.forward(truth), coo.to_dense() @ truth)

    def test_adjoint_native(self, problem, rng):
        coo, _, op, _, _ = problem
        y = rng.random(op.shape[0])
        np.testing.assert_allclose(op.adjoint(y), coo.to_dense().T @ y, rtol=1e-10)

    def test_adjoint_fallback_for_formats_without_transpose(self, rng):
        # ELL has no native transpose; the operator must build a fallback
        from repro.sparse import ELLMatrix

        geom = ParallelBeamGeometry.for_image(12, num_views=8)
        coo, geom = build_ct_matrix(12, geom=geom)
        op = ProjectionOperator(ELLMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals))
        y = rng.random(op.shape[0])
        np.testing.assert_allclose(op.adjoint(y), coo.to_dense().T @ y, rtol=1e-9)

    def test_adjoint_identity_cscv(self, rng):
        geom = ParallelBeamGeometry.for_image(16, num_views=32)
        coo, geom = build_ct_matrix(16, geom=geom)
        op = ProjectionOperator(CSCVZMatrix.from_ct(coo, geom, CSCVParams(8, 8, 2)))
        x = rng.random(op.shape[1])
        y = rng.random(op.shape[0])
        assert float(op.forward(x) @ y) == pytest.approx(float(x @ op.adjoint(y)), rel=1e-9)


class TestSIRT:
    def test_reduces_residual(self, problem):
        _, _, op, truth, sino = problem
        errs = []
        reconstruct(op, sino, solver="sirt", iterations=15,
                    callback=lambda e: errs.append(e.norm))
        assert errs[-1] < errs[0]

    def test_converges_toward_truth(self, problem):
        _, _, op, truth, sino = problem
        x = reconstruct(op, sino, solver="sirt", iterations=80).image
        assert relative_error(x, truth) < 0.35

    def test_nonneg_enforced(self, problem):
        _, _, op, _, sino = problem
        x = reconstruct(op, sino, solver="sirt", iterations=5).image
        assert x.min() >= 0

    def test_rtol_early_exit(self, problem):
        _, _, op, _, sino = problem
        count = []
        reconstruct(op, sino, solver="sirt", iterations=100, rtol=0.9,
                    callback=lambda e: count.append(e.k))
        assert len(count) < 100

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 8])
    def test_weights_computed_once_per_operator(self, k, dtype, monkeypatch):
        """Three solves on one operator compute the SART weights once and
        equal, bit for bit, the same solves on fresh operators."""
        from repro.recon import sirt

        computed = []

        def counting(*args):
            computed.append(args[2])
            return real(*args)

        real = sirt.sart_weights
        monkeypatch.setattr(sirt, "sart_weights", counting)
        op = operator(16, dtype=dtype)
        rng = np.random.default_rng(k)
        shape = (op.shape[1],) if k == 1 else (op.shape[1], k)
        sinos = [op.forward(rng.random(shape).astype(dtype)) for _ in range(3)]
        shared = [reconstruct(op, y, solver="sirt", iterations=4).image
                  for y in sinos]
        reconstruct(op, sinos[0], solver="art", iterations=2)  # ART shares them
        assert len(computed) == 1
        assert not op.sart_weights()[0].flags.writeable
        for y, image in zip(sinos, shared):
            fresh = reconstruct(operator(16, dtype=dtype), y, solver="sirt",
                                iterations=4).image
            assert np.array_equal(image, fresh)
        assert len(computed) == 4

    def test_invalid_args(self, problem):
        from repro.errors import ValidationError

        _, _, op, _, sino = problem
        with pytest.raises(ValidationError):
            reconstruct(op, sino, solver="sirt", iterations=0)
        with pytest.raises(ValidationError):
            reconstruct(op, sino, solver="sirt", relax=5.0)


class TestCGLS:
    def test_beats_sirt_at_equal_iterations(self, problem):
        _, _, op, truth, sino = problem
        x_cgls = reconstruct(op, sino, solver="cgls", iterations=20).image
        x_sirt = reconstruct(op, sino, solver="sirt", iterations=20).image
        assert relative_error(x_cgls, truth) < relative_error(x_sirt, truth)

    def test_monotone_normal_residual(self, problem):
        _, _, op, _, sino = problem
        norms = []
        reconstruct(op, sino, solver="cgls", iterations=15,
                    callback=lambda e: norms.append(e.norm))
        assert norms[-1] < norms[0]

    def test_consistent_system_high_accuracy(self):
        # tiny consistent system: CGLS should nearly solve it
        geom = ParallelBeamGeometry.for_image(8, num_views=24)
        coo, geom = build_ct_matrix(8, geom=geom)
        op = ProjectionOperator(CSRMatrix.from_coo_matrix(coo))
        truth = disk_phantom(8, radius_frac=0.6).ravel()
        sino = op.forward(truth)
        x = reconstruct(op, sino, solver="cgls", iterations=60).image
        assert relative_error(op.forward(x), sino) < 1e-3


class TestART:
    def test_blocked_art_converges(self, problem):
        _, _, op, truth, sino = problem
        x = reconstruct(op, sino, solver="art", iterations=40, relax=0.9).image
        assert relative_error(x, truth) < 0.6

    def test_kaczmarz_sweep_reduces_residual(self, problem, rng):
        coo, _, op, truth, sino = problem
        csr = CSRMatrix.from_coo_matrix(coo)
        x = np.zeros(op.shape[1])
        rows, _, vals = csr.to_coo_triplets()
        norms = np.bincount(rows, weights=vals.astype(np.float64) ** 2,
                            minlength=csr.shape[0])
        kaczmarz_sweep(csr, x, sino, norms)
        r_after = np.linalg.norm(sino - op.forward(x))
        assert r_after < np.linalg.norm(sino)


def _col_norms_sq(csc) -> np.ndarray:
    """``||a_j||^2`` per column of a CSC matrix."""
    cols = np.repeat(np.arange(csc.shape[1]), np.diff(csc.col_ptr))
    return np.bincount(cols, weights=csc.vals.astype(np.float64) ** 2,
                       minlength=csc.shape[1])


class TestICD:
    @pytest.fixture(scope="class")
    def csc_problem(self):
        geom = ParallelBeamGeometry.for_image(16, num_views=32)
        coo, geom = build_ct_matrix(16, geom=geom)
        truth = disk_phantom(16, radius_frac=0.5).ravel()
        csc = CSCMatrix.from_coo_matrix(coo)
        sino = csc.spmv(truth)
        return ProjectionOperator(csc), truth, sino

    def test_residual_decreases_per_sweep(self, csc_problem):
        op, truth, sino = csc_problem
        events = []
        reconstruct(op, sino, solver="icd", iterations=4, callback=events.append)
        assert [e.k for e in events] == [0, 1, 2, 3]
        assert all(e.solver == "icd" and e.meaning == "residual" for e in events)
        rs = [e.norm for e in events]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(rs, rs[1:]))

    def test_converges(self, csc_problem):
        op, truth, sino = csc_problem
        x = reconstruct(op, sino, solver="icd", iterations=8).image
        assert relative_error(x, truth) < 0.4

    def test_single_update_is_exact_minimiser(self, csc_problem):
        # after updating coordinate j, the residual is orthogonal to a_j
        op, truth, sino = csc_problem
        csc = op.fmt
        x = np.zeros(csc.shape[1])
        r = sino.astype(np.float64).copy()
        norms = _col_norms_sq(csc)
        j = csc.shape[1] // 2
        icd_single_update(csc, x, r, j, norms)
        a, b = int(csc.col_ptr[j]), int(csc.col_ptr[j + 1])
        assert abs(csc.vals[a:b] @ r[csc.row_idx[a:b]]) < 1e-8

    def test_single_update_clamps_at_nonneg(self, csc_problem):
        # a step that would drive x_j below zero stops at zero exactly
        op, _, sino = csc_problem
        csc = op.fmt
        j = csc.shape[1] // 2
        x = np.zeros(csc.shape[1])
        r = -sino.astype(np.float64)
        norms = _col_norms_sq(csc)
        r_before = r.copy()
        free = icd_single_update(csc, x.copy(), r.copy(), j, norms)
        assert free < 0.0
        assert icd_single_update(csc, x, r, j, norms, nonneg=True) == 0.0
        assert x[j] == 0.0 and np.array_equal(r, r_before)

    def test_random_order_also_converges(self, csc_problem):
        op, truth, sino = csc_problem
        x = reconstruct(op, sino, solver="icd", iterations=8, order="random",
                        seed=1).image
        assert relative_error(x, truth) < 0.6

    def test_invalid_order(self, csc_problem):
        from repro.errors import ValidationError

        op, _, sino = csc_problem
        with pytest.raises(ValidationError, match="order"):
            reconstruct(op, sino, solver="icd", order="spiral")
        with pytest.raises(ValidationError, match="iterations"):
            reconstruct(op, sino, solver="icd", iterations=0)

    @pytest.mark.parametrize("order", ["sequential", "random"])
    @pytest.mark.parametrize("fmt", ["cscv-z", "cscv-m", "csr"])
    def test_every_format_equals_csc_bitwise(self, fmt, order):
        # ICD reads columns from a CSC copy of any other format; the copy
        # of the same float32 matrix is the CSC itself, so images match
        geom = ParallelBeamGeometry.for_image(16, num_views=24)
        ref = operator(geom, fmt="csc", cache=False)
        other = operator(geom, fmt=fmt, cache=False)
        assert ref.dtype == other.dtype == np.float32
        sino = ref.forward(disk_phantom(16, radius_frac=0.5).ravel()
                           .astype(ref.dtype))
        kw = dict(iterations=3, order=order, seed=2)
        want = reconstruct(ref, sino, solver="icd", **kw).image
        got = reconstruct(other, sino, solver="icd", **kw).image
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_csc_copy_is_made_once_per_operator(self, monkeypatch):
        geom = ParallelBeamGeometry.for_image(16, num_views=24)
        op = operator(geom, fmt="cscv-z", cache=False)
        sino = op.forward(disk_phantom(16, radius_frac=0.5).ravel()
                          .astype(op.dtype))
        calls = []
        triplets = op.fmt.to_coo_triplets
        monkeypatch.setattr(op.fmt, "to_coo_triplets",
                            lambda: calls.append(1) or triplets())
        first = reconstruct(op, sino, solver="icd", iterations=1).image
        second = reconstruct(op, sino, solver="icd", iterations=1).image
        assert len(calls) == 1
        assert np.array_equal(first, second)


class TestFBP:
    def test_ramp_filter_shape(self):
        f = ramp_filter(64)
        assert f.shape == (128,)
        assert f[0] == 0.0  # DC removed

    def test_hann_below_ramlak(self):
        assert ramp_filter(32, window="hann").max() <= ramp_filter(32).max()

    def test_filter_sinogram_preserves_shape(self, problem):
        _, geom, _, _, sino = problem
        out = filter_sinogram(sino, geom)
        assert out.shape == sino.shape

    def test_fbp_recovers_structure(self, problem):
        _, geom, op, truth, sino = problem
        x = fbp_reconstruct(op, sino, geom)
        assert correlation(x, truth) > 0.75

    def test_bad_window(self, problem):
        from repro.errors import ValidationError

        _, geom, op, _, sino = problem
        with pytest.raises(ValidationError):
            fbp_reconstruct(op, sino, geom, window="hamming")


class TestMetrics:
    def test_rmse_zero_for_identical(self):
        a = np.ones((4, 4))
        assert rmse(a, a) == 0.0

    def test_psnr_infinite_for_identical(self):
        a = np.ones(8)
        assert psnr(a, a) == float("inf")

    def test_relative_error_scale(self):
        ref = np.array([3.0, 4.0])
        assert relative_error(ref * 1.1, ref) == pytest.approx(0.1)

    def test_shape_mismatch(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            rmse(np.ones(3), np.ones(4))

    def test_correlation_bounds(self, rng):
        a = rng.random(50)
        assert correlation(a, a) == pytest.approx(1.0)
        assert -1.0 <= correlation(a, rng.random(50)) <= 1.0


class TestSolversThroughCSCV:
    def test_sirt_with_cscv_operator_matches_csr(self):
        geom = ParallelBeamGeometry.for_image(16, num_views=32)
        coo, geom = build_ct_matrix(16, geom=geom)
        truth = disk_phantom(16, radius_frac=0.5).ravel()
        op_csr = ProjectionOperator(CSRMatrix.from_coo_matrix(coo))
        op_cscv = ProjectionOperator(CSCVZMatrix.from_ct(coo, geom, CSCVParams(8, 8, 2)))
        sino = op_csr.forward(truth)
        x_a = reconstruct(op_csr, sino, solver="sirt", iterations=10).image
        x_b = reconstruct(op_cscv, sino.astype(np.float64), solver="sirt",
                          iterations=10).image
        assert relative_error(x_a, x_b) < 1e-6
