"""Tests for the noise model, SpMM, damped CGLS, and the report helpers."""

import numpy as np
import pytest

from repro.api import build_ct_matrix, reconstruct
from repro.bench.harness import PerfRecord
from repro.bench.report import (
    comparison_table,
    ordering_agreement,
    records_vs_paper,
    speedup_lines,
)
from repro.core.format_z import CSCVZMatrix
from repro.core.params import CSCVParams
from repro.errors import ValidationError
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.geometry.phantom import disk_phantom
from repro.recon import ProjectionOperator, relative_error
from repro.recon.noise import (
    add_poisson_noise,
    dose_sweep_snrs,
    log_transform,
    sinogram_snr,
    transmission_counts,
)
from repro.sparse import CSRMatrix


@pytest.fixture(scope="module")
def problem():
    geom = ParallelBeamGeometry.for_image(24, num_views=48)
    coo, geom = build_ct_matrix(24, geom=geom)
    truth = disk_phantom(24, radius_frac=0.5).ravel()
    csr = CSRMatrix.from_coo_matrix(coo)
    sino = csr.spmv(truth)
    return coo, geom, csr, truth, sino


class TestNoise:
    def test_counts_scale_with_dose(self, problem):
        *_, sino = problem
        lo = transmission_counts(sino, i0=1e3, seed=0).mean()
        hi = transmission_counts(sino, i0=1e5, seed=0).mean()
        assert hi > 50 * lo

    def test_log_transform_inverts_expectation(self, problem):
        *_, sino = problem
        # at very high dose the noisy sinogram converges to the clean one
        noisy = add_poisson_noise(sino, i0=1e9, seed=1)
        assert relative_error(noisy, sino) < 0.01

    def test_snr_monotone_in_dose(self, problem):
        *_, sino = problem
        snrs = dose_sweep_snrs(sino, doses=(1e3, 1e4, 1e5))
        vals = [snrs[k] for k in sorted(snrs)]
        assert vals[0] < vals[1] < vals[2]

    def test_zero_counts_clamped(self):
        y = log_transform(np.zeros(4), i0=100.0)
        assert np.all(np.isfinite(y))
        assert np.all(y == pytest.approx(np.log(100.0)))

    def test_validation(self, problem):
        *_, sino = problem
        with pytest.raises(ValidationError):
            transmission_counts(sino, i0=0.0)
        with pytest.raises(ValidationError):
            transmission_counts(-np.ones(3), i0=10.0)
        with pytest.raises(ValidationError):
            sinogram_snr(np.ones(3), np.ones(4))

    def test_snr_infinite_for_identical(self, problem):
        *_, sino = problem
        assert sinogram_snr(sino, sino) == float("inf")

    def test_reconstruction_degrades_gracefully_with_noise(self, problem):
        coo, geom, csr, truth, sino = problem
        op = ProjectionOperator(csr)
        clean = reconstruct(op, sino, solver="cgls", iterations=15).image
        noisy = reconstruct(op, add_poisson_noise(sino, i0=1e4, seed=2),
                            solver="cgls", iterations=15, damping=0.05).image
        assert relative_error(clean, truth) < relative_error(noisy, truth) < 0.8


class TestSpMM:
    def test_matches_column_spmv(self, problem, rng):
        coo, geom, csr, *_ = problem
        X = rng.standard_normal((coo.shape[1], 4))
        Y = csr.spmm(X)
        for j in range(4):
            np.testing.assert_allclose(Y[:, j], csr.spmv(X[:, j]), rtol=1e-10)

    def test_cscv_spmm_default_path(self, problem, rng):
        coo, geom, *_ = problem
        z = CSCVZMatrix.from_ct(coo, geom, CSCVParams(8, 8, 2))
        X = rng.standard_normal((coo.shape[1], 3))
        Y = z.spmm(X)
        dense = coo.to_dense()
        np.testing.assert_allclose(Y, dense @ X, rtol=1e-6, atol=1e-8)

    def test_matmul_dispatches_2d(self, problem, rng):
        coo, geom, csr, *_ = problem
        X = rng.standard_normal((coo.shape[1], 2))
        np.testing.assert_allclose(csr @ X, csr.spmm(X))

    def test_shape_validation(self, problem):
        coo, geom, csr, *_ = problem
        with pytest.raises(ValidationError):
            csr.spmm(np.ones((coo.shape[1] + 1, 2)))

    def test_empty_rhs_block(self, problem):
        coo, geom, csr, *_ = problem
        Y = csr.spmm(np.zeros((coo.shape[1], 0)))
        assert Y.shape == (coo.shape[0], 0)


class TestDampedCGLS:
    def test_damping_shrinks_solution_norm(self, problem):
        coo, geom, csr, truth, sino = problem
        op = ProjectionOperator(csr)
        x0 = reconstruct(op, sino, solver="cgls", iterations=20, damping=0.0).image
        x1 = reconstruct(op, sino, solver="cgls", iterations=20, damping=10.0).image
        assert np.linalg.norm(x1) < np.linalg.norm(x0)

    def test_negative_damping_rejected(self, problem):
        coo, geom, csr, truth, sino = problem
        with pytest.raises(ValidationError):
            reconstruct(ProjectionOperator(csr), sino, solver="cgls", damping=-1.0)


class TestReport:
    def _records(self):
        return [
            PerfRecord("cscv-m", "float32", 0.001, 80.0, 1e6, 10.0, 1000),
            PerfRecord("cscv-z", "float32", 0.001, 60.0, 1e6, 10.0, 1000),
            PerfRecord("mkl-csr", "float32", 0.002, 30.0, 1e6, 10.0, 1000),
            PerfRecord("spc5", "float32", 0.002, 40.0, 1e6, 10.0, 1000),
        ]

    def test_records_vs_paper(self):
        out = records_vs_paper(self._records(), {"cscv-m": 85.5, "mkl-csr": 31.2})
        assert "cscv-m" in out and "85.50" in out

    def test_speedup_lines(self):
        out = speedup_lines(self._records())
        assert "vs MKL-CSR: 2.67x" in out
        assert "second place (spc5): 2.00x" in out

    def test_speedup_lines_no_cscv(self):
        assert "no CSCV" in speedup_lines(
            [PerfRecord("csr", "float32", 1.0, 1.0, 1.0, 1.0, 1)]
        )

    def test_ordering_agreement_perfect(self):
        ours = {"a": 3.0, "b": 2.0, "c": 1.0}
        paper = {"a": 30.0, "b": 20.0, "c": 10.0}
        assert ordering_agreement(ours, paper) == 1.0

    def test_ordering_agreement_partial(self):
        ours = {"a": 1.0, "b": 2.0, "c": 3.0}
        paper = {"a": 3.0, "b": 2.0, "c": 1.0}
        assert ordering_agreement(ours, paper) == 0.0

    def test_comparison_table_marks(self):
        out = comparison_table(
            "t", [("x", 1.0), ("y", 5.0)], headers=["n", "v"], mark_columns=(1,)
        )
        assert "5.00*" in out

    def test_model_vs_paper_ordering_agreement(self):
        """The quantitative shape claim: model ordering matches Table IV."""
        from repro.api import build_format
        from repro.bench.datasets import get_dataset
        from repro.bench.experiments.table4 import PAPER_TABLE4, _cscv_params
        from repro.perfmodel import SKL, predict_gflops

        coo, geom = get_dataset("clinical-small").load(dtype=np.float32)
        paper = PAPER_TABLE4[("skl", "single")]
        params = _cscv_params("single")
        ours = {}
        for name in paper:
            fmt = build_format(name, coo, geom=geom, params=params.get(name))
            ours[name] = predict_gflops(fmt, SKL, 64)
        assert ordering_agreement(ours, {k: v[0] for k, v in paper.items()}) >= 0.8
