"""Tests for the extension systems: fan-beam geometry, attenuated (SPECT)
operator, BTB ablation mode, CSCV serialization, OS-SART, host calibration
and the CLI."""

import numpy as np
import pytest

from repro.core.builder import build_cscv
from repro.core.format_m import CSCVMMatrix
from repro.core.format_z import CSCVZMatrix
from repro.core.io import load_cscv, save_cscv
from repro.core.params import CSCVParams
from repro.errors import FormatError, GeometryError
from repro.geometry.attenuated import (
    attenuated_strip_matrix,
    attenuation_depths,
    attenuation_factor_range,
)
from repro.geometry.fan_beam import FanBeamGeometry
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.geometry.projector_fan import fan_strip_matrix, fan_strip_view
from repro.geometry.projector_strip import strip_area_matrix
from repro.sparse import COOMatrix, CSRMatrix


@pytest.fixture(scope="module")
def fan_geom():
    return FanBeamGeometry.for_image(24, num_views=48)


@pytest.fixture(scope="module")
def fan_problem(fan_geom):
    rows, cols, vals = fan_strip_matrix(fan_geom, dtype=np.float32)
    coo = COOMatrix.from_coo(fan_geom.shape, rows, cols, vals, dtype=np.float32)
    return coo, fan_geom


class TestFanBeamGeometry:
    def test_validation(self):
        with pytest.raises(GeometryError):
            FanBeamGeometry(image_size=16, num_bins=32, num_views=8,
                            delta_angle_deg=5.0, source_radius=5.0)

    def test_fan_angle_auto_sized(self, fan_geom):
        assert 0 < fan_geom.fan_angle_deg < 180

    def test_center_on_central_ray(self, fan_geom):
        # the rotation centre lies on the central ray at every view
        for v in (0, 7, 23):
            g = fan_geom.fan_coordinate(0.0, 0.0, v)
            assert abs(float(g)) < 1e-9

    def test_gamma_to_bin_center(self, fan_geom):
        assert float(fan_geom.gamma_to_bin(0.0)) == pytest.approx(fan_geom.num_bins / 2)

    def test_footprint_shrinks_with_distance(self, fan_geom):
        # pixel near the source subtends a larger angle than one far away
        sx, sy = fan_geom.source_position(0)
        near = fan_geom.pixel_footprint_halfangle(sx * 0.3, sy * 0.3, 0)
        far = fan_geom.pixel_footprint_halfangle(-sx * 0.3, -sy * 0.3, 0)
        assert float(near) > float(far)

    def test_describe(self, fan_geom):
        assert "fan-beam" in fan_geom.describe()["geometry"]


class TestFanProjector:
    def test_view_rows_in_view(self, fan_geom):
        rows, cols, vals = fan_strip_view(fan_geom, 5)
        assert np.all(rows // fan_geom.num_bins == 5)
        assert np.all(vals > 0)

    def test_density_similar_to_parallel(self, fan_problem):
        coo, geom = fan_problem
        density = coo.nnz / (geom.num_pixels * geom.num_views)
        assert 1.5 < density < 4.0

    def test_every_pixel_seen_every_view(self, fan_problem):
        coo, geom = fan_problem
        # the fan covers the whole image: every column has ~num_views hits
        per_col = coo.col_nnz()
        assert per_col.min() >= geom.num_views  # >= 1 bin per view


class TestFanBeamCSCV:
    @pytest.mark.parametrize("params", [CSCVParams(8, 8, 2), CSCVParams(16, 8, 1)])
    def test_cscv_correct_under_fan_beam(self, fan_problem, params, backend):
        coo, geom = fan_problem
        x = np.random.default_rng(3).random(coo.shape[1]).astype(np.float32)
        ref = CSRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals).spmv(x)
        for cls in (CSCVZMatrix, CSCVMMatrix):
            fmt = cls.from_ct(coo, geom, params)
            rel = np.abs(fmt.spmv(x) - ref).max() / np.abs(ref).max()
            assert rel < 5e-6

    def test_fan_padding_reasonable(self, fan_problem):
        coo, geom = fan_problem
        z = CSCVZMatrix.from_ct(coo, geom, CSCVParams(8, 8, 1))
        assert z.r_nnze < 2.0  # trajectories still piecewise parallel


class TestAttenuatedOperator:
    @pytest.fixture(scope="class")
    def geom(self):
        return ParallelBeamGeometry.for_image(16, num_views=24)

    def test_pattern_preserved(self, geom):
        r0, c0, _ = strip_area_matrix(geom)
        r1, c1, _ = attenuated_strip_matrix(geom, mu=0.05)
        assert np.array_equal(r0, r1) and np.array_equal(c0, c1)

    def test_zero_mu_is_identity(self, geom):
        _, _, v0 = strip_area_matrix(geom)
        _, _, v1 = attenuated_strip_matrix(geom, mu=0.0)
        np.testing.assert_allclose(v0, v1)

    def test_weights_decrease_with_mu(self, geom):
        _, _, v1 = attenuated_strip_matrix(geom, mu=0.02)
        _, _, v2 = attenuated_strip_matrix(geom, mu=0.2)
        assert v2.sum() < v1.sum()

    def test_depths_zero_outside_disk(self, geom):
        d = attenuation_depths(geom, radius=2.0)
        X, Y = geom.pixel_centers()
        outside = X**2 + Y**2 >= 4.0
        assert np.all(d[:, outside] == 0.0)

    def test_depth_bounded_by_diameter(self, geom):
        d = attenuation_depths(geom, radius=5.0)
        assert d.max() <= 10.0 + 1e-9

    def test_factor_range(self, geom):
        lo, hi = attenuation_factor_range(geom, mu=0.1)
        assert 0 < lo < 1 and hi == 1.0

    def test_cscv_on_spect_matrix(self, geom):
        rows, cols, vals = attenuated_strip_matrix(geom, mu=0.05, dtype=np.float32)
        coo = COOMatrix.from_coo(geom.shape, rows, cols, vals, dtype=np.float32)
        x = np.random.default_rng(1).random(coo.shape[1]).astype(np.float32)
        ref = CSRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals).spmv(x)
        z = CSCVZMatrix.from_ct(coo, geom, CSCVParams(8, 8, 2))
        rel = np.abs(z.spmv(x) - ref).max() / np.abs(ref).max()
        assert rel < 5e-6

    def test_bad_args(self, geom):
        with pytest.raises(GeometryError):
            attenuated_strip_matrix(geom, mu=-1.0)
        with pytest.raises(GeometryError):
            attenuation_depths(geom, radius=0.0)


class TestBTBAblation:
    @pytest.fixture(scope="class")
    def problem(self):
        geom = ParallelBeamGeometry.for_image(32, num_views=64)
        rows, cols, vals = strip_area_matrix(geom)
        coo = COOMatrix.from_coo(geom.shape, rows, cols, vals)
        return coo, geom

    def test_btb_correct(self, problem):
        coo, geom = problem
        x = np.random.default_rng(2).random(coo.shape[1])
        ref = CSRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals).spmv(x)
        z = CSCVZMatrix.from_ct(coo, geom, CSCVParams(8, 8, 2), reference_mode="btb")
        np.testing.assert_allclose(z.spmv(x), ref, rtol=1e-10, atol=1e-10)

    def test_btb_pads_more_than_ioblr(self, problem):
        # the Fig 4 story, end to end: view-major fills worse than IOBLR
        coo, geom = problem
        params = CSCVParams(8, 8, 2)
        kw = dict(dtype=np.float64)
        ioblr = build_cscv(coo.rows, coo.cols, coo.vals, geom, params, **kw)
        btb = build_cscv(coo.rows, coo.cols, coo.vals, geom, params,
                         reference_mode="btb", **kw)
        assert btb.r_nnze > 1.2 * ioblr.r_nnze

    def test_unknown_mode_rejected(self, problem):
        coo, geom = problem
        with pytest.raises(FormatError):
            build_cscv(coo.rows, coo.cols, coo.vals, geom, CSCVParams(),
                       reference_mode="zigzag")


class TestSerialization:
    def test_roundtrip(self, tmp_path, fine_ct):
        coo, geom = fine_ct
        data = build_cscv(coo.rows, coo.cols, coo.vals, geom,
                          CSCVParams(8, 16, 2), np.float32)
        f = tmp_path / "m.npz"
        save_cscv(f, data)
        loaded = load_cscv(f)
        assert loaded.shape == data.shape
        assert loaded.params == data.params
        x = np.random.default_rng(0).random(coo.shape[1]).astype(np.float32)
        np.testing.assert_array_equal(
            CSCVZMatrix(data).spmv(x), CSCVZMatrix(loaded).spmv(x)
        )
        np.testing.assert_array_equal(
            CSCVMMatrix(data).spmv(x), CSCVMMatrix(loaded).spmv(x)
        )

    def test_rejects_non_cscv_file(self, tmp_path):
        f = tmp_path / "x.npz"
        np.savez(f, a=np.zeros(3))
        with pytest.raises(FormatError):
            load_cscv(f)

    def test_rejects_bad_version(self, tmp_path, fine_ct):
        coo, geom = fine_ct
        data = build_cscv(coo.rows, coo.cols, coo.vals, geom, CSCVParams(4, 8, 1),
                          np.float32)
        f = tmp_path / "m.npz"
        save_cscv(f, data)
        with np.load(f) as z:
            arrays = {k: z[k] for k in z.files}
        arrays["_meta"] = arrays["_meta"].copy()
        arrays["_meta"][0] = 999
        np.savez(f, **arrays)
        with pytest.raises(FormatError):
            load_cscv(f)


class TestOSSART:
    def test_converges_and_beats_plain_sart_per_pass(self):
        from repro.api import reconstruct
        from repro.geometry.phantom import disk_phantom
        from repro.recon import ProjectionOperator

        geom = ParallelBeamGeometry.for_image(24, num_views=48)
        rows, cols, vals = strip_area_matrix(geom)
        coo = COOMatrix.from_coo(geom.shape, rows, cols, vals)
        op = ProjectionOperator(CSRMatrix.from_coo(
            coo.shape, coo.rows, coo.cols, coo.vals))
        truth = disk_phantom(24, radius_frac=0.5).ravel()
        sino = op.forward(truth)
        x_os, x_plain = (
            reconstruct(op, sino, solver="os-sart", geom=geom,
                        num_subsets=subsets, iterations=3).image
            for subsets in (8, 1)
        )
        err_os = np.linalg.norm(x_os - truth)
        err_plain = np.linalg.norm(x_plain - truth)
        assert err_os < err_plain  # ordered subsets accelerate

    def test_runs_on_cscv_products_without_a_csr_copy(self, monkeypatch):
        import repro
        from repro.recon import ProjectionOperator

        geom = ParallelBeamGeometry.for_image(16, num_views=24)
        op = repro.operator(geom, fmt="cscv-z", cache=False)
        rows, cols, vals = op.fmt.to_coo_triplets()
        op_csr = ProjectionOperator(
            CSRMatrix.from_coo(op.shape, rows, cols, vals, dtype=op.dtype))
        sino = op.forward(np.ones(op.shape[1], dtype=op.dtype))

        def no_csr(*args, **kwargs):
            raise AssertionError("OS-SART built a CSR copy")

        monkeypatch.setattr(CSRMatrix, "from_coo", no_csr)
        monkeypatch.setattr(CSRMatrix, "__init__", no_csr)
        image = repro.reconstruct(op, sino, solver="os-sart", geom=geom,
                                  iterations=2, num_subsets=4).image
        monkeypatch.undo()
        want = repro.reconstruct(op_csr, sino, solver="os-sart", geom=geom,
                                 iterations=2, num_subsets=4).image
        np.testing.assert_allclose(image, want, rtol=1e-5, atol=1e-6)

    def test_subsets_partition_views(self):
        from repro.recon.os_sart import view_subsets

        geom = ParallelBeamGeometry.for_image(8, num_views=10)
        subs = view_subsets(geom, 3)
        allv = np.sort(np.concatenate(subs))
        assert np.array_equal(allv, np.arange(10))

    def test_invalid_subsets(self):
        from repro.errors import ValidationError
        from repro.recon.os_sart import view_subsets

        geom = ParallelBeamGeometry.for_image(8, num_views=10)
        with pytest.raises(ValidationError):
            view_subsets(geom, 0)


class TestCalibrate:
    def test_calibrated_machine_sane(self):
        from repro.bench.calibrate import calibrate_host

        m = calibrate_host(stream_mb=32)
        assert m.core_bw_gbs > 0.5
        assert 0.3 < m.ghz < 10.0

    def test_validation_report_renders(self):
        from repro.bench.calibrate import calibrate_host, validation_report

        out = validation_report(calibrate_host(stream_mb=32))
        assert "cscv-z" in out


class TestCLI:
    def test_info(self, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "formats" in out and "cscv-z" in out

    def test_spmv(self, capsys):
        from repro.cli import main

        assert main(["spmv", "--dataset", "clinical-small", "--iterations", "2",
                     "--formats", "csr,cscv-z"]) == 0
        assert "cscv-z" in capsys.readouterr().out

    def test_convert_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "m.npz"
        assert main(["convert", str(out), "--dataset", "clinical-small"]) == 0
        assert out.exists()
        loaded = load_cscv(out)
        assert loaded.nnz > 0

    def test_experiment(self, capsys):
        from repro.cli import main

        assert main(["experiment", "table1"]) == 0
        assert "S_VVec" in capsys.readouterr().out

    def test_reconstruct_unknown_solver(self, capsys):
        from repro.cli import main

        assert main(["reconstruct", "--solver", "magic", "--size", "16"]) == 2
