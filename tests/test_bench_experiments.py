"""Tests for the experiment modules: each regenerated table/figure must
render and satisfy the paper's qualitative claims."""

import numpy as np
import pytest

from repro.bench.datasets import DATASETS, get_dataset
from repro.bench.experiments import (
    fig1,
    fig2,
    fig4,
    fig5,
    fig6,
    fig7,
    fig10,
    table1,
    table2,
)
from repro.bench.harness import measure_format, run_suite
from repro.sparse.csr import CSRMatrix


class TestDatasets:
    def test_registry_has_four(self):
        assert len(DATASETS) == 4

    def test_quick_dataset_loads_and_caches(self):
        ds = get_dataset("clinical-small")
        coo1, geom1 = ds.load()
        coo2, geom2 = ds.load()
        assert coo1.nnz == coo2.nnz
        assert geom1 == geom2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_load_is_the_canonical_coo(self, dtype):
        """A dataset loads the same row-major sorted, deduplicated COO as
        build_ct_matrix, so from_coo_matrix/to_csr_arrays may trust it."""
        from repro.api import build_ct_matrix

        coo, geom = get_dataset("clinical-small").load(dtype=dtype)
        ref, _ = build_ct_matrix(geom.image_size, geom=geom, dtype=dtype)
        for name in ("rows", "cols", "vals"):
            np.testing.assert_array_equal(getattr(coo, name),
                                          getattr(ref, name))
            assert getattr(coo, name).dtype == getattr(ref, name).dtype

    def test_density_matches_paper_within_band(self):
        from repro.bench.experiments.table2 import density_match

        paper, ours = density_match("clinical-small")
        assert abs(ours - paper) / paper < 0.25

    def test_limited_angle_dataset_span(self):
        ds = get_dataset("micro-limited")
        geom = ds.geometry()
        span = geom.delta_angle_deg * geom.num_views
        assert span <= 31.0  # mirrors the paper's limited-angle 2048 case

    def test_unknown_dataset(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            get_dataset("nope")


class TestHarness:
    def test_measure_format_record(self):
        coo, geom = get_dataset("clinical-small").load()
        rec = measure_format(CSRMatrix.from_coo_matrix(coo), iterations=3,
                             max_seconds=0.5)
        assert rec.gflops > 0 and rec.seconds > 0
        assert rec.r_em(100.0) == pytest.approx(rec.bw_gbs / 100.0)

    def test_run_suite_all_formats(self):
        coo, geom = get_dataset("clinical-small").load()
        recs = run_suite(coo, geom, ["csr", "cscv-z"], iterations=3, max_seconds=0.5)
        assert {r.format_name for r in recs} == {"csr", "cscv-z"}


class TestTable1:
    def test_matches_paper_fields(self):
        geom = table1.sample_geometry()
        assert geom.num_bins == 38
        assert geom.delta_angle_deg == 4.0
        block = table1.sample_block()
        assert block.v0 * geom.delta_angle_deg == 32.0
        assert (block.i0, block.i1 - 1) == (5, 9)

    def test_report_renders(self):
        out = table1.run()
        assert "S_VVec" in out and "32" in out


class TestTable2:
    def test_report_has_paper_and_ours_rows(self):
        out = table2.run(names=["clinical-small"])
        assert "paper:512 x 512" in out and "ours:clinical-small" in out


class TestFigures:
    def test_fig1_sinogram_nontrivial(self):
        out = fig1.run(image_size=32, num_views=24)
        assert "sinogram" in out

    def test_fig2_adjacent_share_most(self):
        out = fig2.run()
        assert "red-blue" in out

    def test_fig4_layout_ordering(self):
        bin_major = fig4.mean_efficiency("bin-major")
        view_major = fig4.mean_efficiency("view-major")
        ioblr = fig4.mean_efficiency("ioblr")
        assert bin_major < view_major < ioblr
        assert ioblr > 4.5  # paper: 7-8 for interior pixels

    def test_fig5_center_reference_good(self):
        assert fig5.center_is_good_reference()

    def test_fig6_ratios_reported(self):
        out = fig6.run()
        assert "index volume" in out

    def test_fig7_stage_times(self):
        times = fig7.stage_times()
        assert times["convert"] > 0 and times["iteration"] > 0
        # conversion is a one-off cost within ~1000 iterations' budget
        assert times["convert"] / times["iteration"] < 2000

    def test_fig10_model_shapes(self):
        curves = fig10.model_curves()
        skl_z = curves[("skl", "cscv-z")]
        skl_m = curves[("skl", "cscv-m")]
        # Z leads at 1 thread, M leads at 64
        assert skl_z[1] > skl_m[1]
        assert skl_m[64] > skl_z[64]
        # Zen2 M nearly linear to 64T (paper's soft-vexpand observation)
        zen2_m = curves[("zen2", "cscv-m")]
        assert zen2_m[64] / zen2_m[1] > 30
