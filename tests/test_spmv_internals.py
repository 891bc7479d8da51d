"""Tests for the SpMV driver internals and the C transpose kernel."""

import numpy as np
import pytest

from repro import config
from repro.core.builder import build_cscv
from repro.core.format_m import CSCVMMatrix
from repro.core.format_z import CSCVZMatrix
from repro.core.params import CSCVParams
from repro.core.spmv import _mask_lanes, value_rows_m, value_rows_z
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.geometry.projector_strip import strip_area_matrix
from repro.sparse.coo import COOMatrix


@pytest.fixture(scope="module")
def data():
    geom = ParallelBeamGeometry.for_image(20, num_views=24)
    rows, cols, vals = strip_area_matrix(geom)
    coo = COOMatrix.from_coo(geom.shape, rows, cols, vals)
    return build_cscv(coo.rows, coo.cols, coo.vals, geom, CSCVParams(8, 5, 2)), coo


class TestMaskLanes:
    def test_simple_masks(self):
        masks = np.array([0b1011, 0b0100], dtype=np.uint32)
        lanes = _mask_lanes(masks, 4)
        np.testing.assert_array_equal(lanes, [0, 1, 3, 2])

    def test_empty(self):
        assert _mask_lanes(np.zeros(0, dtype=np.uint32), 8).size == 0

    def test_full_mask(self):
        lanes = _mask_lanes(np.array([0xFF], dtype=np.uint32), 8)
        np.testing.assert_array_equal(lanes, np.arange(8))

    def test_total_popcount(self, data):
        d, _ = data
        lanes = _mask_lanes(d.vxg_masks, d.params.s_vvec)
        assert lanes.size == d.nnz


class TestFlatRows:
    def test_z_rows_cover_all_matrix_rows(self, data):
        d, coo = data
        rows = value_rows_z(d)
        assert rows.size == d.stored_slots
        touched = np.unique(rows[rows >= 0])
        expected = np.unique(coo.rows)
        assert set(expected).issubset(set(touched.tolist()))

    def test_m_rows_all_valid(self, data):
        d, coo = data
        rows = value_rows_m(d)
        assert rows.size == d.nnz
        assert rows.min() >= 0
        # multiset of rows matches the original COO rows
        np.testing.assert_array_equal(np.sort(rows), np.sort(coo.rows))

    def test_z_valid_slots_hold_values(self, data):
        # every nonzero value sits in a slot with a valid row
        d, _ = data
        rows = value_rows_z(d)
        nonzero_slots = d.values != 0
        assert np.all(rows[nonzero_slots] >= 0)


class TestTransposeKernelEquivalence:
    """C tspmv kernel vs NumPy fallback must agree bit-for-bit-ish."""

    @pytest.fixture(scope="class")
    def z(self, fine_ct):
        coo, geom = fine_ct
        return CSCVZMatrix.from_ct(coo, geom, CSCVParams(8, 16, 2)), coo

    def test_backends_agree(self, z, rng):
        fmt, coo = z
        y = rng.random(coo.shape[0]).astype(np.float32)
        prev = config.runtime.backend
        try:
            config.runtime.backend = "auto"
            a = fmt.transpose_spmv(y)
            config.runtime.backend = "numpy"
            b = fmt.transpose_spmv(y)
        finally:
            config.runtime.backend = prev
        rel = np.abs(a - b).max() / max(np.abs(b).max(), 1e-30)
        assert rel < 1e-5

    def test_forward_backward_normal_psd(self, z, rng):
        # <A^T A x, x> >= 0 for all x (positive semidefinite normal op)
        fmt, coo = z
        for _ in range(3):
            x = rng.standard_normal(coo.shape[1]).astype(np.float32)
            val = float(x @ fmt.transpose_spmv(fmt.spmv(x)))
            assert val >= -1e-3 * np.abs(x).max() ** 2


class TestDeterminism:
    def test_spmv_bitwise_repeatable(self, data):
        d, coo = data
        z = CSCVZMatrix(d)
        m = CSCVMMatrix(d)
        x = np.linspace(-1, 1, coo.shape[1])
        for fmt in (z, m):
            a = fmt.spmv(x)
            b = fmt.spmv(x)
            np.testing.assert_array_equal(a, b)

    def test_builder_deterministic(self):
        geom = ParallelBeamGeometry.for_image(12, num_views=16)
        rows, cols, vals = strip_area_matrix(geom)
        a = build_cscv(rows, cols, vals, geom, CSCVParams(4, 4, 2))
        b = build_cscv(rows, cols, vals, geom, CSCVParams(4, 4, 2))
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.ymap, b.ymap)


class TestFailureInjection:
    """Corrupted CSCV structures must be caught, not segfault."""

    def test_vxg_overrun_detected(self, data):
        from repro.core.builder import validate_cscv
        from repro.errors import FormatError

        d, _ = data
        import copy

        bad = copy.copy(d)
        bad.vxg_start = d.vxg_start.copy()
        bad.vxg_start[0] = 10**6  # way past any block's ytilde
        with pytest.raises(FormatError):
            validate_cscv(bad)

    def test_packed_count_mismatch_detected(self, data):
        from repro.core.builder import validate_cscv
        from repro.errors import FormatError

        d, _ = data
        import copy

        bad = copy.copy(d)
        bad.vxg_voff = d.vxg_voff.copy()
        bad.vxg_voff[-1] += 5  # the last VxG's span no longer fits nnz
        with pytest.raises(FormatError):
            validate_cscv(bad)

    def test_map_injectivity_checked_in_paranoid_mode(self, data):
        from repro.core.builder import validate_cscv
        from repro.errors import FormatError

        d, _ = data
        import copy

        bad = copy.copy(d)
        bad.ymap = d.ymap.copy()
        # duplicate one valid target within the first block
        valid_idx = np.flatnonzero(bad.ymap[: bad.blk_map_ptr[1]] >= 0)
        if valid_idx.size >= 2:
            bad.ymap[valid_idx[1]] = bad.ymap[valid_idx[0]]
            prev = config.runtime.paranoid_checks
            config.runtime.paranoid_checks = True
            try:
                with pytest.raises(FormatError):
                    validate_cscv(bad)
            finally:
                config.runtime.paranoid_checks = prev
