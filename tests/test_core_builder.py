"""Tests for the vectorised CSCV builder: structure and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.core.builder import build_cscv
from repro.core.params import CSCVParams
from repro.errors import FormatError
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.geometry.projector_strip import strip_area_matrix
from repro.sparse.coo import COOMatrix


@pytest.fixture(scope="module")
def geom():
    return ParallelBeamGeometry.for_image(24, num_views=32)


@pytest.fixture(scope="module")
def triplets(geom):
    rows, cols, vals = strip_area_matrix(geom)
    coo = COOMatrix.from_coo(geom.shape, rows, cols, vals)
    return coo


@pytest.fixture(scope="module")
def data(triplets, geom):
    return build_cscv(
        triplets.rows, triplets.cols, triplets.vals, geom, CSCVParams(8, 8, 2)
    )


class TestStructuralInvariants:
    def test_counts_consistent(self, data):
        assert data.blk_vxg_ptr[-1] == data.num_vxg
        assert data.num_cscve == np.count_nonzero(data.vxg_masks)
        assert data.vxg_voff.size == data.num_vxg
        assert data.packed.size == data.nnz
        assert data.values.size == data.num_vxg * data.params.vxg_len

    def test_slots_at_least_nnz(self, data):
        assert data.stored_slots >= data.nnz
        assert data.r_nnze >= 0.0

    def test_nonzero_slot_count_matches_nnz(self, data):
        assert np.count_nonzero(data.values) <= data.nnz  # exact values may be 0

    def test_masks_popcount_equals_fill(self, data):
        # each VxG's set mask bits fill exactly its packed-value span
        pops = np.array([bin(int(m)).count("1") for m in data.vxg_masks])
        per_vxg = pops.reshape(data.num_vxg, data.params.s_vxg).sum(axis=1)
        np.testing.assert_array_equal(
            per_vxg, np.diff(data.vxg_voff, append=data.nnz))

    def test_vxg_within_block_ysize(self, data):
        ysz = np.repeat(data.blk_ysize, np.diff(data.blk_vxg_ptr))
        assert np.all(data.vxg_start.astype(np.int64) + data.params.vxg_len <= ysz)

    def test_map_sizes(self, data):
        assert data.ymap.size == int(data.blk_ysize.sum())
        assert data.blk_map_ptr[-1] == data.ymap.size

    def test_map_injective_per_block(self, data):
        for b in range(data.num_blocks):
            seg = data.ymap[data.blk_map_ptr[b] : data.blk_map_ptr[b + 1]]
            valid = seg[seg >= 0]
            assert valid.size == np.unique(valid).size

    def test_vxg_masks_alignment(self, data):
        assert data.vxg_masks.size == data.num_vxg * data.params.s_vxg
        # total popcount over the VxG grid equals nnz
        pops = sum(bin(int(m)).count("1") for m in data.vxg_masks)
        assert pops == data.nnz

    def test_vxg_voff_monotone(self, data):
        assert np.all(np.diff(data.vxg_voff) >= 0)

    def test_present_blocks_sorted_unique(self, data):
        pb = data.present_blocks
        assert np.all(np.diff(pb) > 0)


class TestDensification:
    def test_dense_equals_coo(self, triplets, geom):
        from repro.core.format_z import CSCVZMatrix
        from repro.core.format_m import CSCVMMatrix

        data = build_cscv(
            triplets.rows, triplets.cols, triplets.vals, geom, CSCVParams(4, 8, 2)
        )
        ref = triplets.to_dense()
        np.testing.assert_allclose(CSCVZMatrix(data).to_dense(), ref, rtol=1e-12)
        np.testing.assert_allclose(CSCVMMatrix(data).to_dense(), ref, rtol=1e-12)


class TestParameterEffects:
    @pytest.mark.parametrize("s_vxg", [1, 2, 4])
    def test_rnnze_grows_with_vxg(self, triplets, geom, s_vxg):
        data = build_cscv(
            triplets.rows, triplets.cols, triplets.vals, geom,
            CSCVParams(8, 8, s_vxg),
        )
        # anchored windows: padding can only grow with the window size
        assert data.r_nnze >= 0

    def test_rnnze_monotone_in_s_imgb(self, triplets, geom):
        rs = []
        for s_imgb in (4, 8, 16):
            data = build_cscv(
                triplets.rows, triplets.cols, triplets.vals, geom,
                CSCVParams(8, s_imgb, 1),
            )
            rs.append(data.r_nnze)
        assert rs[0] <= rs[1] <= rs[2]

    def test_rnnze_monotone_in_s_vvec(self, triplets, geom):
        rs = []
        for s_vvec in (4, 8, 16):
            data = build_cscv(
                triplets.rows, triplets.cols, triplets.vals, geom,
                CSCVParams(s_vvec, 8, 1),
            )
            rs.append(data.r_nnze)
        assert rs[0] <= rs[1] <= rs[2]

    def test_svxg1_no_window_padding(self, triplets, geom):
        # with S_VxG=1, VxG slots equal CSCVE slots exactly
        data = build_cscv(
            triplets.rows, triplets.cols, triplets.vals, geom, CSCVParams(8, 8, 1)
        )
        assert data.num_vxg == data.num_cscve
        assert data.stored_slots == data.num_cscve * 8


class TestEdgeCases:
    def test_empty_matrix(self, geom):
        z = np.zeros(0, dtype=np.int64)
        data = build_cscv(z, z, np.zeros(0), geom, CSCVParams(8, 8, 2))
        assert data.nnz == 0 and data.num_vxg == 0 and data.num_blocks == 0

    def test_single_nonzero(self, geom):
        data = build_cscv(
            np.array([geom.row_index(3, 10)]),
            np.array([geom.pixel_index(5, 5)]),
            np.array([2.5]),
            geom,
            CSCVParams(8, 8, 2),
        )
        assert data.nnz == 1
        assert data.num_blocks == 1
        assert data.values.sum() == pytest.approx(2.5)

    def test_duplicate_rejected(self, geom):
        r = np.array([5, 5])
        c = np.array([7, 7])
        with pytest.raises(FormatError):
            build_cscv(r, c, np.ones(2), geom, CSCVParams(8, 8, 2))

    def test_mismatched_shapes_rejected(self, geom):
        with pytest.raises(FormatError):
            build_cscv(np.zeros(2, dtype=np.int64), np.zeros(1, dtype=np.int64),
                       np.ones(2), geom, CSCVParams())

    def test_paranoid_mode(self, triplets, geom):
        prev = config.runtime.paranoid_checks
        config.runtime.paranoid_checks = True
        try:
            build_cscv(
                triplets.rows, triplets.cols, triplets.vals, geom, CSCVParams(8, 8, 2)
            )
        finally:
            config.runtime.paranoid_checks = prev


@settings(max_examples=20, deadline=None)
@given(
    s_vvec=st.sampled_from([2, 4, 8, 16]),
    s_imgb=st.sampled_from([3, 5, 8]),
    s_vxg=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_builder_roundtrip(s_vvec, s_imgb, s_vxg, seed):
    """Random nonzero subsets of a CT matrix: CSCV == COO after round trip."""
    geom = ParallelBeamGeometry(image_size=12, num_bins=19, num_views=10,
                                delta_angle_deg=7.0)
    rows_f, cols_f, vals_f = strip_area_matrix(geom)
    rng = np.random.default_rng(seed)
    keep = rng.random(rows_f.size) < 0.4
    coo = COOMatrix.from_coo(geom.shape, rows_f[keep], cols_f[keep], vals_f[keep])
    if coo.nnz == 0:
        return
    data = build_cscv(coo.rows, coo.cols, coo.vals, geom,
                      CSCVParams(s_vvec, s_imgb, s_vxg))
    from repro.core.format_z import CSCVZMatrix

    np.testing.assert_allclose(CSCVZMatrix(data).to_dense(), coo.to_dense(),
                               rtol=1e-12, atol=1e-12)
