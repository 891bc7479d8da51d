"""Per-format structural tests: the layout invariants each format claims."""

import numpy as np
import pytest

from repro.errors import FormatError, ValidationError
from repro.sparse import (
    COOMatrix,
    CSCMatrix,
    CSR5Matrix,
    CSRMatrix,
    CVRMatrix,
    ELLMatrix,
    ESBMatrix,
    MergeCSRMatrix,
    SPC5Matrix,
    VHCCMatrix,
)
from repro.sparse.coo import transposed_coo
from repro.sparse.csr import segment_sum
from repro.sparse.merge_csr import merge_path_search


@pytest.fixture
def coo(rng):
    rows = rng.integers(0, 20, 120)
    cols = rng.integers(0, 16, 120)
    vals = rng.standard_normal(120)
    return COOMatrix.from_coo((20, 16), rows, cols, vals)


class TestCOO:
    def test_sorted_row_major(self, coo):
        key = coo.rows * coo.shape[1] + coo.cols
        assert np.all(np.diff(key) > 0)  # strictly increasing => deduplicated

    def test_from_dense(self):
        d = np.array([[0.0, 2.0], [3.0, 0.0]])
        coo = COOMatrix.from_dense(d)
        assert coo.nnz == 2
        np.testing.assert_array_equal(coo.to_dense(), d)

    def test_csr_csc_arrays_consistent(self, coo):
        row_ptr, col_idx, vals_r = coo.to_csr_arrays()
        col_ptr, row_idx, vals_c = transposed_coo(
            coo.shape, coo.rows, coo.cols, coo.vals).to_csr_arrays()
        assert row_ptr[-1] == col_ptr[-1] == coo.nnz
        assert vals_r.sum() == pytest.approx(vals_c.sum())

    def test_astype(self, coo):
        f32 = coo.astype(np.float32)
        assert f32.vals.dtype == np.float32
        assert f32.nnz == coo.nnz

    def test_row_col_nnz(self, coo):
        assert coo.row_nnz().sum() == coo.nnz
        assert coo.col_nnz().sum() == coo.nnz

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            COOMatrix.from_coo((2, 2), [2], [0], [1.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            COOMatrix.from_coo((2, 2), [0, 1], [0], [1.0])


def _stable_argsort_coalesce(rows, cols, vals, shape):
    """The definition ``coalesce`` must match: a stable argsort of the
    row-major key, then each run of equal keys summed in input order."""
    key = rows * shape[1] + cols
    order = np.argsort(key, kind="stable")
    key, vals = key[order], vals[order]
    uniq, start = np.unique(key, return_index=True)
    if key.size:
        vals = np.add.reduceat(vals, start)
    return uniq // shape[1], uniq % shape[1], vals


class TestCoalesce:
    SHAPE = (9, 7)

    def _triplets(self, rng, kind, dtype):
        n = self.SHAPE[1]
        if kind == "empty":
            keys = np.zeros(0, dtype=np.int64)
        elif kind == "one":
            keys = np.array([40], dtype=np.int64)
        elif kind == "canonical":
            keys = np.flatnonzero(rng.random(63) < 0.5)
        elif kind == "sorted-with-duplicates":
            keys = np.sort(rng.integers(0, 63, 80))
        else:
            keys = rng.integers(0, 63, 80)
        vals = rng.standard_normal(keys.size).astype(dtype)
        return keys // n, keys % n, vals

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["canonical", "sorted-with-duplicates",
                                      "unsorted", "empty", "one"])
    def test_bitwise_the_stable_argsort_reference(self, rng, kind, dtype):
        from repro.sparse.matrix_base import coalesce

        inputs = self._triplets(rng, kind, dtype)
        got = coalesce(*inputs, self.SHAPE)
        want = _stable_argsort_coalesce(*inputs, self.SHAPE)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        for g in got:
            assert not any(np.shares_memory(g, a) for a in inputs)
        if kind == "sorted-with-duplicates":
            assert got[0].size < inputs[0].size  # the duplicates were summed

    def test_transposed_coo_is_column_major(self, coo):
        t = transposed_coo(coo.shape, coo.rows, coo.cols, coo.vals)
        order = np.lexsort((coo.rows, coo.cols))
        assert t.shape == coo.shape[::-1]
        np.testing.assert_array_equal(t.rows, coo.cols[order])
        np.testing.assert_array_equal(t.cols, coo.rows[order])
        np.testing.assert_array_equal(t.vals, coo.vals[order])

    @pytest.mark.parametrize("cls", [CSCMatrix, VHCCMatrix])
    def test_column_major_range_errors_name_the_matrix_axes(self, cls):
        with pytest.raises(ValidationError, match="col indices"):
            cls.from_coo((2, 3), [0], [5], [1.0])
        with pytest.raises(ValidationError, match="row indices"):
            cls.from_coo((2, 3), [4], [1], [1.0])


class TestSegmentSum:
    def test_empty_segments_are_zero(self):
        products = np.array([1.0, 2.0, 3.0])
        ptr = np.array([0, 0, 2, 2, 3])
        out = np.zeros(4)
        segment_sum(products, ptr, out)
        np.testing.assert_allclose(out, [0.0, 3.0, 0.0, 3.0])

    def test_all_empty(self):
        out = np.ones(3)
        segment_sum(np.zeros(0), np.zeros(4, dtype=np.int64), out)
        assert np.all(out == 0.0)

    def test_ptr_length_checked(self):
        with pytest.raises(ValidationError):
            segment_sum(np.zeros(1), np.array([0, 1]), np.zeros(3))


class TestCSR:
    def test_row_ptr_invariants(self, coo):
        csr = CSRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals)
        assert csr.row_ptr[0] == 0 and csr.row_ptr[-1] == csr.nnz
        assert np.all(np.diff(csr.row_ptr) >= 0)

    def test_rejects_bad_row_ptr(self):
        with pytest.raises(ValidationError):
            CSRMatrix((2, 2), np.array([0, 2, 1]), np.array([0, 1]), np.ones(2))

    def test_transpose_spmv(self, coo, rng):
        csr = CSRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals)
        y = rng.standard_normal(20)
        expected = coo.to_dense().T @ y
        np.testing.assert_allclose(csr.transpose_spmv(y), expected, rtol=1e-10)


class TestCSC:
    def test_col_ptr_invariants(self, coo):
        csc = CSCMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals)
        assert csc.col_ptr[-1] == csc.nnz
        assert csc.col_nnz().sum() == csc.nnz

    def test_transpose_spmv(self, coo, rng):
        csc = CSCMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals)
        y = rng.standard_normal(20)
        np.testing.assert_allclose(
            csc.transpose_spmv(y), coo.to_dense().T @ y, rtol=1e-10
        )


class TestELL:
    def test_width_is_max_row_nnz(self, coo):
        ell = ELLMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals)
        assert ell.width == int(coo.row_nnz().max())

    def test_padding_ratio(self, coo):
        ell = ELLMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals)
        slots = ell.width * coo.shape[0]
        assert ell.padding_ratio() == pytest.approx(slots / coo.nnz - 1)

    def test_rejects_pathological_skew(self):
        # one dense row among many empty ones
        n = 600
        rows = np.concatenate([np.zeros(n, dtype=int), [1]])
        cols = np.concatenate([np.arange(n), [0]])
        with pytest.raises(FormatError):
            ELLMatrix.from_coo((200, n), rows, cols, np.ones(n + 1))


class TestCSR5:
    def test_tile_padding(self, coo):
        m = CSR5Matrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals, sigma=4, omega=4)
        assert m.tile_vals.size % (4 * 4) == 0
        assert m.tile_vals.size >= coo.nnz

    def test_permutation_is_bijection(self, coo):
        m = CSR5Matrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals, sigma=4, omega=2)
        assert np.unique(m.perm).size == coo.nnz

    def test_rejects_bad_tile(self, coo):
        with pytest.raises(FormatError):
            CSR5Matrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals, sigma=0)


class TestSPC5:
    def test_masks_popcount_matches_values(self, coo):
        m = SPC5Matrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals, width=8)
        pops = np.array([bin(int(x)).count("1") for x in m.masks])
        np.testing.assert_array_equal(pops, np.diff(m.voff))

    def test_block_columns_aligned(self, coo):
        m = SPC5Matrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals, width=8)
        assert np.all(m.blk_col % 8 == 0)

    def test_no_padding_stored(self, coo):
        m = SPC5Matrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals)
        assert m.packed.size == coo.nnz

    def test_avg_fill_positive(self, coo):
        m = SPC5Matrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals)
        assert 0 < m.avg_fill() <= m.width

    def test_rejects_bad_width(self, coo):
        with pytest.raises(FormatError):
            SPC5Matrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals, width=33)


class TestESB:
    def test_padding_below_plain_ell(self, rng):
        # skewed rows: sorting within windows must beat global-width ELL
        m, n = 64, 64
        lens = rng.integers(1, 32, m)
        rows = np.repeat(np.arange(m), lens)
        cols = np.concatenate([rng.choice(n, l, replace=False) for l in lens])
        vals = rng.standard_normal(rows.size)
        esb = ESBMatrix.from_coo((m, n), rows, cols, vals, slice_height=8, sort_window=64)
        ell_slots = m * int(lens.max())
        esb_slots = sum(sv.size for _, sv in esb.slices)
        assert esb_slots < ell_slots

    def test_permutation_is_bijection(self, coo):
        esb = ESBMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals, slice_height=4)
        assert np.array_equal(np.sort(esb.perm), np.arange(coo.shape[0]))

    def test_rejects_bad_window(self, coo):
        with pytest.raises(FormatError):
            ESBMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals,
                               slice_height=8, sort_window=4)


class TestCVR:
    def test_low_padding(self, coo):
        cvr = CVRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals, num_lanes=4)
        assert cvr.padding_ratio() < 0.5

    def test_lane_grid_shape(self, coo):
        cvr = CVRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals, num_lanes=4)
        assert cvr.lane_vals.shape[1] == 4
        assert cvr.lane_vals.shape == cvr.lane_rows.shape


class TestVHCC:
    def test_panels_partition_columns(self, coo):
        v = VHCCMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals, panel_width=4)
        total = sum(p[3].size for p in v.panels)
        assert total == coo.nnz
        for c0, _, pcols, _ in v.panels:
            assert c0 % 4 == 0
            assert pcols.max() < 4


class TestMergePath:
    def test_search_endpoints(self):
        row_end = np.array([2, 2, 5, 9], dtype=np.int64)
        assert merge_path_search(0, row_end, 9) == (0, 0)
        assert merge_path_search(13, row_end, 9) == (4, 9)

    def test_chunks_balanced(self, rng):
        # extreme skew: merge path must still balance (rows + nnz) work
        m = 40
        rows = np.concatenate([np.zeros(200, dtype=int), rng.integers(1, m, 40)])
        cols = rng.integers(0, 50, rows.size)
        merge = MergeCSRMatrix.from_coo((m, 50), rows, cols,
                                        rng.standard_normal(rows.size), num_chunks=8)
        loads = merge.chunk_loads()
        assert loads.max() - loads.min() <= 1 + (loads.sum() % 8 > 0)

    def test_skewed_correctness(self, rng):
        m, n = 30, 30
        rows = np.concatenate([np.zeros(150, dtype=int), rng.integers(1, m, 30)])
        cols = rng.integers(0, n, rows.size)
        vals = rng.standard_normal(rows.size)
        merge = MergeCSRMatrix.from_coo((m, n), rows, cols, vals, num_chunks=7)
        dense = np.zeros((m, n))
        np.add.at(dense, (rows, cols), vals)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(merge.spmv(x), dense @ x, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("num_chunks", [1, 2, 3, 16, 64, 1000])
    def test_chunk_count_invariance(self, coo, rng, num_chunks):
        x = rng.standard_normal(coo.shape[1])
        ref = coo.to_dense() @ x
        merge = MergeCSRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals,
                                        num_chunks=num_chunks)
        np.testing.assert_allclose(merge.spmv(x), ref, rtol=1e-9, atol=1e-9)
