"""CSC (compressed sparse column) format — paper Algorithm 1.

Column-major layout: ``col_ptr`` (n+1), ``row_idx`` (nnz), ``vals`` (nnz).
SpMV scatters ``x_i * vals`` into ``y`` at ``row_idx`` — the output access
is indirect, which is why vectorised CSC needs the gather/scatter of
Algorithm 2 and why the paper builds CSCV instead.  For integral-equation
solvers (ICD-style), column access is the natural direction, giving CSC a
"wider application range" (Section III).
"""

from __future__ import annotations

import numpy as np

from repro.config import INDEX_DTYPE
from repro.errors import ValidationError
from repro.kernels import dispatch
from repro.sparse.coo import COOMatrix
from repro.sparse.matrix_base import SpMVFormat, register_format


@register_format
class CSCMatrix(SpMVFormat):
    """Compressed sparse column with 32-bit indices."""

    name = "csc"

    def __init__(self, shape, col_ptr, row_idx, vals):
        super().__init__(shape, len(vals), vals.dtype)
        self.col_ptr = np.ascontiguousarray(col_ptr, dtype=INDEX_DTYPE)
        self.row_idx = np.ascontiguousarray(row_idx, dtype=INDEX_DTYPE)
        self.vals = np.ascontiguousarray(vals)
        if self.col_ptr.shape[0] != shape[1] + 1:
            raise ValidationError("col_ptr must have shape[1]+1 entries")
        if self.col_ptr[0] != 0 or self.col_ptr[-1] != len(vals):
            raise ValidationError("col_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.col_ptr) < 0):
            raise ValidationError("col_ptr must be non-decreasing")

    @classmethod
    def from_coo(cls, shape, rows, cols, vals, **kwargs) -> "CSCMatrix":
        coo = COOMatrix.from_coo(shape, rows, cols, vals, **kwargs)
        return cls(shape, *coo.to_csc_arrays())

    @classmethod
    def from_coo_matrix(cls, coo: COOMatrix) -> "CSCMatrix":
        return cls(coo.shape, *coo.to_csc_arrays())

    def spmv_into(self, x, y):
        x = self._check_x(x)
        fn = dispatch.get("csc_spmv", self.dtype)
        if fn is not None:
            fn(
                self.shape[0],
                self.shape[1],
                self.col_ptr,
                self.row_idx,
                self.vals,
                x,
                y,
            )
            return y
        y[:] = 0
        # x value broadcast to each column's nonzeros, then scatter-add.
        x_expanded = np.repeat(x, np.diff(self.col_ptr))
        contrib = self.vals * x_expanded
        # bincount is a vectorised scatter-add keyed by row index
        y += np.bincount(self.row_idx, weights=contrib, minlength=self.shape[0]).astype(
            self.dtype, copy=False
        )
        return y

    def memory_bytes(self):
        idx = self.col_ptr.nbytes + self.row_idx.nbytes
        return {
            "values": self.vals.nbytes,
            "indices": idx,
            "total": self.vals.nbytes + idx,
        }

    def to_dense(self):
        dense = np.zeros(self.shape, dtype=self.dtype)
        rows, cols, vals = self.to_coo_triplets()
        dense[rows, cols] = vals
        return dense

    def to_coo_triplets(self):
        cols = np.repeat(np.arange(self.shape[1], dtype=np.int64), np.diff(self.col_ptr))
        return self.row_idx.astype(np.int64), cols, self.vals

    def col_nnz(self) -> np.ndarray:
        """Per-column nonzero counts (property P3 statistic)."""
        return np.diff(self.col_ptr).astype(np.int64)

    def transpose_spmv(self, y_in: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``x = A^T y``: for CSC this is a clean per-column dot product."""
        from repro.sparse.csr import segment_sum
        from repro.utils.arrays import check_1d, check_out, ensure_dtype

        y_in = ensure_dtype(check_1d(y_in, self.shape[0], "y"), self.dtype, "y")
        out = check_out(out, (self.shape[1],), self.dtype)
        products = self.vals * y_in[self.row_idx]
        return segment_sum(products, self.col_ptr, out)
