"""COO (coordinate) format — the conversion hub.

Stores sorted, deduplicated ``(row, col, value)`` triplets.  Every other
format's ``from_coo`` consumes the arrays this class produces, and the CT
projectors emit raw triplets that :meth:`COOMatrix.from_coo`
canonicalises (triplets that already are canonical are copied, not
sorted).  Row-major formats read the matrix's own canonical COO;
column-major ones (CSC, CSC-vec, VHCC) read the transpose's
(:func:`transposed_coo`), whose CSR arrays are the matrix's CSC arrays,
so no format sorts twice.  Its SpMV is a reference scatter-add, useful
for testing but never competitive — exactly its role in the paper's
taxonomy.
"""

from __future__ import annotations

import numpy as np

from repro.config import INDEX_DTYPE, normalize_dtype
from repro.errors import ValidationError
from repro.sparse.matrix_base import SpMVFormat, coalesce, coo_validate, register_format


@register_format
class COOMatrix(SpMVFormat):
    """Canonical triplets, row-major sorted, duplicates summed."""

    name = "coo"

    def __init__(self, shape, rows, cols, vals):
        super().__init__(shape, len(vals), vals.dtype)
        self.rows = rows
        self.cols = cols
        self.vals = vals

    @classmethod
    def from_coo(cls, shape, rows, cols, vals, **kwargs) -> "COOMatrix":
        rows, cols, vals = _validated(shape, rows, cols, vals, kwargs)
        return cls(shape, *coalesce(rows, cols, vals, shape))

    @classmethod
    def from_dense(cls, dense: np.ndarray, dtype=None) -> "COOMatrix":
        """Build from a dense 2-D array (zeros dropped)."""
        d = np.asarray(dense)
        if d.ndim != 2:
            raise ValidationError(f"dense must be 2-D, got shape {d.shape}")
        rows, cols = np.nonzero(d)
        return cls.from_coo(d.shape, rows, cols, d[rows, cols], dtype=dtype)

    def spmv_into(self, x, y):
        x = self._check_x(x)
        y[:] = 0
        np.add.at(y, self.rows, self.vals * x[self.cols])
        return y

    def memory_bytes(self):
        idx = 2 * self.nnz * np.dtype(np.int64).itemsize
        values = self.nnz * self.dtype.itemsize
        return {"values": values, "indices": idx, "total": values + idx}

    def to_coo_triplets(self):
        return self.rows.astype(np.int64), self.cols.astype(np.int64), self.vals

    # ------------------------------------------------------------------ #
    # conversion helper shared by the compressed formats

    def to_csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row_ptr, col_idx, vals)`` with 32-bit indices."""
        m, _ = self.shape
        counts = np.bincount(self.rows, minlength=m)
        row_ptr = np.zeros(m + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=row_ptr[1:])
        # self.rows is already row-major sorted
        return row_ptr, self.cols.astype(INDEX_DTYPE), self.vals.copy()

    def astype(self, dtype) -> "COOMatrix":
        """Copy with values cast to *dtype*."""
        dt = normalize_dtype(dtype)
        return COOMatrix(self.shape, self.rows.copy(), self.cols.copy(), self.vals.astype(dt))

    def row_nnz(self) -> np.ndarray:
        """Per-row nonzero counts."""
        return np.bincount(self.rows, minlength=self.shape[0]).astype(np.int64)

    def col_nnz(self) -> np.ndarray:
        """Per-column nonzero counts."""
        return np.bincount(self.cols, minlength=self.shape[1]).astype(np.int64)


def transposed_coo(shape, rows, cols, vals, **kwargs) -> COOMatrix:
    """Canonical COO of the transpose of the *shape* matrix the triplets
    describe: the matrix's nonzeros in column-major order, so its CSR
    arrays are the matrix's CSC arrays.  One sort, none when the triplets
    already are column-major; range errors name *shape*'s axes."""
    rows, cols, vals = _validated(shape, rows, cols, vals, kwargs)
    t_shape = (shape[1], shape[0])
    return COOMatrix(t_shape, *coalesce(cols, rows, vals, t_shape))


def _validated(shape, rows, cols, vals, kwargs):
    """:func:`coo_validate`, with ``dtype`` the only keyword accepted."""
    dtype = kwargs.pop("dtype", None)
    if kwargs:
        raise ValidationError(f"unknown kwargs: {sorted(kwargs)}")
    return coo_validate(shape, rows, cols, vals, dtype)
