"""Vendor-library baselines: scipy.sparse stand-ins for Intel MKL.

The paper benchmarks MKL-CSR and MKL-CSC — the tuned vendor CSR/CSC
implementations.  Without MKL in this environment, :mod:`scipy.sparse`
plays the same role: a mature, compiled, general-purpose CSR/CSC SpMV the
custom formats must beat.  The wrappers expose the standard
:class:`~repro.sparse.matrix_base.SpMVFormat` contract so the bench
harness treats them like every other format.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.config import INDEX_DTYPE
from repro.errors import ValidationError
from repro.sparse.matrix_base import SpMVFormat, coo_validate, register_format
from repro.utils.arrays import check_1d, check_out, ensure_dtype


class _ScipyBacked(SpMVFormat):
    """Common plumbing for the scipy-backed formats."""

    _scipy_cls = None  # set by subclasses

    def __init__(self, shape, matrix, nnz):
        super().__init__(shape, nnz, matrix.dtype)
        self._m = matrix

    @classmethod
    def from_coo(cls, shape, rows, cols, vals, **kwargs):
        dtype = kwargs.pop("dtype", None)
        if kwargs:
            raise ValidationError(f"unknown kwargs: {sorted(kwargs)}")
        rows, cols, vals = coo_validate(shape, rows, cols, vals, dtype)
        coo = sp.coo_matrix((vals, (rows, cols)), shape=shape)
        coo.sum_duplicates()
        m = cls._scipy_cls(coo)
        m.sort_indices()
        return cls(shape, m, m.nnz)

    def spmv_into(self, x, y):
        x = self._check_x(x)
        y[:] = self._m @ x
        return y

    def memory_bytes(self):
        idx = self._m.indptr.nbytes + self._m.indices.nbytes
        return {
            "values": self._m.data.nbytes,
            "indices": idx,
            "total": self._m.data.nbytes + idx,
        }

    def to_coo_triplets(self):
        coo = self._m.tocoo()
        return coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data

    def to_scipy(self):
        """Underlying scipy matrix (shared, do not mutate)."""
        return self._m


@register_format
class MKLLikeCSR(_ScipyBacked):
    """scipy CSR as the MKL-CSR stand-in."""

    name = "mkl-csr"
    _scipy_cls = sp.csr_matrix

    def transpose_spmv(self, y_in, out=None):
        """``x = A^T y`` through scipy's transposed product."""
        y = ensure_dtype(check_1d(y_in, self.shape[0], "y"), self.dtype, "y")
        out = check_out(out, (self.shape[1],), self.dtype)
        out[:] = self._m.T @ y
        return out


@register_format
class MKLLikeCSC(_ScipyBacked):
    """scipy CSC as the MKL-CSC stand-in."""

    name = "mkl-csc"
    _scipy_cls = sp.csc_matrix
