"""CSR (compressed sparse row) format — the paper's general baseline.

Row-major layout: ``row_ptr`` (m+1), ``col_idx`` (nnz), ``vals`` (nnz).
SpMV walks rows and accumulates ``vals[k] * x[col_idx[k]]``; the access to
``x`` is indirect (gather), which is the vectorisation obstacle the paper
discusses in Section II.

Backends: a compiled C kernel (plain loops, compiler-vectorised gather)
when available, otherwise a NumPy segmented-sum kernel.
"""

from __future__ import annotations

import numpy as np

from repro.config import INDEX_DTYPE
from repro.errors import ValidationError
from repro.kernels import dispatch
from repro.obs import perf as obs_perf
from repro.sparse.coo import COOMatrix
from repro.sparse.matrix_base import SpMVFormat, register_format
from repro.utils.arrays import check_1d, check_out, ensure_dtype


def segment_sum(products: np.ndarray, ptr: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum ``products`` into segments delimited by *ptr* (len(out)+1 entries).

    Handles empty segments, which ``np.add.reduceat`` alone gets wrong
    (it repeats the next segment's first element for an empty one).
    """
    n_seg = out.shape[0]
    if ptr.shape[0] != n_seg + 1:
        raise ValidationError("ptr must have len(out)+1 entries")
    out[:] = 0
    if products.size == 0:
        return out
    starts = ptr[:-1]
    nonempty = ptr[1:] > starts
    if not np.any(nonempty):
        return out
    # reduceat over the non-empty segment starts, then scatter back
    red = np.add.reduceat(products, starts[nonempty].astype(np.int64))
    out[nonempty] = red
    return out


@register_format
class CSRMatrix(SpMVFormat):
    """Compressed sparse row with 32-bit indices."""

    name = "csr"

    def __init__(self, shape, row_ptr, col_idx, vals):
        super().__init__(shape, len(vals), vals.dtype)
        self.row_ptr = np.ascontiguousarray(row_ptr, dtype=INDEX_DTYPE)
        self.col_idx = np.ascontiguousarray(col_idx, dtype=INDEX_DTYPE)
        self.vals = np.ascontiguousarray(vals)
        if self.row_ptr.shape[0] != shape[0] + 1:
            raise ValidationError("row_ptr must have shape[0]+1 entries")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != len(vals):
            raise ValidationError("row_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValidationError("row_ptr must be non-decreasing")

    @classmethod
    def from_coo(cls, shape, rows, cols, vals, **kwargs) -> "CSRMatrix":
        coo = COOMatrix.from_coo(shape, rows, cols, vals, **kwargs)
        return cls(shape, *coo.to_csr_arrays())

    @classmethod
    def from_coo_matrix(cls, coo: COOMatrix) -> "CSRMatrix":
        return cls(coo.shape, *coo.to_csr_arrays())

    def spmv_into(self, x, y):
        x = self._check_x(x)
        t0 = obs_perf.clock() if obs_perf.active else 0.0
        fn = dispatch.get("csr_spmv", self.dtype)
        if fn is not None:
            fn(
                self.shape[0],
                self.row_ptr,
                self.col_idx,
                self.vals,
                x,
                y,
            )
            if obs_perf.active:
                obs_perf.record_format("spmv", self, "c", obs_perf.clock() - t0)
            return y
        products = self.vals * x[self.col_idx]
        y = segment_sum(products, self.row_ptr, y)
        if obs_perf.active:
            obs_perf.record_format("spmv", self, "numpy", obs_perf.clock() - t0)
        return y

    def spmm_into(self, X, Y):
        """Multi-RHS product: C kernel when available, else one reduceat
        pass over (nnz, k)."""
        k = X.shape[1]
        if k == 0:
            Y[:] = 0
            return Y
        t0 = obs_perf.clock() if obs_perf.active else 0.0
        fn = dispatch.get("csr_spmm", self.dtype)
        if fn is not None:
            fn(self.shape[0], k, self.row_ptr, self.col_idx, self.vals, X, Y)
            if obs_perf.active:
                obs_perf.record_format("spmm", self, "c",
                                       obs_perf.clock() - t0, k)
            return Y
        products = self.vals[:, None] * X[self.col_idx.astype(np.int64)]
        ptr = np.asarray(self.row_ptr, dtype=np.int64)
        Y[:] = 0
        nonempty = ptr[1:] > ptr[:-1]
        if np.any(nonempty):
            red = np.add.reduceat(products, ptr[:-1][nonempty], axis=0)
            Y[nonempty] = red
        if obs_perf.active:
            obs_perf.record_format("spmm", self, "numpy",
                                   obs_perf.clock() - t0, k)
        return Y

    def memory_bytes(self):
        idx = self.row_ptr.nbytes + self.col_idx.nbytes
        return {
            "values": self.vals.nbytes,
            "indices": idx,
            "total": self.vals.nbytes + idx,
        }

    def to_dense(self):
        dense = np.zeros(self.shape, dtype=self.dtype)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.row_ptr))
        dense[rows, self.col_idx] = self.vals
        return dense

    def row_nnz(self) -> np.ndarray:
        """Per-row nonzero counts."""
        return np.diff(self.row_ptr).astype(np.int64)

    def transpose_spmv(self, y_in: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``x = A^T y`` — the back-projection direction (paper future work)."""
        y_in = ensure_dtype(check_1d(y_in, self.shape[0], "y"), self.dtype, "y")
        out = check_out(out, (self.shape[1],), self.dtype)
        out[:] = 0
        contrib = self.vals * np.repeat(y_in, np.diff(self.row_ptr))
        np.add.at(out, self.col_idx, contrib)
        return out

    def transpose_spmm(self, Y_in: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``X = A^T Y`` for a stack of sinograms ``Y`` of shape (m, k)."""
        Y_in = np.asarray(Y_in)
        if Y_in.ndim != 2 or Y_in.shape[0] != self.shape[0]:
            raise ValidationError(f"Y must have shape ({self.shape[0]}, k)")
        Yc = np.ascontiguousarray(Y_in, dtype=self.dtype)
        out = check_out(out, (self.shape[1], Yc.shape[1]), self.dtype)
        out[:] = 0
        contrib = self.vals[:, None] * np.repeat(Yc, np.diff(self.row_ptr), axis=0)
        np.add.at(out, self.col_idx, contrib)
        return out

    def to_coo_triplets(self):
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.row_ptr))
        return rows, self.col_idx.astype(np.int64), self.vals
