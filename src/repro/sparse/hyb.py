"""HYB — hybrid ELL + COO format (Bell & Garland's GPU classic).

The "hybrid" entry of the paper's Section I taxonomy: store the regular
part of every row (up to a width chosen from the row-length distribution)
in ELL, and spill the irregular tail into COO.  This bounds ELL's padding
(the failure mode ruled out by :class:`~repro.sparse.ell.ELLMatrix`'s
skew guard) while keeping most of the matrix in the vector-friendly
layout.
"""

from __future__ import annotations

import numpy as np

from repro.config import INDEX_DTYPE
from repro.errors import FormatError
from repro.sparse.coo import COOMatrix
from repro.sparse.matrix_base import SpMVFormat, register_format


@register_format
class HYBMatrix(SpMVFormat):
    """ELL head + COO tail.

    ``width`` defaults to the qth quantile of row lengths (q = 0.75), the
    usual heuristic: ELL covers the common case, COO the stragglers.
    """

    name = "hyb"

    def __init__(self, shape, ell_cols, ell_vals, coo_rows, coo_cols, coo_vals, nnz):
        super().__init__(shape, nnz, ell_vals.dtype)
        self.ell_cols = ell_cols        # (width, m), -1 padded
        self.ell_vals = ell_vals
        self.coo_rows = coo_rows
        self.coo_cols = coo_cols
        self.coo_vals = coo_vals
        self.width = ell_cols.shape[0]

    @classmethod
    def from_coo(cls, shape, rows, cols, vals, *, width: int | None = None,
                 quantile: float = 0.75, **kwargs):
        coo = COOMatrix.from_coo(shape, rows, cols, vals, **kwargs)
        m, _ = shape
        counts = coo.row_nnz()
        if width is None:
            width = int(np.quantile(counts, quantile)) if m else 0
        if width < 0:
            raise FormatError("width must be >= 0")

        lane = np.arange(coo.nnz, dtype=np.int64)
        row_starts = np.zeros(m, dtype=np.int64)
        np.cumsum(counts[:-1], out=row_starts[1:])
        lane -= row_starts[coo.rows]

        in_ell = lane < width
        ell_cols = np.full((width, m), -1, dtype=INDEX_DTYPE)
        ell_vals = np.zeros((width, m), dtype=coo.vals.dtype)
        ell_cols[lane[in_ell], coo.rows[in_ell]] = coo.cols[in_ell]
        ell_vals[lane[in_ell], coo.rows[in_ell]] = coo.vals[in_ell]
        tail = ~in_ell
        return cls(
            shape,
            ell_cols,
            ell_vals,
            coo.rows[tail].copy(),
            coo.cols[tail].copy(),
            coo.vals[tail].copy(),
            coo.nnz,
        )

    @property
    def coo_nnz(self) -> int:
        return int(self.coo_vals.size)

    def spmv_into(self, x, y):
        x = self._check_x(x)
        y[:] = 0
        for k in range(self.width):  # ELL part, lane-vectorised
            c = self.ell_cols[k]
            valid = c >= 0
            y[valid] += self.ell_vals[k, valid] * x[c[valid]]
        if self.coo_vals.size:  # COO tail
            y += np.bincount(
                self.coo_rows,
                weights=self.coo_vals * x[self.coo_cols],
                minlength=self.shape[0],
            ).astype(self.dtype, copy=False)
        return y

    def memory_bytes(self):
        values = self.ell_vals.nbytes + self.coo_vals.nbytes
        idx = (
            self.ell_cols.nbytes
            + self.coo_rows.nbytes
            + self.coo_cols.nbytes
        )
        return {"values": values, "indices": idx, "total": values + idx}

    def padding_ratio(self) -> float:
        """(stored slots incl. padding) / nnz - 1 — bounded by design."""
        slots = self.ell_vals.size + self.coo_vals.size
        return slots / self.nnz - 1.0 if self.nnz else 0.0

    def to_coo_triplets(self):
        valid = self.ell_cols >= 0
        lanes, rows = np.nonzero(valid)
        return (
            np.concatenate([rows.astype(np.int64), self.coo_rows.astype(np.int64)]),
            np.concatenate(
                [self.ell_cols[lanes, rows].astype(np.int64), self.coo_cols.astype(np.int64)]
            ),
            np.concatenate([self.ell_vals[lanes, rows], self.coo_vals]),
        )
