"""ELLPACK (ELL) format — fixed row width, column-major lanes.

The format of Bell & Garland [2]: every row is padded to the width of the
longest row; values and column indices are stored column-major so that
lane *k* of all rows is contiguous (SIMD across rows).  Padding slots use
column ``-1`` and value ``0``.

For CT matrices, per-row nnz is fairly uniform (property P3 across rows of
a view), so ELL's padding waste is moderate — but it still streams padded
values, which is exactly the "useless zeros" cost the paper attributes to
dense-block methods.
"""

from __future__ import annotations

import numpy as np

from repro.config import INDEX_DTYPE
from repro.errors import FormatError
from repro.kernels import dispatch
from repro.sparse.coo import COOMatrix
from repro.sparse.matrix_base import SpMVFormat, register_format


@register_format
class ELLMatrix(SpMVFormat):
    """ELLPACK with column-major ``(width, m)`` storage."""

    name = "ell"

    #: padding beyond ``max_width_factor * max(nnz, rows)`` slots (for
    #: ``nnz >= rows``: a row wider than ``max_width_factor * mean``)
    #: triggers a build error rather than silently exploding memory.
    max_width_factor = 16.0

    def __init__(self, shape, cols, vals, nnz):
        super().__init__(shape, nnz, vals.dtype)
        if cols.shape != vals.shape or cols.ndim != 2:
            raise FormatError("cols/vals must be 2-D arrays of equal shape")
        if cols.shape[1] != shape[0]:
            raise FormatError("second axis must equal the row count")
        self.cols = np.ascontiguousarray(cols, dtype=INDEX_DTYPE)
        self.vals = np.ascontiguousarray(vals)
        self.width = cols.shape[0]

    @classmethod
    def from_coo(cls, shape, rows, cols, vals, **kwargs) -> "ELLMatrix":
        coo = COOMatrix.from_coo(shape, rows, cols, vals, **kwargs)
        m, _ = shape
        counts = coo.row_nnz()
        width = int(counts.max()) if counts.size else 0
        if width * m > cls.max_width_factor * max(coo.nnz, m):
            raise FormatError(
                f"row width {width} pads {coo.nnz} nonzeros to {width * m} "
                f"slots, over {cls.max_width_factor:g}x max(nnz, rows); "
                "matrix is too irregular for ELL"
            )
        ell_cols = np.full((width, m), -1, dtype=INDEX_DTYPE)
        ell_vals = np.zeros((width, m), dtype=coo.vals.dtype)
        # lane position of each nonzero within its row
        lane = np.arange(coo.nnz, dtype=np.int64)
        row_starts = np.zeros(m, dtype=np.int64)
        np.cumsum(counts[:-1], out=row_starts[1:])
        lane -= row_starts[coo.rows]
        ell_cols[lane, coo.rows] = coo.cols
        ell_vals[lane, coo.rows] = coo.vals
        return cls(shape, ell_cols, ell_vals, coo.nnz)

    def spmv_into(self, x, y):
        x = self._check_x(x)
        fn = dispatch.get("ell_spmv", self.dtype)
        if fn is not None:
            fn(self.shape[0], self.width, self.cols.reshape(-1), self.vals.reshape(-1), x, y)
            return y
        y[:] = 0
        for k in range(self.width):  # lane loop; each lane is vectorised
            c = self.cols[k]
            valid = c >= 0
            y[valid] += self.vals[k, valid] * x[c[valid]]
        return y

    def memory_bytes(self):
        # ELL streams the padded arrays in full — padding is the cost.
        return {
            "values": self.vals.nbytes,
            "indices": self.cols.nbytes,
            "total": self.vals.nbytes + self.cols.nbytes,
        }

    def padding_ratio(self) -> float:
        """Stored slots / nnz - 1 (the ELL analogue of the paper's R_nnzE)."""
        stored = self.vals.size
        return stored / self.nnz - 1.0 if self.nnz else 0.0

    def to_coo_triplets(self):
        valid = self.cols >= 0
        lanes, rows = np.nonzero(valid)
        return (
            rows.astype(np.int64),
            self.cols[lanes, rows].astype(np.int64),
            self.vals[lanes, rows],
        )
