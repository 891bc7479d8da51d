"""VHCC — vectorized 2-D jagged-partition format (Tang et al., CGO'15).

VHCC splits the matrix into vertical *panels* (column ranges) so each
panel's slice of ``x`` stays cache-resident, then flattens each panel's
nonzeros (column-major by row inside the panel) into fixed-size chunks
processed by vector units with a segmented sum.  Partial row sums that
cross chunk/panel boundaries are fixed up through a carry pass.

The reproduction keeps the panel decomposition and per-panel segmented
sum; panels accumulate into ``y`` one after another (the carry structure),
and the memory model counts VHCC's streamed data: values, in-panel row
ids, panel descriptors and the segmented-scan flag bits.
"""

from __future__ import annotations

import numpy as np

from repro.config import INDEX_DTYPE
from repro.errors import FormatError
from repro.sparse.coo import transposed_coo
from repro.sparse.matrix_base import SpMVFormat, register_format


@register_format
class VHCCMatrix(SpMVFormat):
    """2-D jagged partition: vertical panels + segmented sums."""

    name = "vhcc"

    def __init__(self, shape, panels, nnz, dtype, panel_width):
        super().__init__(shape, nnz, dtype)
        #: list of (col_start, rows, cols, vals) per panel, panel-local order
        self.panels = panels
        self.panel_width = int(panel_width)

    @classmethod
    def from_coo(cls, shape, rows, cols, vals, *, panel_width: int = 4096, **kwargs):
        if panel_width < 1:
            raise FormatError("panel_width must be >= 1")
        # column-major order, so each panel's nonzeros are contiguous
        t = transposed_coo(shape, rows, cols, vals, **kwargs)
        cols_s, rows_s, vals_s = t.rows, t.cols, t.vals
        panels = []
        panel_of = cols_s // panel_width
        boundaries = np.flatnonzero(np.diff(panel_of, prepend=-1))
        boundaries = np.append(boundaries, rows_s.size)
        for i in range(boundaries.size - 1):
            a, b = int(boundaries[i]), int(boundaries[i + 1])
            if a == b:
                continue
            c0 = int(panel_of[a]) * panel_width
            panels.append(
                (
                    c0,
                    rows_s[a:b].astype(INDEX_DTYPE),
                    (cols_s[a:b] - c0).astype(INDEX_DTYPE),
                    vals_s[a:b].copy(),
                )
            )
        return cls(shape, panels, t.nnz, t.vals.dtype, panel_width)

    @property
    def num_panels(self) -> int:
        return len(self.panels)

    def spmv_into(self, x, y):
        x = self._check_x(x)
        y[:] = 0
        for c0, prows, pcols, pvals in self.panels:
            products = pvals * x[c0 + pcols.astype(np.int64)]
            # segmented sum keyed by row inside the panel (rows repeat in
            # runs because the panel is column-major-sorted by (col, row)).
            y += np.bincount(
                prows.astype(np.int64), weights=products, minlength=self.shape[0]
            ).astype(self.dtype, copy=False)
        return y

    def memory_bytes(self):
        values = sum(p[3].nbytes for p in self.panels)
        # streams: panel-local row ids (full ints) + panel-local column
        # offsets (2 bytes suffice inside <=65536-wide panels) + one
        # descriptor per panel + scan flag bit per nnz.
        col_bytes = 2 if self.panel_width <= 65536 else INDEX_DTYPE.itemsize
        idx = (
            self.nnz * INDEX_DTYPE.itemsize
            + self.nnz * col_bytes
            + self.num_panels * 4 * INDEX_DTYPE.itemsize
            + (self.nnz + 7) // 8
        )
        return {"values": values, "indices": idx, "total": values + idx}

    def to_coo_triplets(self):
        if not self.panels:
            z = np.zeros(0, dtype=np.int64)
            return z, z, np.zeros(0, dtype=self.dtype)
        return (
            np.concatenate([p[1].astype(np.int64) for p in self.panels]),
            np.concatenate([p[0] + p[2].astype(np.int64) for p in self.panels]),
            np.concatenate([p[3] for p in self.panels]),
        )
