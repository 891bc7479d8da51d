"""ESB — ELLPACK Sorted Blocks (Liu et al., Intel MIC lineage).

ESB fixes ELL's padding by (a) slicing the matrix into row blocks of
height ``slice_height`` and giving every slice its own width, and (b)
sorting rows by nonzero count inside a *sorting window* of ``sort_window``
rows, so rows sharing a slice have similar lengths.  Values/columns are
stored column-major per slice (SIMD across rows), and a per-slice bitmask
marks real entries.  A row permutation maps slice-local results back to
the original order.

SpMV offers the paper's "best scheduling" knob through the slice loop; the
NumPy backend vectorises within each slice.
"""

from __future__ import annotations

import numpy as np

from repro.config import INDEX_DTYPE
from repro.errors import FormatError
from repro.sparse.coo import COOMatrix
from repro.sparse.matrix_base import SpMVFormat, register_format


@register_format
class ESBMatrix(SpMVFormat):
    """ELLPACK sorted blocks (a SELL-C-sigma style layout)."""

    name = "esb"

    def __init__(self, shape, slices, perm, nnz, dtype, slice_height, sort_window):
        super().__init__(shape, nnz, dtype)
        #: list of (cols, vals) column-major arrays, one pair per slice
        self.slices = slices
        #: permutation: sorted position -> original row id
        self.perm = perm
        self.slice_height = int(slice_height)
        self.sort_window = int(sort_window)

    @classmethod
    def from_coo(
        cls,
        shape,
        rows,
        cols,
        vals,
        *,
        slice_height: int = 32,
        sort_window: int = 256,
        **kwargs,
    ) -> "ESBMatrix":
        if slice_height < 1:
            raise FormatError("slice_height must be >= 1")
        if sort_window < slice_height:
            raise FormatError("sort_window must be >= slice_height")
        coo = COOMatrix.from_coo(shape, rows, cols, vals, **kwargs)
        m, _ = shape
        row_ptr, col_idx, v = coo.to_csr_arrays()
        counts = np.diff(row_ptr).astype(np.int64)

        # sort rows by descending nnz within each sorting window
        perm = np.empty(m, dtype=np.int64)
        for w0 in range(0, m, sort_window):
            w1 = min(w0 + sort_window, m)
            local = np.argsort(-counts[w0:w1], kind="stable") + w0
            perm[w0:w1] = local

        slices = []
        for s0 in range(0, m, slice_height):
            s1 = min(s0 + slice_height, m)
            srows = perm[s0:s1]
            width = int(counts[srows].max()) if srows.size else 0
            h = s1 - s0
            sc = np.full((width, h), -1, dtype=INDEX_DTYPE)
            sv = np.zeros((width, h), dtype=v.dtype)
            for local_i, r in enumerate(srows):
                a, b = int(row_ptr[r]), int(row_ptr[r + 1])
                sc[: b - a, local_i] = col_idx[a:b]
                sv[: b - a, local_i] = v[a:b]
            slices.append((sc, sv))
        return cls(shape, slices, perm, coo.nnz, v.dtype, slice_height, sort_window)

    def spmv_into(self, x, y):
        x = self._check_x(x)
        y[:] = 0
        m = self.shape[0]
        for si, (sc, sv) in enumerate(self.slices):
            s0 = si * self.slice_height
            h = sc.shape[1]
            rows = self.perm[s0 : s0 + h]
            acc = np.zeros(h, dtype=self.dtype)
            for k in range(sc.shape[0]):
                c = sc[k]
                valid = c >= 0
                acc[valid] += sv[k, valid] * x[c[valid]]
            y[rows] = acc
        return y

    def memory_bytes(self):
        values = sum(sv.nbytes for _, sv in self.slices)
        # real ESB replaces padded column ids with a bitmask; count column
        # ids for real entries, one mask bit per slot, slice descriptors,
        # and the row permutation (streamed for the result scatter).
        slots = sum(sv.size for _, sv in self.slices)
        idx = (
            self.nnz * INDEX_DTYPE.itemsize
            + (slots + 7) // 8
            + (len(self.slices) + 1) * INDEX_DTYPE.itemsize
            + self.shape[0] * INDEX_DTYPE.itemsize
        )
        return {"values": values, "indices": idx, "total": values + idx}

    def padding_ratio(self) -> float:
        """Stored slots / nnz - 1 (after slicing + sorting)."""
        slots = sum(sv.size for _, sv in self.slices)
        return slots / self.nnz - 1.0 if self.nnz else 0.0

    def to_coo_triplets(self):
        rows_parts, cols_parts, vals_parts = [], [], []
        for si, (sc, sv) in enumerate(self.slices):
            s0 = si * self.slice_height
            rows = self.perm[s0 : s0 + sc.shape[1]]
            valid = sc >= 0
            lanes, local = np.nonzero(valid)
            rows_parts.append(rows[local].astype(np.int64))
            cols_parts.append(sc[lanes, local].astype(np.int64))
            vals_parts.append(sv[lanes, local])
        if not rows_parts:
            z = np.zeros(0, dtype=np.int64)
            return z, z, np.zeros(0, dtype=self.dtype)
        return (
            np.concatenate(rows_parts),
            np.concatenate(cols_parts),
            np.concatenate(vals_parts),
        )
