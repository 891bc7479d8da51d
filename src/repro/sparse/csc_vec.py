"""Vectorized CSC SpMV — the paper's Algorithm 2, implemented faithfully.

This is the strawman CSCV exists to beat: process each column in
``s_vvec``-long segments; per segment **gather** the ``y`` elements at the
segment's row indices, FMA with the value segment, and **scatter** the
result back.  The gathers/scatters are the "additional instructions for
vector permutation [that] take much time, even more than that of the SIMD
computation step" (Section III).

Keeping it as a first-class format lets the ablation benches measure that
cost directly against CSCV on identical matrices.  Storage is exactly
CSC; only the execution schedule (and its padded segment count, used by
the performance model) differs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError
from repro.sparse.csc import CSCMatrix
from repro.sparse.matrix_base import register_format


@register_format
class CSCVecMatrix(CSCMatrix):
    """CSC storage + the Algorithm 2 segment gather/scatter schedule."""

    name = "csc-vec"

    def __init__(self, shape, col_ptr, row_idx, vals, s_vvec: int = 8):
        super().__init__(shape, col_ptr, row_idx, vals)
        if s_vvec < 1:
            raise FormatError("s_vvec must be >= 1")
        self.s_vvec = int(s_vvec)
        # Precompute the segment schedule: for every segment, its column
        # and its [start, stop) range in the value array — what a real
        # implementation would derive on the fly from col_ptr.
        starts = []
        cols = []
        cp = np.asarray(self.col_ptr, dtype=np.int64)
        for j in range(shape[1]):
            for s in range(int(cp[j]), int(cp[j + 1]), self.s_vvec):
                starts.append(s)
                cols.append(j)
        self._seg_start = np.asarray(starts, dtype=np.int64)
        self._seg_col = np.asarray(cols, dtype=np.int64)

    @classmethod
    def from_coo(cls, shape, rows, cols, vals, *, s_vvec: int = 8, **kwargs):
        csc = CSCMatrix.from_coo(shape, rows, cols, vals, **kwargs)
        return cls(shape, csc.col_ptr, csc.row_idx, csc.vals, s_vvec)

    @property
    def num_segments(self) -> int:
        return self._seg_start.shape[0]

    def padded_slots(self) -> int:
        """Slots if every segment were padded to full s_vvec width."""
        return self.num_segments * self.s_vvec

    def spmv_into(self, x, y):
        x = self._check_x(x)
        y[:] = 0
        if self.nnz == 0:
            return y
        cp = np.asarray(self.col_ptr, dtype=np.int64)
        s_vvec = self.s_vvec
        # Algorithm 2, line by line: the gather (y[idx]), the FMA, the
        # scatter (y[idx] = ...).  Vectorised per segment batch by
        # grouping segments of equal length.
        seg_stop = np.minimum(self._seg_start + s_vvec, cp[self._seg_col + 1])
        seg_len = seg_stop - self._seg_start
        for length in np.unique(seg_len):
            sel = seg_len == length
            starts = self._seg_start[sel]
            colv = x[self._seg_col[sel]]
            idx = starts[:, None] + np.arange(length)[None, :]
            rows = self.row_idx[idx].astype(np.int64)
            contrib = colv[:, None] * self.vals[idx]     # the FMA step
            # gather + scatter of Algorithm 2 collapse into one indexed
            # accumulation here; np.add.at handles segments of the same
            # batch hitting identical y rows
            np.add.at(y, rows.ravel(), contrib.ravel())
        return y

    def memory_bytes(self):
        base = super().memory_bytes()
        # identical storage to CSC; the schedule adds no matrix bytes
        return base

    def permutation_instruction_count(self) -> int:
        """Gather + scatter element count per SpMV — the Algorithm 2 tax."""
        return 2 * self.nnz
