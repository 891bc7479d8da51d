"""CVR — Compressed Vectorization-oriented sparse Row (Xie et al.).

CVR packs the nonzeros of many rows into ``num_lanes`` parallel streams:
rows are dealt to SIMD lanes, each lane consumes its rows' nonzeros
sequentially, and when a lane finishes a row it *steals* the next unserved
row.  All lanes advance in lock-step, so step ``t`` of the kernel touches
``num_lanes`` contiguous values — vertical vectorisation with almost no
padding (only the final steps of the longest lane are padded).

Storage here follows that schedule: values and column ids live in
``(steps, num_lanes)`` arrays, plus per-element segment ids (which output
row the lane is working on) used by the vectorised segmented reduction.
"""

from __future__ import annotations

import numpy as np

from repro.config import INDEX_DTYPE
from repro.errors import FormatError
from repro.sparse.coo import COOMatrix
from repro.sparse.matrix_base import SpMVFormat, register_format


@register_format
class CVRMatrix(SpMVFormat):
    """CVR with a configurable lane count (default 8 = AVX-512 f64)."""

    name = "cvr"

    def __init__(self, shape, lane_vals, lane_cols, lane_rows, num_lanes, nnz):
        super().__init__(shape, nnz, lane_vals.dtype)
        #: (steps, lanes) value grid; padding slots are value 0, row -1
        self.lane_vals = lane_vals
        self.lane_cols = lane_cols
        #: (steps, lanes) output row per slot (-1 for padding)
        self.lane_rows = lane_rows
        self.num_lanes = int(num_lanes)

    @classmethod
    def from_coo(cls, shape, rows, cols, vals, *, num_lanes: int = 8, **kwargs):
        if num_lanes < 1:
            raise FormatError("num_lanes must be >= 1")
        coo = COOMatrix.from_coo(shape, rows, cols, vals, **kwargs)
        row_ptr, col_idx, v = coo.to_csr_arrays()
        m = shape[0]
        counts = np.diff(row_ptr).astype(np.int64)
        nonempty = np.flatnonzero(counts)

        # Deal rows to lanes greedily: each lane takes the next unserved
        # row when it finishes one (row stealing), tracked per lane.
        lane_seq: list[list[tuple[int, int, int]]] = [[] for _ in range(num_lanes)]
        lane_load = np.zeros(num_lanes, dtype=np.int64)
        for r in nonempty:
            lane = int(np.argmin(lane_load))
            lane_seq[lane].append((int(r), int(row_ptr[r]), int(row_ptr[r + 1])))
            lane_load[lane] += counts[r]
        steps = int(lane_load.max()) if num_lanes else 0

        lane_vals = np.zeros((steps, num_lanes), dtype=v.dtype)
        lane_cols = np.zeros((steps, num_lanes), dtype=INDEX_DTYPE)
        lane_rows = np.full((steps, num_lanes), -1, dtype=INDEX_DTYPE)
        for lane in range(num_lanes):
            t = 0
            for r, a, b in lane_seq[lane]:
                n = b - a
                lane_vals[t : t + n, lane] = v[a:b]
                lane_cols[t : t + n, lane] = col_idx[a:b]
                lane_rows[t : t + n, lane] = r
                t += n
        return cls(shape, lane_vals, lane_cols, lane_rows, num_lanes, coo.nnz)

    def spmv_into(self, x, y):
        x = self._check_x(x)
        y[:] = 0
        if self.lane_vals.size == 0:
            return y
        rows = self.lane_rows.ravel()
        valid = rows >= 0
        products = (self.lane_vals.ravel() * x[self.lane_cols.ravel()])[valid]
        y += np.bincount(rows[valid], weights=products, minlength=self.shape[0]).astype(
            self.dtype, copy=False
        )
        return y

    def memory_bytes(self):
        # Real CVR streams values + columns for every slot and compact
        # per-lane row-switch records (~2 ints per row) instead of the full
        # lane_rows grid.
        slots = self.lane_vals.size
        switch_records = 2 * INDEX_DTYPE.itemsize * max(
            int(np.count_nonzero(np.diff(self.lane_rows, axis=0)) + self.num_lanes), 1
        )
        idx = slots * INDEX_DTYPE.itemsize + switch_records
        return {
            "values": self.lane_vals.nbytes,
            "indices": idx,
            "total": self.lane_vals.nbytes + idx,
        }

    def padding_ratio(self) -> float:
        """Padded slots / nnz — small by construction (tail only)."""
        return self.lane_vals.size / self.nnz - 1.0 if self.nnz else 0.0

    def to_coo_triplets(self):
        rows = self.lane_rows.ravel()
        valid = rows >= 0
        return (
            rows[valid].astype(np.int64),
            self.lane_cols.ravel()[valid].astype(np.int64),
            self.lane_vals.ravel()[valid],
        )
