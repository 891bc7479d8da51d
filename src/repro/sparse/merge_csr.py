"""Merge-based CSR SpMV (Merrill & Garland, SC'16).

Standard CSR storage, but the *schedule* changes: the total work is modeled
as the merge of two sorted lists — the row boundaries ``row_ptr[1:]`` and
the nonzero indices ``0..nnz-1`` — of combined length ``m + nnz``.  The
merge path is split into equal-length chunks via 2-D binary search
(:func:`merge_path_search`), giving every worker an identical amount of
(row-completion + nonzero) work regardless of row-length skew.  Workers
compute partial sums for the rows they touch; rows split across chunks are
fixed up with per-chunk carry-out entries.

This guarantees perfect load balance — the property "Merge" is benchmarked
for in the paper — at the cost of extra bookkeeping per chunk.
"""

from __future__ import annotations

import numpy as np

from repro.config import INDEX_DTYPE
from repro.errors import FormatError
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import segment_sum
from repro.sparse.matrix_base import SpMVFormat, register_format


def merge_path_search(diagonal: int, row_end: np.ndarray, nnz: int) -> tuple[int, int]:
    """2-D binary search: where does *diagonal* cross the merge path?

    The merge path of lists ``A = row_end`` (length m) and ``B = 0..nnz-1``
    passes through ``(i, j)`` with ``i + j = diagonal``; we find the split
    with ``A[i'] <= B[j']`` ordering preserved.  Returns ``(i, j)`` = (rows
    consumed, nonzeros consumed).
    """
    m = row_end.shape[0]
    lo = max(0, diagonal - nnz)
    hi = min(diagonal, m)
    while lo < hi:
        mid = (lo + hi) // 2
        # A[mid] vs B[diagonal - mid - 1] == diagonal - mid - 1
        if row_end[mid] <= diagonal - mid - 1:
            lo = mid + 1
        else:
            hi = mid
    return lo, diagonal - lo


@register_format
class MergeCSRMatrix(SpMVFormat):
    """CSR arrays + merge-path chunked execution."""

    name = "merge"

    def __init__(self, shape, row_ptr, col_idx, vals, num_chunks):
        super().__init__(shape, len(vals), vals.dtype)
        self.row_ptr = np.ascontiguousarray(row_ptr, dtype=INDEX_DTYPE)
        self.col_idx = np.ascontiguousarray(col_idx, dtype=INDEX_DTYPE)
        self.vals = np.ascontiguousarray(vals)
        self.num_chunks = int(num_chunks)
        if self.num_chunks < 1:
            raise FormatError("num_chunks must be >= 1")
        self._chunks = self._partition()

    @classmethod
    def from_coo(cls, shape, rows, cols, vals, *, num_chunks: int = 64, **kwargs):
        coo = COOMatrix.from_coo(shape, rows, cols, vals, **kwargs)
        row_ptr, col_idx, v = coo.to_csr_arrays()
        return cls(shape, row_ptr, col_idx, v, num_chunks)

    def _partition(self) -> list[tuple[int, int, int, int]]:
        """Chunk list of ``(row_start, row_end, nnz_start, nnz_end)``."""
        m = self.shape[0]
        nnz = self.nnz
        total = m + nnz
        row_end = np.asarray(self.row_ptr[1:], dtype=np.int64)
        chunks = []
        prev = (0, 0)
        for c in range(1, self.num_chunks + 1):
            diagonal = min((total * c) // self.num_chunks, total)
            cur = merge_path_search(diagonal, row_end, nnz)
            chunks.append((prev[0], cur[0], prev[1], cur[1]))
            prev = cur
        assert prev == (m, nnz), "merge path must consume all work"
        return chunks

    def spmv_into(self, x, y):
        x = self._check_x(x)
        y[:] = 0
        products = self.vals * x[self.col_idx]
        row_ptr = np.asarray(self.row_ptr, dtype=np.int64)
        m = self.shape[0]
        # Per-chunk: rows *completing* inside the chunk get a segmented sum;
        # the row left open at chunk end contributes a carry.  The merge
        # path guarantees row_ptr[r0] <= k0 <= row_ptr[r0+1], so a chunk
        # never holds nonzeros of rows before r0.
        carries = np.zeros(m, dtype=np.float64)
        for r0, r1, k0, k1 in self._chunks:
            if k0 == k1 and r0 == r1:
                continue
            if r0 < r1:
                seg_starts = row_ptr[r0:r1].copy()
                seg_starts[0] = k0  # row r0 may have been partially consumed
                local_ptr = np.concatenate([seg_starts, row_ptr[r1 : r1 + 1]]) - k0
                out = np.zeros(r1 - r0, dtype=self.dtype)
                segment_sum(products[k0 : row_ptr[r1]], local_ptr, out)
                y[r0:r1] += out
                tail_start = int(row_ptr[r1])
            else:
                tail_start = k0
            if tail_start < k1 and r1 < m:
                carries[r1] += products[tail_start:k1].sum(dtype=np.float64)
        y += carries.astype(self.dtype, copy=False)
        return y

    def memory_bytes(self):
        idx = self.row_ptr.nbytes + self.col_idx.nbytes
        return {
            "values": self.vals.nbytes,
            "indices": idx,
            "total": self.vals.nbytes + idx,
        }

    def chunk_loads(self) -> np.ndarray:
        """Merge-work items per chunk — near-constant by construction."""
        return np.array([(r1 - r0) + (k1 - k0) for r0, r1, k0, k1 in self._chunks])

    def to_coo_triplets(self):
        rows = np.repeat(
            np.arange(self.shape[0], dtype=np.int64), np.diff(self.row_ptr)
        )
        return rows, self.col_idx.astype(np.int64), self.vals
