"""SPC5 (Bramas & Kus) — beta(1,c) masked row blocks without padding.

SPC5 covers each row's nonzeros with blocks of ``c`` consecutive columns
described by ``(row, first_col, c-bit mask)``; only real nonzeros are
stored.  At compute time the packed values are expanded against the mask
(``vexpand`` on AVX-512, software expansion elsewhere) and FMA'd with the
contiguous slice ``x[first_col : first_col+c]`` — dense-block
vectorisation without dense-block padding traffic.

This reproduction uses *aligned* column windows (``first_col`` a multiple
of ``c``), which makes construction fully vectorisable; alignment can only
split blocks, never merge them, so correctness and the no-padding property
are preserved.  SPC5 is the closest prior art to CSCV-M (the paper: the
masking "concept is the same as that of SPC5") and its strongest
competitor on the SKL platform.
"""

from __future__ import annotations

import numpy as np

from repro.config import INDEX_DTYPE
from repro.errors import FormatError
from repro.kernels import dispatch
from repro.sparse.coo import COOMatrix
from repro.sparse.matrix_base import SpMVFormat, register_format


@register_format
class SPC5Matrix(SpMVFormat):
    """beta(1,c) SPC5 blocks; ``c`` defaults to 8 (one AVX-512 f64 vector)."""

    name = "spc5"

    def __init__(self, shape, blk_row, blk_col, masks, voff, packed, expanded_cols, width, nnz):
        super().__init__(shape, nnz, packed.dtype)
        self.blk_row = np.ascontiguousarray(blk_row, dtype=INDEX_DTYPE)
        self.blk_col = np.ascontiguousarray(blk_col, dtype=INDEX_DTYPE)
        self.masks = np.ascontiguousarray(masks, dtype=np.uint32)
        #: prefix offsets into ``packed`` per block (len = num_blocks + 1)
        self.voff = np.ascontiguousarray(voff, dtype=np.int64)
        self.packed = np.ascontiguousarray(packed)
        #: NumPy-path helper: the column of every packed value
        self._expanded_cols = expanded_cols
        self.width = int(width)
        if self.voff[-1] != self.packed.size:
            raise FormatError("voff must end at the packed value count")

    @property
    def num_blocks(self) -> int:
        return self.blk_row.shape[0]

    @classmethod
    def from_coo(cls, shape, rows, cols, vals, *, width: int = 8, **kwargs):
        if not (1 <= width <= 32):
            raise FormatError("width must be in [1, 32]")
        coo = COOMatrix.from_coo(shape, rows, cols, vals, **kwargs)
        row_ptr, col_idx, v = coo.to_csr_arrays()
        nnz = v.size
        if nnz == 0:
            return cls(
                shape,
                np.zeros(0, dtype=INDEX_DTYPE),
                np.zeros(0, dtype=INDEX_DTYPE),
                np.zeros(0, dtype=np.uint32),
                np.zeros(1, dtype=np.int64),
                np.zeros(0, dtype=v.dtype),
                np.zeros(0, dtype=np.int64),
                width,
                0,
            )
        rows64 = np.repeat(np.arange(shape[0], dtype=np.int64), np.diff(row_ptr))
        cols64 = col_idx.astype(np.int64)
        win = cols64 // width
        # CSR order sorts (row, col), hence (row, win) keys are sorted too.
        key = rows64 * ((shape[1] // width) + 1) + win
        starts = np.flatnonzero(np.diff(key, prepend=key[0] - 1))
        blk_row = rows64[starts]
        blk_col = (win[starts] * width).astype(INDEX_DTYPE)
        bits = (np.uint32(1) << (cols64 % width).astype(np.uint32)).astype(np.uint32)
        masks = np.bitwise_or.reduceat(bits, starts)
        voff = np.concatenate([starts, [nnz]]).astype(np.int64)
        return cls(shape, blk_row, blk_col, masks, voff, v, cols64, width, nnz)

    def spmv_into(self, x, y):
        x = self._check_x(x)
        fn = dispatch.get("spc5_spmv", self.dtype)
        if fn is not None:
            fn(
                self.num_blocks,
                self.blk_row,
                self.blk_col,
                self.masks,
                self.voff,
                self.packed,
                self.width,
                x,
                y,
                self.shape[0],
            )
            return y
        y[:] = 0
        if self.packed.size == 0:
            return y
        products = self.packed * x[self._expanded_cols]
        # per-block partial sums via prefix scan, then scatter into rows
        scan = np.cumsum(products, dtype=np.float64)
        hi, lo = self.voff[1:], self.voff[:-1]
        block_sums = np.where(hi > 0, scan[hi - 1], 0.0) - np.where(lo > 0, scan[lo - 1], 0.0)
        y += np.bincount(self.blk_row, weights=block_sums, minlength=self.shape[0]).astype(
            self.dtype, copy=False
        )
        return y

    def memory_bytes(self):
        # streams: packed values; per-block column + mask; per-row block
        # counts (real SPC5 stores rows implicitly this way).
        mask_bytes = self.num_blocks * ((self.width + 7) // 8)
        row_meta = (self.shape[0] + 1) * INDEX_DTYPE.itemsize
        idx = self.blk_col.nbytes + mask_bytes + row_meta
        return {
            "values": self.packed.nbytes,
            "indices": idx,
            "total": self.packed.nbytes + idx,
        }

    def blocks_per_nnz(self) -> float:
        """Average blocks per nonzero — lower means denser packing."""
        return self.num_blocks / self.nnz if self.nnz else 0.0

    def avg_fill(self) -> float:
        """Average nonzeros per block (out of ``width`` slots)."""
        return self.nnz / self.num_blocks if self.num_blocks else 0.0

    def to_coo_triplets(self):
        rows = np.repeat(self.blk_row.astype(np.int64), np.diff(self.voff))
        return rows, self._expanded_cols.astype(np.int64), self.packed
