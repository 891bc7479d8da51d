"""BSR — block sparse row: the "collection of dense sub-matrices" method.

The second-type method of the paper's Section II taxonomy ([4], [17]):
the matrix is tiled into ``r x c`` dense blocks and every tile containing
at least one nonzero is stored *densely*.  SIMD-friendly (each tile is a
small dense GEMV) and index-cheap (one column id per tile), but the
padding zeros inside tiles are streamed and multiplied — the exact
traffic cost CSCV-M exists to avoid, which makes BSR the natural ablation
baseline for the dense-block end of the design space.
"""

from __future__ import annotations

import numpy as np

from repro.config import INDEX_DTYPE
from repro.errors import FormatError
from repro.sparse.coo import COOMatrix
from repro.sparse.matrix_base import SpMVFormat, register_format


@register_format
class BSRMatrix(SpMVFormat):
    """Block sparse row with ``r x c`` dense tiles."""

    name = "bsr"

    def __init__(self, shape, block_row_ptr, block_col, blocks, r, c, nnz):
        super().__init__(shape, nnz, blocks.dtype)
        self.block_row_ptr = np.ascontiguousarray(block_row_ptr, dtype=INDEX_DTYPE)
        self.block_col = np.ascontiguousarray(block_col, dtype=INDEX_DTYPE)
        #: (num_blocks, r, c) dense tiles
        self.blocks = blocks
        self.r = int(r)
        self.c = int(c)

    @classmethod
    def from_coo(cls, shape, rows, cols, vals, *, r: int = 4, c: int = 8, **kwargs):
        if r < 1 or c < 1:
            raise FormatError("block dims must be >= 1")
        coo = COOMatrix.from_coo(shape, rows, cols, vals, **kwargs)
        m, n = shape
        brows = coo.rows // r
        bcols = coo.cols // c
        nbr = (m + r - 1) // r
        nbc = (n + c - 1) // c
        key = brows * nbc + bcols
        order = np.argsort(key, kind="stable")
        key_s = key[order]
        uniq, start = (np.unique(key_s, return_index=True) if key_s.size
                       else (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)))
        num_blocks = uniq.size

        blocks = np.zeros((num_blocks, r, c), dtype=coo.vals.dtype)
        block_of = np.searchsorted(uniq, key)
        blocks[block_of, coo.rows % r, coo.cols % c] = coo.vals

        block_brow = (uniq // nbc).astype(np.int64)
        block_col = (uniq % nbc).astype(INDEX_DTYPE)
        counts = np.bincount(block_brow, minlength=nbr)
        block_row_ptr = np.zeros(nbr + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=block_row_ptr[1:])
        return cls(shape, block_row_ptr, block_col, blocks, r, c, coo.nnz)

    @property
    def num_blocks(self) -> int:
        return self.blocks.shape[0]

    def spmv_into(self, x, y):
        x = self._check_x(x)
        y[:] = 0
        m, n = self.shape
        if self.num_blocks == 0:
            return y
        r, c = self.r, self.c
        # gather x tiles (zero-padded at the right edge), batch the GEMVs
        xpad = np.zeros(((n + c - 1) // c) * c, dtype=self.dtype)
        xpad[:n] = x
        xt = xpad.reshape(-1, c)[self.block_col.astype(np.int64)]  # (B, c)
        contrib = np.einsum("brc,bc->br", self.blocks, xt)          # (B, r)
        nbr = self.block_row_ptr.shape[0] - 1
        brow_of_block = np.repeat(np.arange(nbr), np.diff(self.block_row_ptr))
        ypad = np.zeros((nbr, r), dtype=np.float64)
        np.add.at(ypad, brow_of_block, contrib)
        y[:] = ypad.reshape(-1)[:m].astype(self.dtype, copy=False)
        return y

    def memory_bytes(self):
        idx = self.block_row_ptr.nbytes + self.block_col.nbytes
        return {
            "values": self.blocks.nbytes,
            "indices": idx,
            "total": self.blocks.nbytes + idx,
        }

    def fill_ratio(self) -> float:
        """nnz / stored slots — the dense-block efficiency (<= 1)."""
        slots = self.blocks.size
        return self.nnz / slots if slots else 0.0

    def to_coo_triplets(self):
        m, n = self.shape
        nbr = self.block_row_ptr.shape[0] - 1
        brow_of_block = np.repeat(
            np.arange(nbr, dtype=np.int64), np.diff(self.block_row_ptr)
        )
        b, lr, lc = np.nonzero(self.blocks)
        rows = brow_of_block[b] * self.r + lr
        cols = self.block_col.astype(np.int64)[b] * self.c + lc
        # edge tiles are zero-padded, so all stored nonzeros are in range
        return rows, cols, self.blocks[b, lr, lc]
