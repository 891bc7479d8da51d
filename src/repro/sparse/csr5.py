"""CSR5 (Liu & Vinter, ICS'15) — tiled CSR with fast segmented sum.

CSR5 partitions the nonzeros into 2-D tiles of ``sigma x omega`` entries
stored *tile-transposed* (SIMD lane = tile column), plus small per-tile
descriptors encoding where row boundaries fall inside the tile.  SpMV is a
segmented sum: each lane accumulates products, boundary bits split the
partial sums, and per-tile carries stitch tiles together.

This reproduction keeps the exact storage layout (tile-transposed values /
column indices + tile descriptors with bit flags) and performs the
segmented sum with a vectorised inclusive-scan over the products, using
the descriptors only for accounting.  The memory model counts what real
CSR5 streams: values, column indices, ``tile_ptr`` and packed descriptor
bits — not the convenience permutation NumPy needs.
"""

from __future__ import annotations

import numpy as np

from repro.config import INDEX_DTYPE
from repro.errors import FormatError
from repro.sparse.coo import COOMatrix
from repro.sparse.matrix_base import SpMVFormat, register_format


@register_format
class CSR5Matrix(SpMVFormat):
    """CSR5 with configurable tile shape (sigma rows x omega lanes)."""

    name = "csr5"

    def __init__(self, shape, row_ptr, tile_vals, tile_cols, perm, sigma, omega, nnz):
        super().__init__(shape, nnz, tile_vals.dtype)
        self.row_ptr = np.ascontiguousarray(row_ptr, dtype=INDEX_DTYPE)
        #: values in tile-transposed order, padded to a whole tile
        self.tile_vals = tile_vals
        self.tile_cols = tile_cols
        #: permutation: linear CSR position -> tile-transposed position
        self.perm = perm
        self.sigma = int(sigma)
        self.omega = int(omega)
        self.tile_size = self.sigma * self.omega
        self.num_tiles = tile_vals.size // self.tile_size

    @classmethod
    def from_coo(cls, shape, rows, cols, vals, *, sigma: int = 16, omega: int = 8, **kwargs):
        if sigma < 1 or omega < 1:
            raise FormatError("sigma and omega must be >= 1")
        coo = COOMatrix.from_coo(shape, rows, cols, vals, **kwargs)
        row_ptr, col_idx, v = coo.to_csr_arrays()
        nnz = v.size
        tile = sigma * omega
        padded = ((nnz + tile - 1) // tile) * tile if nnz else 0

        # tile-transposed position of linear nonzero k:
        #   tile t = k // tile, in-tile r = (k % tile) // omega (row of tile),
        #   lane c = k % omega; transposed offset = c * sigma + r.
        k = np.arange(padded, dtype=np.int64)
        t = k // tile
        r = (k % tile) // omega
        c = k % omega
        perm = t * tile + c * sigma + r

        tvals = np.zeros(padded, dtype=v.dtype)
        tcols = np.zeros(padded, dtype=INDEX_DTYPE)
        tvals[perm[:nnz]] = v
        tcols[perm[:nnz]] = col_idx
        return cls(shape, row_ptr, tvals, tcols, perm[:nnz].copy(), sigma, omega, nnz)

    def spmv_into(self, x, y):
        x = self._check_x(x)
        nnz = self.nnz
        if nnz == 0:
            y[:] = 0
            return y
        # Gather back to linear order (the lane walk of real CSR5), then a
        # prefix-scan segmented sum over row boundaries.
        products = self.tile_vals[self.perm] * x[self.tile_cols[self.perm]]
        scan = np.cumsum(products, dtype=np.float64)
        hi = np.asarray(self.row_ptr[1:], dtype=np.int64)
        lo = np.asarray(self.row_ptr[:-1], dtype=np.int64)
        total_hi = np.where(hi > 0, scan[hi - 1], 0.0)
        total_lo = np.where(lo > 0, scan[lo - 1], 0.0)
        y[:] = (total_hi - total_lo).astype(self.dtype, copy=False)
        return y

    def memory_bytes(self):
        # Real CSR5 streams: padded values+cols, row_ptr, tile_ptr and a
        # packed per-tile descriptor of ~(omega * (1 + log2(sigma))) bits.
        desc_bits_per_tile = self.omega * (1 + max(int(np.ceil(np.log2(max(self.sigma, 2)))), 1))
        desc_bytes = self.num_tiles * ((desc_bits_per_tile + 7) // 8)
        tile_ptr = (self.num_tiles + 1) * INDEX_DTYPE.itemsize
        idx = self.tile_cols.nbytes + self.row_ptr.nbytes + tile_ptr + desc_bytes
        return {
            "values": self.tile_vals.nbytes,
            "indices": idx,
            "total": self.tile_vals.nbytes + idx,
        }

    def to_coo_triplets(self):
        rows = np.repeat(
            np.arange(self.shape[0], dtype=np.int64), np.diff(self.row_ptr)
        )
        return (
            rows,
            self.tile_cols[self.perm].astype(np.int64),
            self.tile_vals[self.perm],
        )
