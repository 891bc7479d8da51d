"""CSCV-M: the mask-compressed CSCV execution format.

CSCV-M removes the padding zeros from storage: each CSCVE keeps only its
real nonzeros plus an ``s_vvec``-bit occupancy mask, and the kernel
re-expands them at compute time (hardware ``vexpand`` on AVX-512, the
``soft-vexpand`` loop elsewhere).  The paper finds roughly 30% of the
memory traffic disappears (Section IV-E), which makes CSCV-M the
**bandwidth-bound champion** — best at high thread counts — at the price
of the expansion instruction overhead that hurts it at low thread counts.

Here each VxG slot's mask is a uint32 and each VxG carries an int64
packed offset, so the saving is smaller: at 256² (default parameters,
float32, 19.1M nnz) the kernel streams 129.3 MB against CSCV-Z's
152.8 MB, a 15% cut (M/Z = 0.85).  With little padding (small ``s_vvec``
and ``s_vxg``) CSCV-M can stream more than CSCV-Z.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.builder import CSCVData
from repro.core.format_z import CSCVZMatrix
from repro.core.params import CSCVParams
from repro.core.spmv import kernel_bytes, product, value_cols_m, value_rows_m
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.sparse.matrix_base import SpMVFormat, register_format


@register_format
class CSCVMMatrix(SpMVFormat):
    """CSCV with padding removed behind per-CSCVE masks (paper's CSCV-M)."""

    name = "cscv-m"
    variant = "m"

    def __init__(self, data: CSCVData, threads: int | None = None):
        super().__init__(data.shape, data.nnz, data.dtype)
        self.data = data
        self.threads = threads
        self._value_rows: np.ndarray | None = None
        self._rows_lock = threading.Lock()

    @classmethod
    def from_ct(
        cls,
        coo,
        geom: ParallelBeamGeometry,
        params: CSCVParams | None = None,
        *,
        dtype=None,
        threads: int | None = None,
        reference_mode: str = "ioblr",
        build_workers: int | None = None,
        projector: str = "strip",
    ) -> "CSCVMMatrix":
        """Build from a :class:`~repro.sparse.COOMatrix` and its geometry,
        or trace the geometry when ``coo`` is None (see
        :meth:`CSCVZMatrix.from_ct`)."""
        # identical construction; Z and M share CSCVData
        z = CSCVZMatrix.from_ct(
            coo, geom, params, dtype=dtype, reference_mode=reference_mode,
            build_workers=build_workers, projector=projector,
        )
        return cls(z.data, threads)

    @classmethod
    def from_coo(cls, shape, rows, cols, vals, *, geom=None, params=None, **kwargs):
        """SpMVFormat contract; requires ``geom=``."""
        z = CSCVZMatrix.from_coo(shape, rows, cols, vals, geom=geom, params=params, **kwargs)
        return cls(z.data)

    # ------------------------------------------------------------------ #
    # persistence (operator-cache hooks; shared CSCVData layout with Z)

    cache_state = CSCVZMatrix.cache_state

    @classmethod
    def from_cache_state(cls, meta, arrays, *, threads=None, **kwargs):
        """Wrap cached (possibly memory-mapped) CSCV arrays directly."""
        z = CSCVZMatrix.from_cache_state(meta, arrays, threads=threads, **kwargs)
        return cls(z.data, threads)

    # ------------------------------------------------------------------ #

    def spmv_into(self, x, y):
        return product(self, x, y)

    def spmm_into(self, X, Y):
        """Multi-RHS SpMV: one packed-value stream serves all k columns."""
        return product(self, X, Y)

    def transpose_spmv(self, y_in: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``x = A^T y`` over the packed value stream."""
        return product(self, y_in, out, adjoint=True)

    def transpose_spmm(self, Y_in: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``X = A^T Y`` for a sinogram stack ``Y`` of shape (m, k)."""
        return product(self, Y_in, out, adjoint=True)

    def _rows(self) -> np.ndarray:
        """Row of every value slot (-1 for padding), built once even when
        threads sharing the matrix ask at the same time."""
        if self._value_rows is None:
            with self._rows_lock:
                if self._value_rows is None:
                    self._value_rows = value_rows_m(self.data)
        return self._value_rows

    # ------------------------------------------------------------------ #

    @property
    def r_nnze(self) -> float:
        """Logical zero-padding rate (storage itself holds no padding)."""
        return self.data.r_nnze

    @property
    def params(self) -> CSCVParams:
        return self.data.params

    def memory_bytes(self):
        """Traffic the kernel streams: packed values + masks + VxG index + maps.

        Versus CSCV-Z the padded value stream shrinks to exactly ``nnz``
        values, paid for with one uint32 mask per VxG slot and one int64
        packed offset per VxG: exactly the arrays the C kernels are
        handed (:data:`~repro.core.spmv.KERNEL_ARRAYS`).
        """
        return kernel_bytes(self.data, self.variant)

    def traffic_saving_vs_z(self) -> float:
        """Fraction of CSCV-Z's matrix traffic that CSCV-M avoids."""
        z_total = kernel_bytes(self.data, "z")["total"]
        m_total = self.memory_bytes()["total"]
        return 1.0 - m_total / z_total if z_total else 0.0

    def to_dense(self):
        dense = np.zeros(self.shape, dtype=self.dtype)
        rows, cols, vals = self.to_coo_triplets()
        dense[rows, cols] = vals
        return dense

    def to_coo_triplets(self):
        d = self.data
        if d.nnz == 0:
            z = np.zeros(0, dtype=np.int64)
            return z, z, np.zeros(0, dtype=self.dtype)
        return self._rows().astype(np.int64), value_cols_m(d), d.packed
