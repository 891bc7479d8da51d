"""CSCV-Z: the padding-keeping CSCV execution format.

CSCV-Z streams every value slot, padding zeros included.  Its inner loop
is the cheapest possible — load a contiguous vector, FMA, store — with no
masks and no expansion, making it the **latency-bound champion** (best at
low thread counts, Section V-E).  The price is ``R_nnzE`` extra memory
traffic, which caps it once the machine becomes bandwidth-bound.

Both execution variants come from one conversion (Section IV-E): the
same CSCVEs and VxGs in one :class:`~repro.core.builder.CSCVData`, with
CSCV-M (:mod:`repro.core.format_m`) storing the padding as lane masks.
They therefore share one class body, :class:`CSCVMatrix`, whose products
all run through the one dispatcher (:func:`repro.core.spmv.product`)
keyed by :attr:`CSCVMatrix.variant`.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.config import INDEX_DTYPE
from repro.core.builder import CSCVData, build_cscv, build_cscv_from_geometry
from repro.core.params import CSCVParams
from repro.core.spmv import VALUE_ROWS, kernel_bytes, product
from repro.errors import FormatError, ValidationError
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.sparse.matrix_base import SpMVFormat, register_format


class CSCVMatrix(SpMVFormat):
    """The body CSCV-Z and CSCV-M share; unregistered.

    A variant sets :attr:`name`, :attr:`variant` (the key of its kernels,
    value stream and value-row map in :mod:`repro.core.spmv`) and
    :meth:`to_coo_triplets`.  ``CSCVMMatrix(z.data)`` views a CSCV-Z
    conversion as CSCV-M without copying.
    """

    variant = ""

    def __init__(self, data: CSCVData, threads: int | None = None):
        super().__init__(data.shape, data.nnz, data.dtype)
        self.data = data
        self.threads = threads
        self._value_rows: np.ndarray | None = None
        self._rows_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # construction

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
    ) -> "CSCVMatrix":
        """Build from a :class:`~repro.sparse.COOMatrix` and its geometry.

        With ``coo=None`` the matrix is traced from *geom* by the named
        ``projector`` one view group at a time
        (:func:`repro.core.builder.build_cscv_from_geometry`), so the
        global COO never exists; ``dtype`` then defaults to float32.
        ``reference_mode="btb"`` selects the view-major ablation layout
        (see :func:`repro.core.builder.build_cscv`);  ``build_workers``
        overrides ``REPRO_BUILD_WORKERS`` for the build (the result is
        bitwise-identical for any value).
        """
        params = params or CSCVParams()
        if coo is None:
            from repro.geometry import PROJECTORS

            if projector not in PROJECTORS:
                raise ValidationError(
                    f"unknown projector {projector!r}; options: "
                    f"{sorted(PROJECTORS)}"
                )
            data = build_cscv_from_geometry(
                geom, params, np.float32 if dtype is None else dtype,
                projector=PROJECTORS[projector],
                reference_mode=reference_mode, workers=build_workers,
            )
            return cls(data, threads)
        if coo.shape != (geom.num_rays, geom.num_pixels):
            raise ValidationError(
                f"matrix shape {coo.shape} does not match geometry "
                f"{(geom.num_rays, geom.num_pixels)}"
            )
        data = build_cscv(
            coo.rows, coo.cols, coo.vals, geom, params, dtype,
            reference_mode=reference_mode, workers=build_workers,
        )
        return cls(data, threads)

    @classmethod
    def from_coo(cls, shape, rows, cols, vals, *, geom=None, params=None, **kwargs):
        """SpMVFormat contract; requires ``geom=`` (CSCV needs the operator)."""
        if geom is None:
            raise ValidationError(
                "CSCV requires geom= (the integral-operator geometry)"
            )
        from repro.sparse.coo import COOMatrix

        coo = COOMatrix.from_coo(shape, rows, cols, vals, dtype=kwargs.pop("dtype", None))
        return cls.from_ct(coo, geom, params, **kwargs)

    # ------------------------------------------------------------------ #
    # persistence (operator-cache hooks; arrays restore zero-copy)

    def cache_state(self):
        """Native CSCV arrays — restoring needs no conversion at all."""
        from repro.core.io import _ARRAYS, cscv_meta_array

        meta = {"kind": "cscv", "dtype": str(self.dtype)}
        arrays = {"_cscv_meta": cscv_meta_array(self.data)}
        for name in _ARRAYS:
            arrays[name] = getattr(self.data, name)
        return meta, arrays

    @classmethod
    def from_cache_state(cls, meta, arrays, *, threads=None, **kwargs):
        """Wrap cached (possibly memory-mapped) CSCV arrays directly."""
        if meta.get("kind") != "cscv":
            raise FormatError(
                f"{cls.__name__} cannot restore cache entries of kind "
                f"{meta.get('kind')!r}"
            )
        from repro.core.io import cscv_data_from_arrays

        data = cscv_data_from_arrays(
            arrays["_cscv_meta"], arrays, source="<operator-cache>"
        )
        return cls(data, threads)

    # ------------------------------------------------------------------ #
    # products (all through the one CSCV dispatcher)

    def spmv_into(self, x, y):
        return product(self, x, y)

    def spmm_into(self, X, Y):
        """Multi-RHS SpMV: one VxG stream serves all k columns."""
        return product(self, X, Y)

    def transpose_spmv(self, y_in: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``x = A^T y`` — back-projection through the same VxG stream.

        For CSCV this direction is gather-only: load the contiguous
        ``ytilde`` slots, dot with the VxG values, accumulate into
        ``x[col]`` (the paper's announced future work, implemented here).
        """
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
                    self._value_rows = VALUE_ROWS[self.variant](self.data)
        return self._value_rows

    # ------------------------------------------------------------------ #
    # accounting

    @property
    def r_nnze(self) -> float:
        """Zero-padding rate of the CSCVEs: of the stored values for
        CSCV-Z, logical for CSCV-M (whose storage holds no padding)."""
        return self.data.r_nnze

    @property
    def params(self) -> CSCVParams:
        return self.data.params

    def memory_bytes(self):
        """Paper-model traffic: value stream + VxG index + reorder maps.

        Per VxG one ``(column, start)`` pair; per block the pointer/ysize
        metadata; the ``ymap`` permutation is streamed once per block
        during the reorder steps of Algorithm 3.  The value stream is
        CSCV-Z's padded values, or CSCV-M's ``nnz`` packed values plus
        one uint32 mask per VxG slot and one int64 packed offset per
        VxG.  Exactly the arrays the C kernels are handed
        (:data:`~repro.core.spmv.KERNEL_ARRAYS`).
        """
        return kernel_bytes(self.data, self.variant)

    def to_dense(self):
        dense = np.zeros(self.shape, dtype=self.dtype)
        rows, cols, vals = self.to_coo_triplets()
        dense[rows, cols] = vals
        return dense


@register_format
class CSCVZMatrix(CSCVMatrix):
    """CSCV with padding zeros stored (paper's CSCV-Z)."""

    name = "cscv-z"
    variant = "z"

    def index_compression_vs_csc(self) -> float:
        """Index bytes relative to CSC (paper: ~0.03x with VxGs)."""
        csc_idx = (self.shape[1] + 1 + self.nnz) * INDEX_DTYPE.itemsize
        return self.memory_bytes()["indices"] / csc_idx if csc_idx else 0.0

    def to_coo_triplets(self):
        d = self.data
        if d.nnz == 0:
            z = np.zeros(0, dtype=np.int64)
            return z, z, np.zeros(0, dtype=self.dtype)
        rows = self._rows()
        cols = np.repeat(d.vxg_col.astype(np.int64), d.params.vxg_len)
        valid = (rows >= 0) & (d.values != 0)
        return rows[valid].astype(np.int64), cols[valid], d.values[valid]
