"""Linear-operator facade over any SpMV format.

Solvers in this package only speak :class:`ProjectionOperator`:
``op.forward(x)`` is ``A x`` (forward projection) and ``op.adjoint(y)``
is ``A^T y`` (back-projection).  Both accept a single vector or a 2-D
stack of ``k`` vectors (multi-slice CT: ``x`` of shape (n, k), ``y`` of
shape (m, k)) and return the matching shape.  Formats that implement
``transpose_spmv`` (CSR, CSC, MKL-like, both CSCVs) get a native adjoint;
anything else falls back to an internally-built transposed CSR, assembled
directly from the format's COO triplets — O(nnz) extra memory, never a
dense copy — so every format can drive every solver.

Every SART-family solver (SIRT, ART, OS-SART) runs on these two
products alone; only ICD's column access needs a second copy of the
matrix (:meth:`ProjectionOperator.to_csc`).

One operator may serve several threads at once (the service shares one
per operator key across its workers): its memoised members — the CSC
copy, the fallback adjoint and the SART weights — are each built once,
under a per-operator lock.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import ValidationError
from repro.resilience import faults
from repro.resilience.guards import check as guard_check
from repro.sparse.matrix_base import SpMVFormat
from repro.utils.arrays import check_1d, check_out, ensure_dtype


class ProjectionOperator:
    """Forward/adjoint operator pair over one sparse format."""

    def __init__(self, fmt: SpMVFormat):
        self.fmt = fmt
        self._adj_fallback: SpMVFormat | None = None
        self._csc = None
        self._sart = None
        #: reentrant: building the SART weights runs the adjoint, which
        #: may build the fallback transpose
        self._lock = threading.RLock()

    @property
    def shape(self) -> tuple[int, int]:
        return self.fmt.shape

    @property
    def dtype(self) -> np.dtype:
        return self.fmt.dtype

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y = A x`` — batched (SpMM) when *x* is a 2-D stack.

        Under ``REPRO_GUARD`` the operand is screened for non-finite
        values on the way in (and, at level ``full``, the product on the
        way out); the ``operator.input.forward`` fault point can poison
        the operand for chaos tests.
        """
        x = faults.corrupt_array("operator.input.forward", np.asarray(x))
        guard_check(x, "x", where="operator.forward")
        if x.ndim == 2:
            res = self.fmt.spmm(x, out)
        else:
            res = self.fmt.spmv(x, out)
        guard_check(res, "A x", where="operator.forward", kind="output")
        return res

    def adjoint(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``x = A^T y``; uses the format's native transpose when present.

        A 2-D *y* of shape (m, k) back-projects the whole stack at once
        through ``transpose_spmm`` when the format has one, else column
        by column.  Guarded and fault-injectable like :meth:`forward`
        (``operator.input.adjoint``).
        """
        y = faults.corrupt_array("operator.input.adjoint", np.asarray(y))
        guard_check(y, "y", where="operator.adjoint")
        if y.ndim == 2:
            res = self._adjoint_batch(y, out)
            guard_check(res, "A^T y", where="operator.adjoint", kind="output")
            return res
        native = getattr(self.fmt, "transpose_spmv", None)
        if native is not None:
            res = native(y, out)
            guard_check(res, "A^T y", where="operator.adjoint", kind="output")
            return res
        res = self._memo("_adj_fallback", self._build_fallback).spmv(
            ensure_dtype(check_1d(y, self.shape[0], "y"), self.dtype, "y"), out
        )
        guard_check(res, "A^T y", where="operator.adjoint", kind="output")
        return res

    def _adjoint_batch(self, Y: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        if Y.shape[0] != self.shape[0]:
            raise ValidationError(f"y must have shape ({self.shape[0]}, k), got {Y.shape}")
        native_mm = getattr(self.fmt, "transpose_spmm", None)
        if native_mm is not None:
            return native_mm(Y, out)
        native = getattr(self.fmt, "transpose_spmv", None)
        if native is None:
            Yc = np.ascontiguousarray(Y, dtype=self.dtype)
            return self._memo("_adj_fallback", self._build_fallback).spmm(Yc, out)
        out = check_out(out, (self.shape[1], Y.shape[1]), self.dtype)
        for j in range(Y.shape[1]):
            out[:, j] = native(np.ascontiguousarray(Y[:, j]))
        return out

    def _build_fallback(self) -> SpMVFormat:
        """Transposed CSR assembled from the format's own COO triplets.

        Swapping (rows, cols) and re-sorting is O(nnz) peak extra memory;
        the matrix is never densified on this path.
        """
        from repro.sparse.csr import CSRMatrix

        rows, cols, vals = self.fmt.to_coo_triplets()
        m, n = self.shape
        return CSRMatrix.from_coo((n, m), cols, rows, vals, dtype=self.dtype)

    def to_csc(self):
        """The operator's matrix as a :class:`CSCMatrix` (memoised).

        Column-access solvers (ICD) need CSC regardless of the format the
        operator was built with; the conversion runs once per operator.
        """
        from repro.sparse.csc import CSCMatrix

        if isinstance(self.fmt, CSCMatrix):
            return self.fmt
        return self._memo("_csc", lambda: CSCMatrix.from_coo(
            self.shape, *self.fmt.to_coo_triplets(), dtype=self.dtype
        ))

    def _memo(self, name: str, build):
        """The memoised member *name*, built once by ``build()`` even
        when several threads ask for it at the same time."""
        value = getattr(self, name)
        if value is None:
            with self._lock:
                value = getattr(self, name)
                if value is None:
                    value = build()
                    setattr(self, name, value)
        return value

    # ------------------------------------------------------------------ #
    # derived quantities the solvers need

    def sart_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """``(1 / row sums, 1 / column sums)`` — SART weights (memoised).

        Exactly :func:`repro.recon.sirt.sart_weights` over this
        operator's forward and adjoint, computed on the first call (one
        forward and one adjoint SpMV) and shared, read-only, by every
        later solve on the operator.
        """
        from repro.recon.sirt import sart_weights

        def build():
            weights = sart_weights(self.forward, self.adjoint, self.shape, self.dtype)
            for w in weights:
                w.setflags(write=False)
            return weights

        return self._memo("_sart", build)
