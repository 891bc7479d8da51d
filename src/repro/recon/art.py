"""ART (Kaczmarz) reconstruction — the classical row-action solver.

ART sweeps the sinogram rows; each row update

.. math:: x \\leftarrow x + \\lambda \\frac{y_i - a_i^T x}{\\|a_i\\|^2} a_i

needs row access, which is why "CSR-based SpMV does well in ART-type
algorithms" (Section III).  The implementation here performs *blocked*
ART: rows are processed in view-sized batches with SpMV on the batch
(this is also called OS-SART), so the per-iteration cost is dominated by
the SpMV kernels being benchmarked.
"""

from __future__ import annotations

import numpy as np

from repro.recon.driver import Iteration, run
from repro.recon.linops import ProjectionOperator
from repro.sparse.csr import CSRMatrix


def kaczmarz_sweep(
    csr: CSRMatrix,
    x: np.ndarray,
    y: np.ndarray,
    row_norms_sq: np.ndarray,
    relax: float = 1.0,
) -> np.ndarray:
    """One full classical Kaczmarz sweep (row by row, in place on *x*).

    Exact row-action reference; O(nnz) per sweep but Python-loop based —
    use for validation-scale problems and convergence tests.
    """
    row_ptr, col_idx, vals = csr.row_ptr, csr.col_idx, csr.vals
    for i in range(csr.shape[0]):
        a, b = int(row_ptr[i]), int(row_ptr[i + 1])
        if a == b or row_norms_sq[i] == 0.0:
            continue
        cols = col_idx[a:b]
        av = vals[a:b]
        resid = y[i] - av @ x[cols]
        x[cols] += relax * resid / row_norms_sq[i] * av
    return x


class Art(Iteration):
    """Blocked-ART state: the SART weights over a single (m,) sinogram."""

    name = "art"

    def __init__(self, op, y, x, params, geom, resumed):
        super().__init__(op, y, x, params)
        self.inv_row, self.inv_col = op.sart_weights()

    def step(self):
        self.resid = self.y - self.op.forward(self.x)
        return self.x, float(np.linalg.norm(self.resid)), None

    def commit(self):
        op = self.op
        weighted = (self.resid.astype(np.float64) * self.inv_row).astype(op.dtype)
        update = op.adjoint(weighted).astype(np.float64) * self.inv_col
        x = (self.x.astype(np.float64) + self.relax * update).astype(op.dtype)
        if self.nonneg:
            np.maximum(x, 0, out=x)
        self.x = x


def art_reconstruct(
    op: ProjectionOperator,
    sinogram: np.ndarray,
    *,
    iterations: int = 10,
    relax: float = 0.5,
    x0: np.ndarray | None = None,
    nonneg: bool = True,
    callback=None,
    watchdog=None,
) -> np.ndarray:
    """Blocked ART / SIRT-flavoured row-action reconstruction.

    Each iteration performs ``x += relax * D_c A^T D_r (y - A x)`` where
    ``D_r`` and ``D_c`` are inverse row-sum and column-sum diagonal
    weights (the SART weighting, convergent for consistent data).

    Parameters
    ----------
    op : ProjectionOperator
        Forward/adjoint pair (any format).
    sinogram : array
        Measured data ``y`` of length ``shape[0]``.
    iterations : int
        Full sweeps to run.
    relax : float
        Relaxation factor in (0, 2).
    nonneg : bool
        Project onto the nonnegative orthant each iteration (attenuation
        cannot be negative).
    callback : callable, optional
        Per-iteration hook receiving one
        :class:`~repro.recon.events.IterationEvent`.
    watchdog : bool or ResidualWatchdog, optional
        Divergence guard; see :func:`repro.recon.sirt.sirt_reconstruct`.
    """
    return run(
        Art, op, sinogram, x0=x0, callback=callback, watchdog=watchdog,
        iterations=iterations, relax=relax, nonneg=nonneg,
    ).image
