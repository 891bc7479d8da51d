"""ART (Kaczmarz) reconstruction — the classical row-action solver.

ART sweeps the sinogram rows; each row update

.. math:: x \\leftarrow x + \\lambda \\frac{y_i - a_i^T x}{\\|a_i\\|^2} a_i

needs row access, which is why "CSR-based SpMV does well in ART-type
algorithms" (Section III).  :func:`kaczmarz_sweep` is that row-by-row
sweep, kept as the exact reference.  The registered ``art`` solver
(:class:`Art`) does not sweep rows: each iteration is one simultaneous
SART update over the whole matrix, one forward and one adjoint product
on a single (m,) sinogram, so its cost is the SpMV kernels being
benchmarked.  View-subset updates are OS-SART (:mod:`repro.recon.os_sart`).
"""

from __future__ import annotations

import numpy as np

from repro.recon.driver import Iteration
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
    """ART state: the SART weights over a single (m,) sinogram.

    Each iteration performs ``x += relax * D_c A^T D_r (y - A x)``, where
    ``D_r`` and ``D_c`` are the inverse row-sum and column-sum diagonal
    weights (the SART weighting, convergent for consistent data).
    """

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
