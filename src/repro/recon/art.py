"""ART (Kaczmarz) reconstruction — the classical row-action solver.

ART sweeps the sinogram rows; each row update

.. math:: x \\leftarrow x + \\lambda \\frac{y_i - a_i^T x}{\\|a_i\\|^2} a_i

needs row access, which is why "CSR-based SpMV does well in ART-type
algorithms" (Section III).  :func:`kaczmarz_sweep` is that row-by-row
sweep, kept as the exact reference.  The registered ``art`` solver
(:class:`Art`) does not sweep rows: it is SIRT (:class:`~repro.recon.sirt.Sirt`)
under ART's own schema and name — one simultaneous SART update over the
whole matrix per iteration, one forward and one adjoint product, on a
single (m,) sinogram or an (m, k) stack — so its cost is the SpMV
kernels being benchmarked.  View-subset updates are OS-SART
(:mod:`repro.recon.os_sart`).
"""

from __future__ import annotations

import numpy as np

from repro.recon.sirt import Sirt
from repro.sparse.csr import CSRMatrix


def kaczmarz_sweep(
    csr: CSRMatrix,
    x: np.ndarray,
    y: np.ndarray,
    norms_sq: np.ndarray,
    relax: float = 1.0,
) -> np.ndarray:
    """One full classical Kaczmarz sweep (row by row, in place on *x*);
    *norms_sq* holds ``||a_i||^2`` per row.

    Exact row-action reference; O(nnz) per sweep but Python-loop based —
    use for validation-scale problems and convergence tests.
    """
    row_ptr, col_idx, vals = csr.row_ptr, csr.col_idx, csr.vals
    for i in range(csr.shape[0]):
        a, b = int(row_ptr[i]), int(row_ptr[i + 1])
        if a == b or norms_sq[i] == 0.0:
            continue
        cols = col_idx[a:b]
        av = vals[a:b]
        resid = y[i] - av @ x[cols]
        x[cols] += relax * resid / norms_sq[i] * av
    return x


class Art(Sirt):
    name = "art"
