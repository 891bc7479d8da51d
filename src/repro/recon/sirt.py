"""SIRT — Simultaneous Iterative Reconstruction Technique.

The fully simultaneous relative of ART: every iteration is exactly one
forward SpMV plus one back-projection SpMV over the whole system,

.. math:: x^{k+1} = x^k + \\lambda\\, C A^T R (y - A x^k),

with ``R = diag(1/row\\_sum)`` and ``C = diag(1/col\\_sum)``.  SIRT is the
workload whose inner loop the paper's benchmarks time directly (same
matrix, high-frequency SpMV), making it the natural end-to-end demo for
CSCV formats.

The sinogram may be a single vector (m,) or a stack (m, k) of sinograms
sharing the system matrix (multi-slice CT); a stack runs through the
batched SpMM path — one matrix stream serves all slices — and returns an
(n, k) image stack.  The iteration is column-separable, so each slice of
the batched result equals the corresponding single-sinogram run.
"""

from __future__ import annotations

import numpy as np

from repro.recon.driver import Iteration
from repro.utils.arrays import norm2


def sart_weights(forward, adjoint, shape, dtype) -> tuple[np.ndarray, np.ndarray]:
    """``(1 / row sums, 1 / column sums)`` in float64 of the matrix behind
    *forward*/*adjoint*, zero where a sum vanishes — the SART weighting."""
    m, n = shape
    row_sums = np.asarray(forward(np.ones(n, dtype=dtype)), dtype=np.float64)
    col_sums = np.asarray(adjoint(np.ones(m, dtype=dtype)), dtype=np.float64)
    return tuple(
        np.divide(1.0, s, out=np.zeros_like(s), where=s > 1e-12)
        for s in (row_sums, col_sums)
    )


class Sirt(Iteration):
    """SIRT state: the SART weights; each update rebinds ``x``."""

    name = "sirt"
    arrays = {"x": ("n", "k")}

    def __init__(self, op, y, x, params, geom, resumed):
        super().__init__(op, y, x, params)
        self.inv_r, self.inv_c = op.sart_weights()

    def step(self):
        self.resid = (self.y - self.op.forward(self.x)).astype(np.float64)
        return self.x, norm2(self.resid), None

    def commit(self):
        op = self.op
        weighted = (self.resid * self.inv_r[:, None]).astype(op.dtype)
        back = op.adjoint(weighted).astype(np.float64)
        x = self.x.astype(np.float64) + self.relax * self.inv_c[:, None] * back
        x = x.astype(op.dtype)
        if self.nonneg:
            np.maximum(x, 0, out=x)
        self.x = x
