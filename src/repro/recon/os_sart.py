"""OS-SART — ordered-subsets SART.

The acceleration used by clinical iterative reconstructors: partition the
views into ``num_subsets`` interleaved subsets and apply a SART update
per subset instead of per full sweep, multiplying the effective iteration
count.  Each subset update runs on the operator's own forward and adjoint
products: the residual is weighted by the subset's rows only (zero
elsewhere), so the back-projection sums the subset alone.

The sinogram may be a single vector (m,) or a stack (m, k); a stack runs
every subset update as a batched SpMM and returns an (n, k) image stack
with each slice equal to its single-sinogram run.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.errors import ValidationError
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.recon.driver import Iteration
from repro.utils.arrays import norm2, sum_squares


def view_subsets(geom: ParallelBeamGeometry, num_subsets: int) -> list[np.ndarray]:
    """Interleaved view subsets (maximally spread angles per subset)."""
    if num_subsets < 1 or num_subsets > geom.num_views:
        raise ValidationError("num_subsets must be in [1, num_views]")
    return [np.arange(s, geom.num_views, num_subsets) for s in range(num_subsets)]


class OsSart(Iteration):
    """OS-SART state: per subset, its rows, its row weights (the SART row
    weights on those rows, zero elsewhere) and its column weights
    ``1 / (A^T 1_S)``.

    One iteration is a full pass over all subsets.  A resumed run
    restores the float64 iterate and recomputes the subset weights
    deterministically from the matrix.  The watchdog judges a per-pass
    proxy residual (see :meth:`step`); callback events carry the exact
    residual of the post-pass iterate instead (:meth:`report`).
    """

    name = "os_sart"
    work_dtype = np.float64
    arrays = {"x": ("n", "k")}

    def __init__(self, op, y, x, params, geom, resumed):
        super().__init__(op, y, x, params)
        inv_r = op.sart_weights()[0]
        self.pieces = []
        for views in view_subsets(geom, params["num_subsets"]):
            rows = (views[:, None] * geom.num_bins
                    + np.arange(geom.num_bins)[None, :]).ravel()
            row_w = np.zeros_like(inv_r)
            row_w[rows] = inv_r[rows]
            indicator = np.zeros(op.shape[0], dtype=op.dtype)
            indicator[rows] = 1
            col_sums = op.adjoint(indicator).astype(np.float64)
            inv_c = np.divide(1.0, col_sums, out=np.zeros_like(col_sums),
                              where=col_sums > 1e-12)
            self.pieces.append((rows, row_w, inv_c))
        self.span_attrs = {"subsets": len(self.pieces), **self.span_attrs}

    def step(self):
        # the driving norm is a per-pass proxy: the root of the summed
        # squared per-subset residual norms, costing no extra SpMM
        x, op = self.x, self.op
        x_pass = x.copy() if self.watched else None
        y = self.y.astype(np.float64)
        resid_sq = 0.0
        for rows, row_w, inv_c in self.pieces:
            resid = y - op.forward(x.astype(op.dtype)).astype(np.float64)
            resid_sq += sum_squares(resid[rows])
            scaled = (resid * row_w[:, None]).astype(op.dtype)
            back = op.adjoint(scaled).astype(np.float64)
            x += self.relax * inv_c[:, None] * back
            if self.nonneg:
                np.maximum(x, 0, out=x)
        return x_pass, float(np.sqrt(resid_sq)), None

    def report(self, event):
        full_resid = self.y.astype(np.float64) - self.op.forward(
            self.x.astype(self.op.dtype)).astype(np.float64)
        return replace(event, residual_norm=norm2(full_resid))
