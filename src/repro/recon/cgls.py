"""CGLS — conjugate gradients on the normal equations.

Solves ``min_x ||A x - y||_2`` without ever forming ``A^T A``; each
iteration costs one forward and one adjoint SpMV.  The fastest-converging
of the classical iterative methods for consistent CT data and a good
stress of numerical robustness (breakdown guards, early exit).

The sinogram may be a single vector (m,) or a stack (m, k); a stack is
solved with batched SpMM products and *per-column* step sizes — every
scalar of the classical recurrence (``gamma``, ``alpha``, ``beta``)
becomes a k-vector, and converged or broken-down columns freeze while the
rest keep iterating, so each slice matches its own single-vector run.
"""

from __future__ import annotations

import numpy as np

from repro.recon.driver import Iteration
from repro.recon.events import NORMAL_RESIDUAL
from repro.utils.arrays import norm2


class Cgls(Iteration):
    """CGLS state: the per-column CG recurrence, updated in place.

    All arithmetic runs in float64 accumulators.  The driving norm is
    ``||A^T r||`` (events carry ``meaning="normal_residual"`` and the
    plain ``||r||`` too).  A checkpoint holds the whole recurrence
    (``x``, ``r``, ``s``, ``p``, ``gamma``, ``gamma0``, ``active``) and a
    resumed run restores it verbatim.  CGLS has no relaxation to back
    off: a watchdog restart re-initialises the recurrence from the best
    iterate, the standard cure for a recurrence drifting from the true
    residual.
    """

    name = "cgls"
    meaning = NORMAL_RESIDUAL
    work_dtype = np.float64
    arrays = {
        "x": ("n", "k"), "r": ("m", "k"), "s": ("n", "k"), "p": ("n", "k"),
        "gamma": ("k",), "gamma0": ("k",), "active": ("k",),
    }

    def __init__(self, op, y, x, params, geom, resumed):
        super().__init__(op, y, x, params)
        self.damping = params["damping"]
        if resumed is None:
            self.r, self.s, self.p, self.gamma = self._recurrence(x)
            self.gamma0 = np.where(self.gamma > 0, self.gamma, 1.0)
            self.active = np.ones(y.shape[1], dtype=bool)
        else:
            # restore the recurrence verbatim: re-deriving it from x alone
            # would change the conjugate directions and with them the bits
            # of every later iterate
            for name in ("r", "s", "p", "gamma", "gamma0"):
                setattr(self, name,
                        np.array(resumed[name], dtype=np.float64, copy=True))
            self.active = np.array(resumed["active"], dtype=bool, copy=True)
        self.y_norm = float(np.sqrt(self.gamma0.sum())) or 1.0

    def _recurrence(self, x):
        op = self.op
        r = (self.y - op.forward(x.astype(op.dtype))).astype(np.float64)
        s = op.adjoint(r.astype(op.dtype)).astype(np.float64) - self.damping * x
        return r, s, s.copy(), np.einsum("ij,ij->j", s, s)

    def converged(self, last):
        self.active &= self.gamma > self.rtol * self.rtol * self.gamma0
        return not self.active.any()

    def step(self):
        op, p, active = self.op, self.p, self.active
        q = op.forward(p.astype(op.dtype)).astype(np.float64)
        qq = np.einsum("ij,ij->j", q, q) + self.damping * np.einsum("ij,ij->j", p, p)
        active &= qq > 0.0  # p column in the null space: freeze it
        if not active.any():
            return None
        alpha = np.zeros(active.size)
        np.divide(self.gamma, qq, out=alpha, where=active)
        self.x += alpha[None, :] * p
        self.r -= alpha[None, :] * q
        back = op.adjoint(self.r.astype(op.dtype)).astype(np.float64)
        self.s = back - self.damping * self.x
        self.gamma_new = np.einsum("ij,ij->j", self.s, self.s)
        rnorm = float(np.sqrt(self.gamma_new[active].sum()))
        return self.x, norm2(self.r), rnorm

    def commit(self):
        # advancing here, before the callback, means a checkpoint taken
        # at callback time holds the top-of-next-iteration recurrence
        beta = np.zeros(self.active.size)
        np.divide(self.gamma_new, self.gamma, out=beta,
                  where=self.active & (self.gamma > 0))
        self.p = self.s + beta[None, :] * self.p
        self.gamma = self.gamma_new

    def restart(self, x, relax):
        # no relaxation to back off: re-initialise the whole recurrence
        self.x = x
        self.r, self.s, self.p, self.gamma = self._recurrence(x)
        self.active = np.ones(self.active.size, dtype=bool)
