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

from repro.recon.driver import Iteration, run
from repro.recon.events import NORMAL_RESIDUAL
from repro.recon.linops import ProjectionOperator


class Cgls(Iteration):
    """CGLS state: the per-column CG recurrence, updated in place."""

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
        return self.x, float(np.linalg.norm(self.r)), rnorm

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


def cgls_reconstruct(
    op: ProjectionOperator,
    sinogram: np.ndarray,
    *,
    iterations: int = 30,
    x0: np.ndarray | None = None,
    rtol: float = 1e-8,
    damping: float = 0.0,
    callback=None,
    watchdog=None,
    resume_from=None,
) -> np.ndarray:
    """Run CGLS; returns the iterate with all math in float64 accumulators.

    Parameters
    ----------
    rtol : float
        Stop when ``||A^T r|| / ||A^T y||`` drops below this (checked per
        column for a sinogram stack).
    damping : float
        Tikhonov parameter ``lambda >= 0``: solves
        ``min ||A x - y||^2 + lambda ||x||^2`` (regularised CGLS, the
        standard stabiliser for noisy/limited-angle data).
    callback : callable, optional
        Per-iteration hook receiving one
        :class:`~repro.recon.events.IterationEvent` whose ``meaning`` is
        ``"normal_residual"`` (CGLS drives on ``||A^T r||``; the event
        carries the plain ``||r||`` too).
    watchdog : bool or ResidualWatchdog, optional
        Divergence guard.  CGLS has no relaxation to back off; a restart
        instead re-initialises the whole CG recurrence (``r``, ``s``,
        ``p``, ``gamma``) from the best iterate seen — the standard cure
        for a recurrence drifting from the true residual.
    resume_from : CheckpointState, optional
        Continue an interrupted run from a
        :class:`~repro.recon.checkpoint.CheckpointState`: the complete
        CG recurrence (``x``, ``r``, ``s``, ``p``, ``gamma``,
        ``gamma0``, ``active``) is restored verbatim — *not* re-derived
        from the iterate, which would change the bits — and the loop
        starts at ``k + 1``, matching the uninterrupted run exactly.
        Incompatible with ``x0`` and ``watchdog``.
    """
    return run(
        Cgls, op, sinogram, x0=x0, callback=callback, watchdog=watchdog,
        resume_from=resume_from, iterations=iterations, rtol=rtol,
        damping=damping,
    ).image
