"""ICD — Iterative Coordinate Descent reconstruction.

The MBIR-family solver ([10], [12] in the paper) that updates one pixel at
a time: with residual ``r = y - A x``,

.. math:: \\Delta_j = \\frac{a_j^T r}{\\|a_j\\|^2},\\quad
          x_j \\leftarrow x_j + \\Delta_j,\\quad r \\leftarrow r - \\Delta_j a_j.

Every update reads and writes one matrix **column** — the access pattern
that makes CSC-style storage (and hence CSCV) "have a wider application
range than CSR" (Section III): CSR cannot serve ICD without a transposed
copy.

One driver iteration is one sweep over all pixels, in sequential or
seeded random order, optionally clamped at the nonnegativity constraint.
"""

from __future__ import annotations

import numpy as np

from repro.recon.driver import Iteration, run
from repro.recon.linops import ProjectionOperator
from repro.sparse.csc import CSCMatrix


class Icd(Iteration):
    """ICD state: the matrix in CSC (the operator's own format, else its
    memoised copy), the column norms and the float64 residual ``r``, checkpointed
    because thousands of rank-1 updates are not bitwise ``y - A x``."""

    name = "icd"
    work_dtype = np.float64
    arrays = {"x": ("n",), "r": ("m",)}

    def __init__(self, op, y, x, params, geom, resumed):
        super().__init__(op, y, x, params)
        self.csc = csc = op.to_csc()
        n = op.shape[1]
        self.norms = np.zeros(n)
        np.add.at(self.norms, np.repeat(np.arange(n), np.diff(csc.col_ptr)),
                  csc.vals.astype(np.float64) ** 2)
        self.r = self._residual(x) if resumed is None else np.array(
            resumed["r"], dtype=np.float64, copy=True)
        self.rng = (np.random.default_rng(params["seed"])
                    if params["order"] == "random" else None)

    def _residual(self, x):
        # float64 keeps thousands of rank-1 updates stable
        return (self.y.astype(np.float64)
                - self.csc.spmv(x.astype(self.csc.dtype)).astype(np.float64))

    def step(self):
        n = self.op.shape[1]
        if self.rng is None:
            cols = range(n)
        else:
            # a resumed run first redraws the permutations of the sweeps
            # its checkpoint completed, so it visits the columns in the
            # order the uninterrupted run would
            for _ in range(self.start):
                self.rng.permutation(n)
            self.start = 0
            cols = self.rng.permutation(n)
        for j in cols:
            icd_single_update(self.csc, self.x, self.r, j, self.norms,
                              nonneg=self.nonneg)
        return self.x, float(np.linalg.norm(self.r)), None

    def restart(self, x, relax):
        self.x = x
        self.r = self._residual(x)


def icd_single_update(
    csc: CSCMatrix, x: np.ndarray, r: np.ndarray, j: int, norms: np.ndarray,
    *, nonneg: bool = False,
) -> float:
    """One exact coordinate update of pixel *j*, in place on *x* and the
    residual *r*; with *nonneg* the step is clamped so ``x[j] >= 0``.
    Returns the step taken."""
    a, b = int(csc.col_ptr[j]), int(csc.col_ptr[j + 1])
    if a == b or norms[j] == 0.0:
        return 0.0
    rows = csc.row_idx[a:b]
    av = csc.vals[a:b].astype(np.float64)
    delta = (av @ r[rows]) / norms[j]
    if nonneg and x[j] + delta < 0.0:
        delta = -x[j]  # clamp at the constraint
    if delta != 0.0:
        x[j] += delta
        r[rows] -= delta * av
    return float(delta)


def icd_reconstruct(
    op: ProjectionOperator,
    sinogram: np.ndarray,
    *,
    iterations: int = 5,
    x0: np.ndarray | None = None,
    nonneg: bool = True,
    order: str = "sequential",
    seed: int = 0,
    callback=None,
    watchdog=None,
    resume_from=None,
) -> np.ndarray:
    """Run *iterations* ICD sweeps over all pixels.

    Parameters
    ----------
    op : ProjectionOperator
        Forward/adjoint pair over any format; ICD reads the matrix by
        column, from the format itself when it is a
        :class:`~repro.sparse.csc.CSCMatrix`, else from a CSC copy made
        once per operator (:meth:`ProjectionOperator.to_csc`).
    order : str
        ``"sequential"`` or ``"random"`` column visit order per sweep;
        random order draws one permutation per sweep from a generator
        seeded with *seed*.
    callback : callable, optional
        Per-sweep hook receiving one
        :class:`~repro.recon.events.IterationEvent`.
    watchdog : bool or ResidualWatchdog, optional
        Divergence guard; a restart recomputes the residual from the
        best iterate.
    resume_from : CheckpointState, optional
        Continue an interrupted run bitwise from its ``x`` and ``r``
        (random order included).  Incompatible with ``x0`` and
        ``watchdog``.
    """
    return run(
        Icd, op, sinogram, x0=x0, callback=callback, watchdog=watchdog,
        resume_from=resume_from, iterations=iterations, nonneg=nonneg,
        order=order, seed=seed,
    ).image
