"""Typed per-iteration events: one callback contract for every solver.

A bare residual float means different things per solver: SIRT/ART/
OS-SART drive on the data-space residual ``||y - A x||`` while CGLS
drives its recurrence with the normal-equation residual ``||A^T r||``.
Consumers (the watchdog, progress streaming in :mod:`repro.serve`, the
:class:`~repro.obs.perf.ConvergenceMeter`) should not need to know which
solver they are attached to in order to interpret the number.

:class:`IterationEvent` makes the meaning explicit.  Solvers emit one
event per iteration carrying *both* norms when both are cheap (CGLS
maintains ``r`` anyway) and a ``meaning`` tag naming the driving norm;
:attr:`IterationEvent.norm` returns that driving norm so generic
consumers never branch on the solver name.  Every solver ``callback=``
is called with exactly one event per completed iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = ["IterationEvent"]

#: ``meaning`` value for solvers driven by the data-space residual norm.
RESIDUAL = "residual"
#: ``meaning`` value for solvers driven by the normal-equation residual.
NORMAL_RESIDUAL = "normal_residual"


@dataclass(frozen=True)
class IterationEvent:
    """One solver iteration, with explicitly-labelled residual norms.

    Attributes
    ----------
    k : int
        Zero-based iteration index.
    x : numpy.ndarray
        The iterate the norms were measured against (the solver's output
        shape: 1-D for a single sinogram, (n, k) for a batch).
    residual_norm : float or None
        ``||y - A x||`` (Frobenius norm for a batch), when the solver
        computed it this iteration.
    normal_residual_norm : float or None
        ``||A^T (y - A x)||``, when available (CGLS always has it).
    meaning : str
        Which of the two norms drives the solver's own convergence
        checks: ``"residual"`` or ``"normal_residual"``.
    solver : str
        Registry name of the emitting solver (``"sirt"``, ``"cgls"``, ...).
    state_provider : callable or None
        Zero-argument callable returning a dict of the solver's *complete*
        internal state arrays (named copies), from which a
        :class:`~repro.recon.checkpoint.CheckpointState` can be built that
        resumes the run bitwise-identically.  Lazy on purpose — capturing
        state copies every array, so consumers that don't checkpoint pay
        nothing.  Contract: call it *during* the callback, synchronously;
        it reads the solver's live locals and a deferred call would see a
        later iteration's state.
    """

    k: int
    x: np.ndarray
    residual_norm: float | None
    normal_residual_norm: float | None
    meaning: str = RESIDUAL
    solver: str = ""
    state_provider: Callable[[], dict] | None = None

    @property
    def norm(self) -> float:
        """The driving norm, the one ``meaning`` names."""
        if self.meaning == NORMAL_RESIDUAL:
            return float(self.normal_residual_norm)
        return float(self.residual_norm)

    def with_x(self, x: np.ndarray) -> "IterationEvent":
        """Copy of this event against a different iterate (same norms)."""
        return replace(self, x=x)

    def stripped(self) -> "IterationEvent":
        """Copy with the heavy payloads removed (``x`` and
        ``state_provider``) — the form history keeps so results stay light
        and no solver locals are pinned alive."""
        return replace(self, x=None, state_provider=None)

