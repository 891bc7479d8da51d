"""Iterative CT imaging reconstruction — the paper's application.

The paper motivates CSCV with iterative reconstruction (MBIR-family),
where ``y = A x`` (forward projection) and ``x = A^T y`` (back-projection)
run at high frequency with a fixed matrix.  This package provides:

* :class:`~repro.recon.linops.ProjectionOperator` — wraps any
  :class:`~repro.sparse.SpMVFormat` as forward/adjoint operator;
* ART/Kaczmarz (:mod:`repro.recon.art`), SIRT (:mod:`repro.recon.sirt`),
  CGLS (:mod:`repro.recon.cgls`), OS-SART (:mod:`repro.recon.os_sart`) —
  simultaneous and gradient solvers that run on the operator's forward
  and adjoint products (Kaczmarz's row sweep kept as a reference) — and
  ICD, Iterative Coordinate Descent (:mod:`repro.recon.icd`), the
  column-action solver whose access pattern is *why* CSC-style formats
  (and hence CSCV) matter (Section III); all five run on one iteration
  driver (:mod:`repro.recon.driver`) behind one registry
  (:mod:`repro.recon.registry`), reached through
  :func:`repro.reconstruct`;
* FBP (:mod:`repro.recon.fbp`) as the analytic reference;
* image metrics (:mod:`repro.recon.metrics`).
"""

from repro.recon.art import kaczmarz_sweep
from repro.recon.checkpoint import (
    CheckpointState,
    CheckpointWriter,
    column_state,
    load_checkpoint,
    save_checkpoint,
    solver_params_hash,
)
from repro.recon.events import IterationEvent
from repro.recon.fbp import fbp_reconstruct
from repro.recon.linops import ProjectionOperator
from repro.recon.metrics import psnr, rmse, relative_error
from repro.recon.registry import (
    SOLVERS,
    Param,
    SolverSpec,
    available_solvers,
    get_solver,
)

__all__ = [
    "ProjectionOperator",
    "IterationEvent",
    "CheckpointState",
    "CheckpointWriter",
    "column_state",
    "load_checkpoint",
    "save_checkpoint",
    "solver_params_hash",
    "SOLVERS",
    "Param",
    "SolverSpec",
    "available_solvers",
    "get_solver",
    "kaczmarz_sweep",
    "fbp_reconstruct",
    "rmse",
    "psnr",
    "relative_error",
]
