"""Unified solver registry: one schema per solver, one entry point.

Every solver runs through :func:`repro.api.reconstruct`
(``repro.reconstruct(op, y, solver="cgls", damping=0.1)``), which looks
it up here.  The registry holds one :class:`SolverSpec` per solver,
carrying

* a **parameter schema** — name, type, default, bounds — used to
  validate caller parameters *by name* (unknown or out-of-range
  parameters raise :class:`~repro.errors.ValidationError` messages that
  name the solver and its accepted parameters);
* **capabilities** — ``iterative`` (driven by
  :func:`repro.recon.driver.run`, which checkpoints and resumes every
  iterative solver), ``batch`` (accepts an (m, k) sinogram stack),
  ``relax``, ``damping``, ``needs_geom`` — so generic
  callers (the :func:`repro.api.reconstruct` facade, the CLI, the
  serving layer) can branch on declared facts instead of solver names;
* a **batch guard** — whether a *specific* parameterisation may be
  coalesced into a shared SpMM batch without changing any column's
  bits (e.g. SIRT's ``rtol`` couples columns through the stacked norm,
  so ``rtol > 0`` jobs must run solo).

Each iterative spec points at its solver's
:class:`~repro.recon.driver.Iteration` subclass, which
:func:`repro.recon.driver.run` drives.  Analytic solvers (FBP) point at
their reconstruction function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.errors import ValidationError
from repro.recon.art import Art
from repro.recon.cgls import Cgls
from repro.recon.fbp import fbp_reconstruct
from repro.recon.icd import Icd
from repro.recon.os_sart import OsSart
from repro.recon.sirt import Sirt

__all__ = [
    "Param",
    "SolverSpec",
    "SOLVERS",
    "get_solver",
    "available_solvers",
]


_REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One solver parameter: type, default and bounds.

    ``low``/``high`` bound numeric parameters; ``low_open``/``high_open``
    make the corresponding bound exclusive.  ``choices`` restricts string
    parameters.  A default of ``None`` means "optional, solver decides".
    """

    name: str
    kind: type
    default: Any = None
    low: float | None = None
    high: float | None = None
    low_open: bool = False
    high_open: bool = False
    choices: tuple[str, ...] | None = None
    doc: str = ""

    def coerce(self, value, solver: str):
        """Validate and coerce *value*; raises :class:`ValidationError`."""
        where = f"solver {solver!r}: parameter {self.name!r}"
        if self.kind is bool:
            if isinstance(value, (bool, np.bool_)):
                return bool(value)
            raise ValidationError(f"{where} must be a bool, got {value!r}")
        if self.kind is int:
            # bool is an int subclass; reject it explicitly
            if isinstance(value, bool) or not isinstance(
                value, (int, np.integer)
            ):
                raise ValidationError(f"{where} must be an int, got {value!r}")
            value = int(value)
        elif self.kind is float:
            if isinstance(value, bool) or not isinstance(
                value, (int, float, np.integer, np.floating)
            ):
                raise ValidationError(f"{where} must be a number, got {value!r}")
            value = float(value)
        elif self.kind is str:
            if not isinstance(value, str):
                raise ValidationError(f"{where} must be a string, got {value!r}")
            if self.choices and value not in self.choices:
                raise ValidationError(
                    f"{where} must be one of {sorted(self.choices)}, got {value!r}"
                )
            return value
        if self.low is not None or self.high is not None:
            lo_ok = self.low is None or (
                value > self.low if self.low_open else value >= self.low
            )
            hi_ok = self.high is None or (
                value < self.high if self.high_open else value <= self.high
            )
            if not (lo_ok and hi_ok):
                lo = "(" if self.low_open else "["
                hi = ")" if self.high_open else "]"
                lo_v = "-inf" if self.low is None else f"{self.low:g}"
                hi_v = "inf" if self.high is None else f"{self.high:g}"
                raise ValidationError(
                    f"{where} must be in {lo}{lo_v}, {hi_v}{hi}, got {value!r}"
                )
        return value


@dataclass(frozen=True)
class SolverSpec:
    """One registered solver: schema, capabilities and its definition.

    ``solver`` is the :class:`~repro.recon.driver.Iteration` subclass
    for ``iterative`` solvers, else the function
    ``solver(op, sinogram, geom, **params)`` computing the image.
    """

    name: str
    doc: str
    solver: Any
    params: tuple[Param, ...] = ()
    capabilities: frozenset = field(default_factory=frozenset)
    #: Returns a reason string when the given (validated) parameters
    #: prevent bitwise-safe batch coalescing, else None.
    batch_guard: Callable[[dict], str | None] | None = None

    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def supports(self, capability: str) -> bool:
        return capability in self.capabilities

    def defaults(self) -> dict:
        """Schema defaults (``None`` entries omitted)."""
        return {
            p.name: p.default
            for p in self.params
            if p.default is not None and p.default is not _REQUIRED
        }

    def validate_params(self, params: dict, *, apply_defaults: bool = False) -> dict:
        """Coerce *params* against the schema.

        Unknown names raise a :class:`ValidationError` naming this
        solver and every accepted parameter — the fix for solver-
        inapplicable flags being silently ignored.  With
        ``apply_defaults`` the returned dict also carries every schema
        default, so two callers passing equivalent parameterisations
        canonicalise to the same dict (the serving layer batches on it).
        """
        by_name = {p.name: p for p in self.params}
        unknown = sorted(set(params) - set(by_name))
        if unknown:
            accepted = ", ".join(self.param_names()) or "(none)"
            raise ValidationError(
                f"solver {self.name!r} does not accept parameter(s) "
                f"{', '.join(unknown)}; accepted parameters: {accepted}"
            )
        out = dict(self.defaults()) if apply_defaults else {}
        for name, value in params.items():
            out[name] = by_name[name].coerce(value, self.name)
        return out

    def coalescible(self, params: dict) -> str | None:
        """Why these parameters cannot join a shared batch (None = can).

        Solvers without the ``batch`` capability never coalesce; beyond
        that the spec's own guard may veto specific parameterisations.
        """
        if "batch" not in self.capabilities:
            return f"solver {self.name!r} does not support batched sinograms"
        if self.batch_guard is not None:
            return self.batch_guard(params)
        return None


def _sirt_batch_guard(params: dict) -> str | None:
    if params.get("rtol", 0.0):
        return ("sirt with rtol > 0 couples batch columns through the "
                "stacked residual norm")
    return None


_ITERATIONS = Param("iterations", int, 50, low=1,
                    doc="iteration budget (full sweeps)")
_NONNEG = Param("nonneg", bool, True,
                doc="project onto the nonnegative orthant each iteration")


SOLVERS: dict[str, SolverSpec] = {
    spec.name: spec
    for spec in (
        SolverSpec(
            name="sirt",
            doc="Simultaneous Iterative Reconstruction Technique",
            solver=Sirt,
            params=(
                _ITERATIONS,
                Param("relax", float, 1.0, low=0.0, high=4.0, low_open=True,
                      doc="relaxation factor (values > 2 need a watchdog "
                          "to recover)"),
                _NONNEG,
                Param("rtol", float, 0.0, low=0.0,
                      doc="stop once ||resid||/||y|| falls below this "
                          "(0 disables); Frobenius norms for a stack"),
            ),
            capabilities=frozenset({"iterative", "batch", "relax"}),
            batch_guard=_sirt_batch_guard,
        ),
        SolverSpec(
            name="cgls",
            doc="Conjugate gradients on the normal equations",
            solver=Cgls,
            params=(
                Param("iterations", int, 30, low=1,
                      doc="iteration budget"),
                Param("rtol", float, 1e-8, low=0.0,
                      doc="per-column stop on ||A^T r||/||A^T y||"),
                Param("damping", float, 0.0, low=0.0,
                      doc="Tikhonov parameter lambda >= 0: minimises "
                          "||A x - y||^2 + lambda ||x||^2"),
            ),
            capabilities=frozenset({"iterative", "batch", "damping"}),
            # per-column gamma/alpha/beta and the active-column freeze
            # keep every column bitwise equal to its solo run, rtol
            # included — no guard needed
        ),
        SolverSpec(
            name="art",
            doc="ART with the SART weighting: SIRT's simultaneous "
                "update of all rows under ART's defaults",
            solver=Art,
            params=(
                Param("iterations", int, 10, low=1, doc="full sweeps"),
                Param("relax", float, 0.5, low=0.0, high=2.0,
                      low_open=True, high_open=True,
                      doc="relaxation factor in (0, 2)"),
                _NONNEG,
            ),
            capabilities=frozenset({"iterative", "batch", "relax"}),
        ),
        SolverSpec(
            name="os-sart",
            doc="Ordered-subsets SART: one SART update per interleaved "
                "view subset, on the operator's own products",
            solver=OsSart,
            params=(
                Param("iterations", int, 5, low=1,
                      doc="full passes over all subsets"),
                Param("num_subsets", int, 8, low=1,
                      doc="interleaved view subsets per pass (1 is "
                          "plain SART)"),
                Param("relax", float, 1.0, low=0.0, high=4.0, low_open=True,
                      doc="relaxation factor"),
                _NONNEG,
            ),
            capabilities=frozenset(
                {"iterative", "batch", "relax", "needs_geom"}
            ),
        ),
        SolverSpec(
            name="icd",
            doc="Iterative coordinate descent (column action)",
            solver=Icd,
            params=(
                Param("iterations", int, 5, low=1, doc="full sweeps"),
                Param("order", str, "sequential",
                      choices=("sequential", "random"),
                      doc="column visit order per sweep; random draws "
                          "one permutation per sweep"),
                Param("seed", int, 0, low=0,
                      doc="random-order permutation seed"),
                _NONNEG,
            ),
            capabilities=frozenset({"iterative"}),
        ),
        SolverSpec(
            name="fbp",
            doc="Filtered back-projection through the matrix adjoint",
            solver=fbp_reconstruct,
            params=(
                Param("window", str, "ramlak",
                      choices=("ramlak", "hann"),
                      doc="ramp-filter apodisation window"),
                _NONNEG,
            ),
            capabilities=frozenset({"needs_geom"}),
        ),
    )
}


def available_solvers() -> list[str]:
    """Registered solver names, sorted."""
    return sorted(SOLVERS)


def get_solver(name) -> SolverSpec:
    """Look up a solver by name (``_``/``-`` are interchangeable)."""
    if not isinstance(name, str):
        raise ValidationError(
            f"solver must be a string, got {type(name).__name__}"
        )
    key = name.strip().lower().replace("_", "-")
    try:
        return SOLVERS[key]
    except KeyError:
        raise ValidationError(
            f"unknown solver {name!r}; options: {available_solvers()}"
        ) from None
