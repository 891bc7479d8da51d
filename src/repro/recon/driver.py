"""The iteration driver: one loop behind SIRT, CGLS, OS-SART, ART and ICD.

Every iterative solver here runs the same loop — one iteration of its
arithmetic per step, a sweep over the pixels for ICD — inside the same
scaffolding: sinogram coercion and guard, schema validation of the
parameters, ``x0``/``resume_from`` validation, the divergence watchdog,
the ``<solver>.iter`` span, the ``<solver>.residual``/``.iterations``
metrics and the :class:`~repro.obs.perf.ConvergenceMeter`, typed
:class:`~repro.recon.events.IterationEvent` s with a lazy
``state_provider``, the callback, the ``rtol`` stop and the stop reason.
:func:`run` owns all of it; a solver supplies one :class:`Iteration`
subclass holding only what is its own.

The step contract
-----------------
``Solver(op, y, x, params, geom, resumed)`` builds the initial state
(weights, recurrences) from the coerced sinogram ``y`` — (m, k) for
solvers with the ``batch`` capability, (m,) otherwise — the starting
iterate ``x`` (zeros, ``x0`` or the checkpointed ``x``; a private array
in :attr:`Iteration.work_dtype`), the schema-validated ``params``, the
geometry and, when resuming, the checkpoint's arrays (``resumed``,
else None).  Each iteration the driver then calls

1. :meth:`Iteration.converged` — stop before stepping;
2. :meth:`Iteration.step` — the iteration's arithmetic up to the point
   the watchdog judges, returning the iterate the norms were measured
   against and the norms (or None: breakdown, stop);
3. :meth:`Iteration.restart` with a copy of the best iterate when the
   watchdog declares divergence (the step is discarded), else
   :meth:`Iteration.commit` to finish the update;
4. :meth:`Iteration.report` for the event the callback receives.

:attr:`Iteration.arrays` names the checkpointed state arrays with their
shapes over ``m``, ``n`` and the batch width ``k``; restoring exactly
those arrays resumes a run bitwise.  :attr:`Iteration.start` holds the
iterations a resumed run continues past.  :attr:`Iteration.name` is the
solver string of events, checkpoints, spans and metrics.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import ValidationError
from repro.obs import metrics as obs_metrics
from repro.obs import perf as obs_perf
from repro.obs.trace import span
from repro.recon.events import RESIDUAL, IterationEvent
from repro.resilience.guards import check as guard_check
from repro.resilience.watchdog import resolve_watchdog
from repro.utils.arrays import as_column_batch, check_1d, ensure_dtype, norm2


class Run(NamedTuple):
    """Result of :func:`run`."""

    image: np.ndarray
    #: completed iterations, a resumed run's pre-checkpoint ones included
    iterations: int
    #: ``"max_iterations"``, ``"converged"`` or ``"restarted"``
    stop_reason: str


class Iteration:
    """One solver run: its state and its step (see the module docstring)."""

    name = ""
    #: checkpointed state arrays -> shape over ``"m"``, ``"n"``, ``"k"``
    arrays: dict = {}
    #: dtype of the iterate; None keeps the operator's
    work_dtype = None
    #: which norm of :meth:`step` drives the solver
    meaning = RESIDUAL
    #: set by :func:`run` when a watchdog judges every step
    watched = False
    #: set by :func:`run`: iterations completed before the first step
    #: (a resumed run's checkpoint ``k + 1``)
    start = 0

    def __init__(self, op, y, x, params):
        self.op, self.y, self.x = op, y, x
        self.relax, self.nonneg = params.get("relax"), params.get("nonneg")
        self.rtol = params.get("rtol", 0.0)
        self.y_norm = norm2(y) or 1.0
        self.span_attrs = {"batch": y.shape[1]} if y.ndim == 2 else {}

    def converged(self, last: float | None) -> bool:
        """Whether to stop before the next step: by default once *last*,
        the driving norm of the last completed iteration, falls below
        ``rtol * ||y||`` (``rtol`` 0 disables)."""
        return self.rtol > 0 and last is not None and last / self.y_norm < self.rtol

    def step(self):
        """Compute one iteration; return ``(x, residual_norm,
        normal_residual_norm)`` or None to stop."""
        raise NotImplementedError

    def commit(self) -> None:
        """Finish a step the watchdog accepted."""

    def restart(self, x: np.ndarray, relax: float | None) -> None:
        """Continue from *x*, a copy of the best iterate, with *relax*."""
        self.x, self.relax = x, relax

    def report(self, event: IterationEvent) -> IterationEvent:
        """The event the callback receives (its iterate is attached after)."""
        return event

    def output(self) -> np.ndarray:
        """The iterate in the operator's dtype."""
        if self.work_dtype is None:
            return self.x
        return self.x.astype(self.op.dtype)

    def state(self) -> dict:
        """Copies of the checkpointed arrays, read when called."""
        return {name: getattr(self, name).copy() for name in self.arrays}


def run(solver: type[Iteration], op, sinogram, *, geom=None, x0=None,
        callback=None, watchdog=None, resume_from=None, **params) -> Run:
    """Run *solver* on ``y = sinogram`` through *op*.

    *params* are validated against the solver's registry schema with
    defaults applied.  *callback* receives one
    :class:`~repro.recon.events.IterationEvent` per completed iteration.
    *watchdog* (bool or ResidualWatchdog) restarts a diverging run from
    its best iterate.  *resume_from* continues a
    :class:`~repro.recon.checkpoint.CheckpointState` of the same solver
    and parameterisation bitwise; it excludes *x0* and *watchdog*.
    """
    from repro.recon.checkpoint import solver_params_hash
    from repro.recon.registry import get_solver

    spec = get_solver(solver.name)
    params = spec.validate_params(params, apply_defaults=True)
    m, n = op.shape
    if spec.supports("batch"):
        y, was_1d = as_column_batch(sinogram, m, "sinogram", op.dtype)
    else:
        y = ensure_dtype(check_1d(sinogram, m, "sinogram"), op.dtype, "sinogram")
        was_1d = False
    guard_check(y, "sinogram", where=solver.name)
    wd = resolve_watchdog(watchdog, solver=solver.name, relax=params.get("relax"))
    dtype = solver.work_dtype or op.dtype
    start, resumed = 0, None
    if resume_from is not None:
        if x0 is not None:
            raise ValidationError(
                "x0 cannot be combined with resume_from (the checkpoint "
                "is the starting iterate)"
            )
        if wd is not None:
            raise ValidationError(
                "watchdog cannot be combined with resume_from (restart "
                "interventions make the run non-resumable bitwise)"
            )
        resumed = resume_from.require(solver.name, solver.arrays)
        expected = solver_params_hash(spec.name, params)
        if resume_from.params_hash and resume_from.params_hash != expected:
            raise ValidationError(
                f"resume_from was checkpointed under a different "
                f"{spec.name!r} parameterisation (params hash "
                f"{resume_from.params_hash} != {expected}); "
                "resuming would not continue the same run"
            )
        dims = {"m": m, "n": n, "k": y.shape[1] if y.ndim == 2 else None}
        for name, axes in solver.arrays.items():
            want, got = tuple(dims[a] for a in axes), np.shape(resumed[name])
            if got != want:
                raise ValidationError(
                    f"{solver.name} checkpoint {name} has shape {got}; "
                    f"this problem needs {want}"
                )
        x = np.array(resumed["x"], dtype=dtype, copy=True)
        start = resume_from.k + 1
    elif x0 is None:
        x = np.zeros((n,) + y.shape[1:], dtype=dtype)
    else:
        x = ensure_dtype(x0, dtype, "x0")
        want = (n,) + np.shape(sinogram)[1:]
        if x.shape != want:
            raise ValidationError(
                f"x0 must match the sinogram batch shape {want}, got {x.shape}"
            )
        x = x.reshape((n,) + y.shape[1:]).copy()

    it = solver(op, y, x, params, geom, resumed)
    it.watched, it.start = wd is not None, start
    x_init = x.copy() if wd is not None else None
    name = solver.name
    iter_span = f"{name}.iter"
    residual_gauge = obs_metrics.gauge(
        f"{name}.residual", f"last {name} driving residual norm"
    )
    iter_counter = obs_metrics.counter(f"{name}.iterations", f"{name} iterations run")
    meter = obs_perf.ConvergenceMeter(name, y_norm=it.y_norm, rtol=it.rtol)

    def shaped(a: np.ndarray) -> np.ndarray:
        return a[:, 0] if was_1d else a

    done, last, stop = start, None, None
    for k in range(start, params["iterations"]):
        if it.converged(last):
            stop = "converged"
            break
        it_t0 = obs_perf.clock() if obs_perf.active else 0.0
        with span(iter_span, k=k, **it.span_attrs) as it_span:
            measured = it.step()
            if measured is None:
                stop = "converged"
                break
            x_seen, rnorm, normal_rnorm = measured
            event = IterationEvent(
                k=k, x=x_seen, residual_norm=rnorm,
                normal_residual_norm=normal_rnorm, meaning=it.meaning,
                solver=name, state_provider=it.state,
            )
            if wd is not None and wd.observe_event(event) == "restart":
                # discard this step: continue from the best iterate with
                # the relaxation the watchdog just backed off
                best = wd.best_x if wd.best_x is not None else x_init
                it.restart(np.array(best, dtype=x_init.dtype, copy=True), wd.relax)
                it_span.set(residual=event.norm, restart=True)
                continue
            it.commit()
            it_span.set(residual=event.norm)
        residual_gauge.set(event.norm)
        iter_counter.inc()
        meter.observe_event(
            event,
            seconds=obs_perf.clock() - it_t0 if obs_perf.active else None,
        )
        done += 1
        last = event.norm
        if callback is not None:
            callback(it.report(event).with_x(shaped(it.output())))
    if stop is None:
        stop = "max_iterations" if done >= params["iterations"] else "restarted"
    return Run(shaped(it.output()), done, stop)
