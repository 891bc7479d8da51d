"""Solver checkpoint/resume: crash-safe iterative reconstruction.

A long SIRT/CGLS/OS-SART/ICD run that dies at iteration 40 of 50 should not
restart from zero.  This module defines the resumable unit of solver
state and the machinery around it:

* :class:`CheckpointState` — the *complete* internal state of a solver
  after iteration ``k``: the exact recurrence arrays (not just the
  iterate), the solver name, a hash of the validated parameters, and the
  residual history so far.  Resuming from it continues the run
  **bitwise-identically** to one that was never interrupted — the solvers
  restore the arrays verbatim and start the loop at ``k + 1``, executing
  the exact floating-point operations the uninterrupted run would have.
* :func:`save_checkpoint` / :func:`load_checkpoint` — atomic *and
  durable* persistence (single ``.npz`` blob staged through
  :func:`~repro.utils.durable.write_bytes_durable`), with the
  ``ckpt.store`` fault-injection site for chaos testing.  Corrupt or
  truncated files load as :class:`~repro.errors.FormatError`, never as
  silently-wrong state.
* :class:`CheckpointWriter` — an :class:`~repro.recon.events
  .IterationEvent` consumer that persists a checkpoint every
  ``REPRO_CKPT_EVERY`` iterations via the event's lazy
  ``state_provider``, plus a ``store()`` method for forced checkpoints
  (graceful drain).  Store failures degrade: counted, never fatal to the
  solve.
* :func:`column_state` — slices one column out of a *batched* checkpoint
  so a job that ran coalesced in a shared SpMM batch can be recovered
  solo.  Valid because every batch-capable solver here keeps each column
  bitwise equal to its solo run.

What the state arrays are per solver (the batch solvers' shapes are
their internal 2-D batch forms; ``k_cols`` is the batch width):

=========  =============================================================
solver     arrays
=========  =============================================================
sirt, art  ``x`` (n, k_cols) in the operator dtype
cgls       ``x, r, s, p`` (2-D float64), ``gamma, gamma0`` (k_cols,)
           float64, ``active`` (k_cols,) bool — the full CG recurrence,
           from which the resumed run re-derives every later step
os-sart    ``x`` (n, k_cols) float64
icd        ``x`` (n,) and ``r`` (m,) float64 — the residual after
           thousands of rank-1 updates, which ``y - A x`` does not
           reproduce bitwise (no batch: a single sinogram)
=========  =============================================================
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import FormatError, ValidationError
from repro.utils.durable import write_bytes_durable

__all__ = [
    "CheckpointState",
    "CheckpointWriter",
    "solver_params_hash",
    "save_checkpoint",
    "load_checkpoint",
    "column_state",
]

#: On-disk container version (bump on incompatible layout changes).
_VERSION = 1

#: npz entry prefix for state arrays (keeps meta/array namespaces apart).
_ARR = "arr_"


@dataclass(frozen=True)
class CheckpointState:
    """Resumable solver state captured after completing iteration ``k``.

    Attributes
    ----------
    solver : str
        Registry name of the solver that produced the state.
    k : int
        Zero-based index of the last *completed* iteration; resuming
        starts the loop at ``k + 1``.
    params_hash : str
        :func:`solver_params_hash` of the validated parameterisation the
        run used.  Resume refuses a mismatch — continuing a run under
        different parameters would be silently wrong, not resumed.
    arrays : mapping of str to numpy.ndarray
        The solver's internal recurrence arrays (see the module table).
    residuals : tuple of float
        Driving residual norm of every completed iteration up to and
        including ``k`` (progress-history continuity for consumers).
    """

    solver: str
    k: int
    params_hash: str
    arrays: Mapping[str, np.ndarray]
    residuals: tuple = field(default_factory=tuple)

    def require(self, solver: str, keys: frozenset | set) -> dict:
        """Validate this state belongs to *solver* and carries *keys*.

        Returns the arrays dict.  Raises :class:`ValidationError` on a
        solver mismatch or missing arrays — the errors a caller gets for
        feeding a CGLS checkpoint to SIRT.
        """
        if self.solver != solver:
            raise ValidationError(
                f"resume_from is a {self.solver!r} checkpoint; this run "
                f"is {solver!r}"
            )
        missing = sorted(set(keys) - set(self.arrays))
        if missing:
            raise ValidationError(
                f"{solver!r} checkpoint is missing state array(s): "
                f"{', '.join(missing)}"
            )
        if self.k < 0:
            raise ValidationError("checkpoint k must be >= 0")
        return dict(self.arrays)


def solver_params_hash(solver: str, params: Mapping) -> str:
    """Content hash of a validated solver parameterisation.

    Canonical JSON (sorted keys) over the solver name and its
    schema-validated parameters — two equivalent parameterisations hash
    equal, anything differing (even a default made explicit *after*
    validation applied defaults) does not.
    """
    doc = json.dumps(
        {"solver": solver, "params": dict(params)},
        sort_keys=True, separators=(",", ":"), default=str,
    )
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:32]


def save_checkpoint(state: CheckpointState, path) -> None:
    """Persist *state* to *path* atomically and durably.

    One ``.npz`` blob holding the state arrays plus a JSON meta entry,
    staged next to *path* and renamed in with full fsync discipline — a
    crash leaves either the previous checkpoint or the new one, never a
    torn file.  Fires the ``ckpt.store`` fault site first (chaos tests
    make this raise ``OSError``; callers that can degrade catch it).
    """
    from repro.resilience.faults import fire

    fire("ckpt.store")
    meta = {
        "version": _VERSION,
        "solver": state.solver,
        "k": int(state.k),
        "params_hash": state.params_hash,
        "residuals": [float(v) for v in state.residuals],
    }
    buf = io.BytesIO()
    np.savez(
        buf,
        __meta__=np.frombuffer(
            json.dumps(meta, separators=(",", ":")).encode("utf-8"),
            dtype=np.uint8,
        ),
        **{_ARR + name: np.asarray(a) for name, a in state.arrays.items()},
    )
    write_bytes_durable(path, buf.getvalue())


def load_checkpoint(path) -> CheckpointState:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Raises
    ------
    FormatError
        On a truncated, corrupt or wrong-version file.  (A *missing*
        file raises ``OSError`` — absence and corruption are different
        recovery decisions.)
    """
    try:
        with np.load(path) as z:
            meta = json.loads(bytes(z["__meta__"]))
            arrays = {
                name[len(_ARR):]: np.ascontiguousarray(z[name])
                for name in z.files
                if name.startswith(_ARR)
            }
    except FileNotFoundError:
        raise
    except (OSError, ValueError, KeyError, json.JSONDecodeError,
            EOFError, zipfile.BadZipFile) as exc:
        raise FormatError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("version") != _VERSION:
        raise FormatError(
            f"checkpoint {path}: unsupported version {meta.get('version')!r}"
        )
    try:
        return CheckpointState(
            solver=str(meta["solver"]),
            k=int(meta["k"]),
            params_hash=str(meta["params_hash"]),
            arrays=arrays,
            residuals=tuple(float(v) for v in meta["residuals"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint {path}: bad meta ({exc})") from exc


def column_state(state: CheckpointState, j: int) -> CheckpointState:
    """Slice column *j* out of a batched checkpoint.

    Every batch-capable solver keeps each column of a coalesced run
    bitwise equal to the same job run solo, so resuming column *j* alone
    from the sliced state completes it with exactly the bits the solo
    uninterrupted run would have produced.  Arrays whose trailing
    (2-D) or only (1-D) axis spans the batch are sliced to width 1;
    anything else is copied whole.  The stacked-norm ``residuals``
    history is dropped — it measured the whole batch, not this column.
    """
    x = np.asarray(state.arrays["x"])
    if x.ndim != 2:
        raise ValidationError(
            "column_state needs a batched checkpoint (2-D x); got "
            f"x with shape {x.shape}"
        )
    width = x.shape[1]
    if not (0 <= j < width):
        raise ValidationError(
            f"column {j} out of range for batch width {width}"
        )
    arrays = {}
    for name, a in state.arrays.items():
        a = np.asarray(a)
        if a.ndim == 2 and a.shape[1] == width:
            arrays[name] = np.ascontiguousarray(a[:, j:j + 1])
        elif a.ndim == 1 and a.shape[0] == width:
            arrays[name] = a[j:j + 1].copy()
        else:
            arrays[name] = a.copy()
    return CheckpointState(
        solver=state.solver, k=state.k, params_hash=state.params_hash,
        arrays=arrays, residuals=(),
    )


class CheckpointWriter:
    """Event consumer that persists a checkpoint every *every* iterations.

    Attach as (or chain from) a solver ``callback``.  On each event it
    appends the driving norm to its residual history; every *every*
    iterations (``REPRO_CKPT_EVERY`` by default) it captures the solver
    state through the event's lazy ``state_provider`` and persists it
    with :func:`save_checkpoint`.  A persistence failure (disk full,
    injected fault) increments :attr:`errors` and the
    ``ckpt.store.errors`` metric but never aborts the solve — a solver
    that cannot checkpoint still reconstructs.

    :meth:`store` forces a checkpoint of the most recent event outside
    the cadence — the graceful-drain path.  It must be called from the
    solver's callback context (synchronously, while the iteration's
    state is live); see ``IterationEvent.state_provider``.
    """

    def __init__(self, path, *, every: int | None = None,
                 params_hash: str = "", residuals: tuple = (), chain=None):
        from repro import config

        self.path = path
        self.params_hash = params_hash
        self.every = int(every) if every else config.runtime.ckpt_every
        if self.every < 1:
            raise ValidationError("checkpoint cadence must be >= 1")
        #: Residual norms of every iteration seen (seeded with the prior
        #: run's history when resuming, so the stream stays continuous).
        self.residuals: list = list(residuals)
        #: Most recently persisted state (None until the first store).
        self.last_state: CheckpointState | None = None
        self.stored = 0
        self.errors = 0
        self._last_event = None
        self._chain = chain

    def __call__(self, event) -> None:
        self.residuals.append(event.norm)
        self._last_event = event
        if (event.k + 1) % self.every == 0:
            self.store()
        if self._chain is not None:
            self._chain(event)

    def store(self) -> CheckpointState | None:
        """Capture and persist the state of the last event seen, now.

        Returns the captured :class:`CheckpointState` (even when
        persistence failed — the in-memory state is still good for an
        in-process resume), or None when no checkpointable event has
        arrived yet.
        """
        from repro.obs import metrics as obs_metrics

        event = self._last_event
        if event is None or event.state_provider is None:
            return None
        state = CheckpointState(
            solver=event.solver,
            k=event.k,
            params_hash=self.params_hash,
            arrays=event.state_provider(),
            residuals=tuple(self.residuals),
        )
        try:
            save_checkpoint(state, self.path)
        except OSError:
            self.errors += 1
            obs_metrics.counter(
                "ckpt.store.errors",
                "checkpoint persistence failures (solve continued)",
            ).inc()
        else:
            self.stored += 1
            obs_metrics.counter(
                "ckpt.stored", "solver checkpoints persisted"
            ).inc()
        self.last_state = state
        return state
