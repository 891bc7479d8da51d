"""Top-level API: one call from geometry to a ready operator, one more
call from operator to a reconstructed image.

:func:`operator` is the library's front door — it resolves the geometry,
runs the projector sweep, converts to the requested sparse format and
wraps the result in a :class:`~repro.recon.linops.ProjectionOperator`,
consulting the persistent operator cache (:mod:`repro.core.cache`) so
repeat constructions are near-instant memory-mapped loads.  Every build
traces and coalesces one view group at a time
(:func:`repro.core.builder.trace_group`): CSCV formats pack each group
at once and never hold the global COO; every other format concatenates
the groups and converts them with its own ``from_coo``.  Either way a
cold build writes one cache entry, under the format's own key.
:func:`reconstruct` is the matching solver front door and the only way
to run a solver: any registered solver
(:data:`repro.recon.registry.SOLVERS`) by name, parameters validated
against the solver's schema, and a structured
:class:`ReconstructionResult` instead of a bare array.
:func:`build_ct_matrix` and :func:`build_format` expose the two build
steps (projector sweep, format conversion) one level down.

Error semantics at this boundary are uniform: problems with *your
arguments* (unknown projector, format or solver name, missing ``geom``,
unknown or out-of-range solver parameters) raise
:class:`~repro.errors.ValidationError`; problems *loading or validating
stored data* raise :class:`~repro.errors.FormatError`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.builder import trace_matrix
from repro.core.format_z import CSCVMatrix
from repro.core.params import CSCVParams
from repro.errors import FormatError, ValidationError
from repro.geometry import PROJECTORS
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.sparse.coo import COOMatrix
from repro.sparse.matrix_base import SpMVFormat, available_formats, get_format


def _resolve_geom(
    image_size_or_geom, num_views: int | None = None
) -> ParallelBeamGeometry:
    """Accept an image size (int) or a ready geometry object."""
    if isinstance(image_size_or_geom, ParallelBeamGeometry):
        if num_views is not None:
            raise ValidationError(
                "num_views cannot be combined with an explicit geometry"
            )
        return image_size_or_geom
    if isinstance(image_size_or_geom, (int, np.integer)):
        return ParallelBeamGeometry.for_image(int(image_size_or_geom), num_views)
    raise ValidationError(
        "expected an image size (int) or a ParallelBeamGeometry, got "
        f"{type(image_size_or_geom).__name__}"
    )


def _resolve_projector(projector: str):
    try:
        return PROJECTORS[projector]
    except KeyError:
        raise ValidationError(
            f"unknown projector {projector!r}; options: {sorted(PROJECTORS)}"
        ) from None


def _resolve_format_class(name: str):
    try:
        return get_format(name)
    except FormatError as exc:  # registry lookup failure = bad user argument
        raise ValidationError(str(exc)) from None


def operator_cache_key(
    image_size_or_geom,
    *,
    fmt: str = "cscv-z",
    projector: str = "strip",
    params: CSCVParams | None = None,
    dtype=np.float32,
    num_views: int | None = None,
    reference_mode: str = "ioblr",
) -> str:
    """The content-addressed cache key :func:`operator` would use.

    Pure function of the operator-defining inputs — no build, no cache
    I/O.  The serving layer (:mod:`repro.serve`) coalesces jobs whose
    keys match into one batched solve; scripts can use it to check
    whether two requests share a physical operator.
    """
    from repro.core.cache import operator_key

    geom = _resolve_geom(image_size_or_geom, num_views)
    cls = _resolve_format_class(fmt)
    _resolve_projector(projector)
    is_cscv = issubclass(cls, CSCVMatrix)
    if is_cscv and params is None:
        params = CSCVParams()
    return operator_key(
        geom=geom,
        fmt=fmt,
        projector=projector,
        dtype=np.dtype(dtype),
        params=params if is_cscv else None,
        reference_mode=reference_mode if is_cscv else "ioblr",
    )


def operator(
    image_size_or_geom,
    *,
    fmt: str = "cscv-z",
    projector: str = "strip",
    params: CSCVParams | None = None,
    dtype=np.float32,
    num_views: int | None = None,
    cache: bool = True,
    cache_obj=None,
    threads: int | None = None,
    reference_mode: str = "ioblr",
    build_workers: int | None = None,
):
    """Build (or load from cache) a ready CT projection operator.

    The single choke point from "I want to reconstruct" to a forward/
    adjoint operator pair::

        op = repro.api.operator(256)           # cscv-z, strip, float32
        sino = op.forward(image)
        back = op.adjoint(sino)

    Parameters
    ----------
    image_size_or_geom : int or ParallelBeamGeometry
        Image edge length (geometry defaults via
        :meth:`ParallelBeamGeometry.for_image`) or a full geometry.
    fmt : str
        Any registered format name (``repro.available_formats()``).
    projector : str
        ``"strip"`` (paper default), ``"pixel"`` or ``"siddon"``.
    params : CSCVParams, optional
        CSCV parameter triple; ignored by non-CSCV formats.
    dtype : numpy dtype
        float32 (default) or float64.
    num_views : int, optional
        View count when *image_size_or_geom* is an int.
    cache : bool
        Consult/populate the persistent operator cache (default on; also
        gated globally by ``REPRO_CACHE``).
    cache_obj : OperatorCache, optional
        Explicit cache instance (tests, custom roots); defaults to the
        process-configured cache.
    threads : int, optional
        OpenMP thread count for formats with compiled threaded kernels.
    reference_mode : str
        CSCV reference-curve ablation (``"ioblr"`` / ``"btb"``).
    build_workers : int, optional
        Worker threads for the cold build, one view group each; defaults
        to ``REPRO_BUILD_WORKERS``.  The built operator — and its cache
        entry — is bitwise-identical for any value, so this is purely a
        wall-clock knob.

    Returns
    -------
    ProjectionOperator
        Wrapping the requested format; ``op.fmt`` is the format
        instance.
    """
    from repro.core.cache import default_cache
    from repro.obs import metrics as obs_metrics
    from repro.recon.linops import ProjectionOperator

    geom = _resolve_geom(image_size_or_geom, num_views)
    cls = _resolve_format_class(fmt)
    _resolve_projector(projector)
    dtype = np.dtype(dtype)
    is_cscv = issubclass(cls, CSCVMatrix)
    if is_cscv and params is None:
        params = CSCVParams()

    store = None
    if cache:
        store = cache_obj if cache_obj is not None else default_cache()
        if not store.enabled:
            store = None

    def build() -> SpMVFormat:
        if is_cscv:
            # traced one view group at a time: no global COO, no coo entry
            return cls.from_ct(
                None, geom, params, dtype=dtype, threads=threads,
                reference_mode=reference_mode, build_workers=build_workers,
                projector=projector,
            )
        # the groups' traces in order, one entry under this format's own key
        return cls.from_coo(
            geom.shape,
            *trace_matrix(geom, PROJECTORS[projector], dtype, build_workers),
            dtype=dtype,
        )

    if store is None:
        return ProjectionOperator(build())

    key = operator_cache_key(
        geom, fmt=fmt, projector=projector, params=params, dtype=dtype,
        reference_mode=reference_mode,
    )
    try:
        fmt_obj, cached = store.get_or_build(key, cls, build, threads=threads)
    except OSError as exc:
        # cache infrastructure broken beyond the cache's own degradation
        # (root unreadable, lock dir unwritable): build uncached
        import warnings

        obs_metrics.counter(
            "api.operator.cache_degraded",
            "operator() calls that bypassed a broken cache",
        ).inc()
        warnings.warn(
            f"operator cache unavailable ({exc}); building uncached",
            RuntimeWarning,
            stacklevel=2,
        )
        return ProjectionOperator(build())
    obs_metrics.counter(
        "api.operator." + ("cached" if cached else "built"),
        "operator() facade results served from cache vs built",
    ).inc()
    return ProjectionOperator(fmt_obj)


def build_ct_matrix(
    image_size: int,
    *,
    num_views: int | None = None,
    projector: str = "strip",
    dtype=np.float64,
    geom: ParallelBeamGeometry | None = None,
) -> tuple[COOMatrix, ParallelBeamGeometry]:
    """Build a parallel-beam CT system matrix (thin facade wrapper).

    Returns the canonical :class:`COOMatrix` plus the geometry (needed by
    the CSCV formats).  ``projector`` is ``"strip"`` (default, the paper's
    nnz density), ``"pixel"`` (2 bins/view) or ``"siddon"`` (exact rays).
    View groups are traced on ``REPRO_BUILD_WORKERS`` threads, with the
    same result for any count.  :func:`operator` caches whole operators.
    """
    geom = geom if geom is not None else _resolve_geom(image_size, num_views)
    dtype = np.dtype(dtype)
    rows, cols, vals = trace_matrix(geom, _resolve_projector(projector), dtype)
    return COOMatrix.from_coo(geom.shape, rows, cols, vals, dtype=dtype), geom


def build_format(
    name: str,
    coo: COOMatrix,
    *,
    geom: ParallelBeamGeometry | None = None,
    params: CSCVParams | None = None,
    dtype=None,
    **format_kwargs,
) -> SpMVFormat:
    """Instantiate any registered format from a COO matrix.

    CSCV formats additionally need ``geom`` (and optionally ``params``).
    For the cached end-to-end path use :func:`operator` instead.
    """
    cls = _resolve_format_class(name)
    if issubclass(cls, CSCVMatrix):
        if geom is None:
            raise ValidationError(f"format {name!r} requires geom=")
        return cls.from_ct(coo, geom, params, dtype=dtype, **format_kwargs)
    kwargs = dict(format_kwargs)
    if dtype is not None:
        kwargs["dtype"] = dtype
    return cls.from_coo(coo.shape, coo.rows, coo.cols, coo.vals, **kwargs)


@dataclass(frozen=True)
class ReconstructionResult:
    """Structured result of :func:`reconstruct`.

    Attributes
    ----------
    image : numpy.ndarray
        The reconstructed image vector (n,) — or stack (n, k) for a
        sinogram stack.
    history : tuple of IterationEvent
        One :class:`~repro.recon.events.IterationEvent` per completed
        iteration, iterate arrays stripped (``x is None``) so results
        stay light; empty for analytic solvers (FBP).
    iterations : int
        Iterations actually run (completed sweeps; watchdog-discarded
        sweeps do not count).  For a resumed run this is the *total*
        including the pre-checkpoint iterations; ``history`` covers only
        the post-resume part.
    stop_reason : str
        ``"max_iterations"`` (budget exhausted), ``"converged"``
        (tolerance or breakdown early-exit), ``"restarted"`` (watchdog
        interventions consumed part of the budget) or ``"analytic"``
        (non-iterative solver).
    wall_seconds : float
        End-to-end solver wall time.
    solver : str
        Registry name of the solver that ran.
    params : dict
        The validated parameters the run used, schema defaults applied —
        the exact parameterisation, reproducible by passing it back.
    """

    image: np.ndarray
    history: tuple = ()
    iterations: int = 0
    stop_reason: str = "max_iterations"
    wall_seconds: float = 0.0
    solver: str = ""
    params: dict = field(default_factory=dict)

    @property
    def residual_history(self) -> np.ndarray:
        """Driving residual norm per iteration (see ``residual_meaning``)."""
        return np.array([e.norm for e in self.history], dtype=np.float64)

    @property
    def residual_meaning(self) -> str:
        """What the driving norm measures (``"residual"`` for SIRT/ART/
        OS-SART, ``"normal_residual"`` for CGLS)."""
        return self.history[-1].meaning if self.history else "residual"


def reconstruct(
    op,
    sinogram: np.ndarray,
    *,
    solver: str = "sirt",
    geom=None,
    x0: np.ndarray | None = None,
    callback=None,
    watchdog=None,
    resume_from=None,
    **params,
) -> ReconstructionResult:
    """Run any registered solver on *op* — the unified reconstruction API.

    One facade over the five iterative solvers plus FBP::

        op = repro.operator(256)
        res = repro.reconstruct(op, sino, solver="cgls", iterations=25)
        res.image, res.residual_history, res.stop_reason

    Parameters
    ----------
    op : ProjectionOperator
        Forward/adjoint pair from :func:`operator`, or
        ``ProjectionOperator(fmt)`` over any format instance (SIRT, ART
        and OS-SART run on its forward and adjoint products; ICD reads
        columns from ``op.to_csc()``).
    sinogram : array
        Measured data: (m,) for one slice, (m, k) for a stack (the
        column-separable solvers run the whole stack in one batched
        SpMM pass).
    solver : str
        A :data:`repro.recon.registry.SOLVERS` name — ``"sirt"``,
        ``"cgls"``, ``"art"``, ``"os-sart"``, ``"icd"`` or ``"fbp"``.
    geom : ParallelBeamGeometry, optional
        Required by solvers with the ``needs_geom`` capability
        (OS-SART's view subsets, FBP's ramp filter).
    x0, callback, watchdog
        Passed through to iterative solvers; ``callback`` receives one
        :class:`~repro.recon.events.IterationEvent` per iteration.
        ``watchdog`` (``True`` for the defaults, or a configured
        :class:`~repro.resilience.watchdog.ResidualWatchdog`) guards
        against divergence: on detection the run restarts from the best
        iterate with ``relax`` backed off (CGLS re-initialises its
        recurrence, ICD its residual); once the restart budget is
        exhausted a :class:`~repro.errors.SolverError` carries the
        history.  Relax values above 2, the classical convergence
        bound, are accepted so that a guarded run can recover from them.
    resume_from : CheckpointState, optional
        Continue an interrupted run from a
        :class:`~repro.recon.checkpoint.CheckpointState` (any iterative
        solver).  The checkpoint must come from the
        same solver under the same validated parameterisation — the
        stored ``params_hash`` is checked and a mismatch raises
        :class:`~repro.errors.ValidationError` rather than resuming a
        silently different run.  The result is bitwise-identical to the
        uninterrupted run; ``iterations`` counts the pre-checkpoint
        iterations too.  Excludes ``x0`` (the checkpoint is the start)
        and ``watchdog`` (a restarted run is not bitwise-resumable).
    **params
        Solver parameters, validated against the solver's schema.
        Unknown or out-of-range names raise
        :class:`~repro.errors.ValidationError` messages naming the
        solver and its accepted parameters — nothing is silently
        ignored.

    Returns
    -------
    ReconstructionResult
    """
    from repro.recon.driver import run
    from repro.recon.registry import get_solver

    spec = get_solver(solver)
    validated = spec.validate_params(params, apply_defaults=True)
    iterative = spec.supports("iterative")
    if not iterative:
        for name, value in (("x0", x0), ("callback", callback),
                            ("watchdog", watchdog),
                            ("resume_from", resume_from)):
            if value is not None and value is not False:
                raise ValidationError(
                    f"solver {spec.name!r} is analytic; {name}= does not apply"
                )
    if spec.supports("needs_geom") and geom is None:
        raise ValidationError(
            f"solver {spec.name!r} requires geom= "
            f"(capability: needs_geom)"
        )

    history: list = []

    def _recorder(event) -> None:
        history.append(event.stripped())
        if callback is not None:
            callback(event)

    t0 = time.perf_counter()
    if iterative:
        image, iterations, stop = run(
            spec.solver, op, sinogram, geom=geom, x0=x0, callback=_recorder,
            watchdog=watchdog, resume_from=resume_from, **validated,
        )
    else:
        image, iterations, stop = (
            spec.solver(op, sinogram, geom, **validated), 0, "analytic"
        )
    wall = time.perf_counter() - t0
    return ReconstructionResult(
        image=image,
        history=tuple(history),
        iterations=iterations,
        stop_reason=stop,
        wall_seconds=wall,
        solver=spec.name,
        params=validated,
    )


@dataclass(frozen=True)
class SkippedFormat:
    """Marker returned by :func:`spmv_all_formats` for unrunnable formats.

    Falsy on purpose, so ``if results[name]`` distinguishes results from
    skips without an isinstance check.
    """

    reason: str

    def __bool__(self) -> bool:
        return False


def spmv_all_formats(
    coo: COOMatrix,
    x: np.ndarray,
    *,
    geom: ParallelBeamGeometry | None = None,
    formats: list[str] | None = None,
    params: CSCVParams | None = None,
) -> dict[str, np.ndarray | SkippedFormat]:
    """Run ``y = A x`` through every requested format; returns name -> y.

    Useful for cross-validation: every result should agree to rounding.
    Formats that cannot run (the CSCVs need a geometry) are never dropped
    silently — their entry holds a :class:`SkippedFormat` naming why.
    """
    names = formats if formats is not None else available_formats()
    out: dict[str, np.ndarray | SkippedFormat] = {}
    for name in names:
        cls = _resolve_format_class(name)
        needs_geom = issubclass(cls, CSCVMatrix)
        if needs_geom and geom is None:
            out[name] = SkippedFormat(
                reason=f"format {name!r} requires geom= (CSCV follows the "
                "integral-operator geometry); pass geom to include it"
            )
            continue
        fmt = build_format(
            name, coo, geom=geom if needs_geom else None, params=params
        )
        out[name] = fmt.spmv(np.asarray(x, dtype=fmt.dtype))
    return out
