"""Job model for the reconstruction service.

A **job** is one tenant's request to reconstruct one sinogram: geometry,
solver name + parameters, the measured data and an optional deadline.
Parsing happens here — against the solver registry
(:mod:`repro.recon.registry`) for parameters and against the geometry /
format / projector resolvers of :mod:`repro.api` for the operator — so a
request that reaches the scheduler is already fully validated and
carries its **batch key**: the operator-cache content hash joined with
the solver name and the canonicalised (defaults-applied) parameter set.
Two jobs with equal batch keys solve ``A X = [y1 y2]`` in one SpMM-backed
batch whose columns are bitwise-identical to solo runs.
"""

from __future__ import annotations

import base64
import binascii
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError, ValidationError
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.recon.registry import SolverSpec, get_solver

__all__ = [
    "Job",
    "JobRequest",
    "QueueFullError",
    "ServiceUnavailableError",
    "parse_job",
    "request_payload",
    "encode_array",
    "decode_sinogram",
    "advance_job_ids",
]

# Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job never leaves.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

_ACCEPTED_KEYS = frozenset({
    "tenant", "solver", "params", "geometry", "sinogram",
    "fmt", "projector", "dtype", "deadline_s", "idempotency_key",
})
_ACCEPTED_GEOM_KEYS = frozenset({"size", "num_views"})
_DTYPES = ("float32", "float64")

_job_id_lock = threading.Lock()
_last_job_id = 0


def _next_job_id() -> int:
    global _last_job_id
    with _job_id_lock:
        _last_job_id += 1
        return _last_job_id


def advance_job_ids(past: int) -> None:
    """Ensure future job ids are numbered beyond *past*.

    Restart recovery calls this with the highest id found in the journal
    so re-enqueued jobs keep their identity and fresh submissions never
    collide with them.  Only ever moves forward.
    """
    global _last_job_id
    with _job_id_lock:
        if past > _last_job_id:
            _last_job_id = past


class QueueFullError(ReproError):
    """Admission control rejected a job (tenant queue at max depth).

    Maps to HTTP 429; :attr:`payload` is the structured error body.
    """

    def __init__(self, tenant: str, depth: int, max_depth: int):
        super().__init__(
            f"queue full for tenant {tenant!r}: "
            f"{depth} jobs queued (max {max_depth}); retry later"
        )
        self.payload = {
            "error": "queue_full",
            "tenant": tenant,
            "queued": depth,
            "max_queue_depth": max_depth,
            "retryable": True,
        }


class ServiceUnavailableError(ReproError):
    """The service is not admitting jobs (draining for shutdown, or still
    replaying its journal).  Maps to HTTP 503 with ``Retry-After``.
    """

    def __init__(self, reason: str = "draining", retry_after_s: float = 5.0):
        super().__init__(
            f"service unavailable ({reason}); retry in {retry_after_s:g}s"
        )
        self.retry_after_s = retry_after_s
        self.payload = {
            "error": "unavailable",
            "reason": reason,
            "retry_after_s": retry_after_s,
            "retryable": True,
        }


def encode_array(arr: np.ndarray) -> dict:
    """Lossless JSON encoding of an array: base64 raw bytes + dtype + shape.

    Base64 of the native little-endian bytes keeps the round trip exact —
    the service's bitwise-identity guarantee survives the wire.
    """
    a = np.ascontiguousarray(arr)
    if a.dtype.byteorder == ">":  # pragma: no cover - big-endian hosts
        a = a.astype(a.dtype.newbyteorder("<"))
    return {
        "b64": base64.b64encode(a.tobytes()).decode("ascii"),
        "dtype": a.dtype.name,
        "shape": list(a.shape),
    }


def decode_sinogram(value, m: int, dtype: np.dtype) -> np.ndarray:
    """Parse the ``sinogram`` field: a JSON list or an encode_array dict."""
    if isinstance(value, dict):
        b64 = value.get("b64")
        if not isinstance(b64, str):
            raise ValidationError("sinogram object must carry a 'b64' string")
        src_dtype = value.get("dtype", dtype.name)
        if src_dtype not in _DTYPES:
            raise ValidationError(
                f"sinogram dtype must be one of {list(_DTYPES)}, got {src_dtype!r}"
            )
        try:
            raw = base64.b64decode(b64, validate=True)
        except (binascii.Error, ValueError) as exc:
            raise ValidationError(f"sinogram b64 payload is invalid: {exc}") from exc
        itemsize = np.dtype(src_dtype).itemsize
        if len(raw) % itemsize:
            raise ValidationError(
                f"sinogram b64 payload is {len(raw)} bytes, not a whole "
                f"number of {src_dtype} samples ({itemsize} bytes each)"
            )
        flat = np.frombuffer(raw, dtype=np.dtype(src_dtype))
    elif isinstance(value, (list, tuple)):
        try:
            flat = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"sinogram list must be numeric: {exc}") from exc
        if flat.ndim != 1:
            raise ValidationError("sinogram list must be flat (one slice per job)")
    else:
        raise ValidationError(
            "sinogram must be a flat JSON list of numbers or a "
            "{'b64': ..., 'dtype': ...} object"
        )
    if flat.size != m:
        raise ValidationError(
            f"sinogram has {flat.size} samples but the geometry expects "
            f"{m} (num_views * num_bins)"
        )
    sino = flat.astype(dtype, copy=False)
    if not np.all(np.isfinite(sino)):
        raise ValidationError("sinogram contains non-finite values")
    return np.ascontiguousarray(sino)


@dataclass
class JobRequest:
    """A fully validated reconstruction request (see :func:`parse_job`)."""

    tenant: str
    solver: str
    params: dict                  # validated, defaults applied
    geom: ParallelBeamGeometry
    fmt: str
    projector: str
    dtype: np.dtype
    sinogram: np.ndarray          # (m,) contiguous, finite, dtype-matched
    deadline_s: float | None
    operator_key: str             # PR-3 content-addressed cache key
    batch_key: str                # operator_key + solver + canonical params
    coalescible: bool             # may share a batch with key-equal jobs
    no_batch_reason: str | None   # why not, when coalescible is False
    idempotency_key: str | None = None   # client-chosen submit dedup key
    #: CheckpointState a recovered job resumes from (forces a solo run:
    #: resuming mid-recurrence cannot join a fresh batch bitwise).
    resume_from: object = None


@dataclass
class Job:
    """One submitted job: request + mutable lifecycle state.

    Mutated by the scheduler / worker threads; HTTP handlers only read
    (via :meth:`snapshot`).  ``done`` is a ``threading.Event`` so
    synchronous callers can block on completion without polling.
    """

    id: str
    request: JobRequest
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    deadline_at: float | None = None          # time.monotonic() basis
    batch_id: int | None = None
    batch_width: int = 0
    coalesced: bool = False                   # rode a batch with width > 1
    progress: list = field(default_factory=list)
    result: np.ndarray | None = None
    iterations: int = 0
    stop_reason: str | None = None
    error: dict | None = None
    queue_wait_s: float | None = None
    done: threading.Event = field(default_factory=threading.Event, repr=False)

    def expired(self, now: float | None = None) -> bool:
        if self.deadline_at is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline_at

    def finish(self, state: str, *, error: dict | None = None) -> None:
        """Move to a terminal state exactly once and wake waiters."""
        if self.state in TERMINAL_STATES:
            return
        self.state = state
        self.error = error
        self.finished_at = time.time()
        self.done.set()

    def snapshot(self, *, include_image: bool = True) -> dict:
        """JSON-safe view of the job for the HTTP API."""
        req = self.request
        out = {
            "job_id": self.id,
            "state": self.state,
            "tenant": req.tenant,
            "solver": req.solver,
            "params": dict(req.params),
            "geometry": (
                {"size": req.geom.image_size, "num_views": req.geom.num_views}
                if req.geom is not None else None  # unrecoverable tombstones
            ),
            "fmt": req.fmt,
            "projector": req.projector,
            "operator_key": req.operator_key,
            "batch_key": req.batch_key,
            "coalescible": req.coalescible,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "batch_width": self.batch_width,
            "coalesced": self.coalesced,
            "iterations": self.iterations,
            "stop_reason": self.stop_reason,
            "queue_wait_s": self.queue_wait_s,
        }
        if self.error is not None:
            out["error"] = dict(self.error)
        if include_image and self.result is not None:
            out["image"] = encode_array(self.result)
        return out

    def progress_snapshot(self) -> dict:
        """The residual stream recorded so far (list.copy is GIL-atomic)."""
        events = list(self.progress)
        return {
            "job_id": self.id,
            "state": self.state,
            "solver": self.request.solver,
            "events": events,
            "count": len(events),
        }


def _canonical_params(spec: SolverSpec, validated: dict) -> str:
    """Deterministic text form of a defaults-applied parameter set."""
    return json.dumps(validated, sort_keys=True, separators=(",", ":"))


def parse_job(payload, *, default_deadline_s: float | None = None) -> JobRequest:
    """Validate a JSON job payload into a :class:`JobRequest`.

    Raises :class:`~repro.errors.ValidationError` naming the offending
    field (and, for solver parameters, the solver and its accepted
    parameters) on any problem — unknown top-level keys included, so
    typos fail loudly instead of silently running with defaults.
    """
    if not isinstance(payload, dict):
        raise ValidationError("job payload must be a JSON object")
    unknown = set(payload) - _ACCEPTED_KEYS
    if unknown:
        raise ValidationError(
            f"unknown job field(s) {sorted(unknown)}; "
            f"accepted fields: {sorted(_ACCEPTED_KEYS)}"
        )

    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
        raise ValidationError("tenant must be a non-empty string (max 64 chars)")

    solver_name = payload.get("solver", "sirt")
    if not isinstance(solver_name, str):
        raise ValidationError("solver must be a string")
    spec = get_solver(solver_name)

    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError("params must be a JSON object")
    validated = spec.validate_params(params, apply_defaults=True)

    geometry = payload.get("geometry")
    if not isinstance(geometry, dict):
        raise ValidationError(
            "geometry is required: {'size': <int>, 'num_views': <int, optional>}"
        )
    unknown = set(geometry) - _ACCEPTED_GEOM_KEYS
    if unknown:
        raise ValidationError(
            f"unknown geometry field(s) {sorted(unknown)}; "
            f"accepted fields: {sorted(_ACCEPTED_GEOM_KEYS)}"
        )
    size = geometry.get("size")
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ValidationError("geometry.size must be a positive integer")
    if size > 4096:
        raise ValidationError("geometry.size is capped at 4096 for the service")
    num_views = geometry.get("num_views")
    if num_views is not None and (
        not isinstance(num_views, int) or isinstance(num_views, bool) or num_views < 1
    ):
        raise ValidationError("geometry.num_views must be a positive integer")
    geom = ParallelBeamGeometry.for_image(size, num_views)

    fmt = payload.get("fmt", "cscv-z")
    projector = payload.get("projector", "strip")
    if not isinstance(fmt, str) or not isinstance(projector, str):
        raise ValidationError("fmt and projector must be strings")

    dtype_name = payload.get("dtype", "float32")
    if dtype_name not in _DTYPES:
        raise ValidationError(
            f"dtype must be one of {list(_DTYPES)}, got {dtype_name!r}"
        )
    dtype = np.dtype(dtype_name)

    deadline_s = payload.get("deadline_s", default_deadline_s)
    if deadline_s is not None:
        if isinstance(deadline_s, bool) or not isinstance(deadline_s, (int, float)):
            raise ValidationError("deadline_s must be a number of seconds")
        deadline_s = float(deadline_s)
        if not (deadline_s > 0):
            raise ValidationError("deadline_s must be > 0")

    idempotency_key = payload.get("idempotency_key")
    if idempotency_key is not None:
        if (not isinstance(idempotency_key, str) or not idempotency_key
                or len(idempotency_key) > 128):
            raise ValidationError(
                "idempotency_key must be a non-empty string (max 128 chars)"
            )

    # operator_cache_key re-validates fmt / projector names.
    from repro.api import operator_cache_key

    op_key = operator_cache_key(geom, fmt=fmt, projector=projector, dtype=dtype)

    sinogram = decode_sinogram(
        payload.get("sinogram"), geom.num_rays, dtype
    )

    no_batch_reason = spec.coalescible(validated)
    batch_key = ":".join(
        (op_key, spec.name, _canonical_params(spec, validated))
    )
    return JobRequest(
        tenant=tenant,
        solver=spec.name,
        params=validated,
        geom=geom,
        fmt=fmt,
        projector=projector,
        dtype=dtype,
        sinogram=sinogram,
        deadline_s=deadline_s,
        operator_key=op_key,
        batch_key=batch_key,
        coalescible=no_batch_reason is None,
        no_batch_reason=no_batch_reason,
        idempotency_key=idempotency_key,
    )


def request_payload(req: JobRequest) -> dict:
    """The JSON job payload equivalent to *req*, minus the sinogram.

    What the journal persists with a submit record: feeding it back
    through :func:`parse_job` (with the spilled sinogram re-attached)
    rebuilds an equivalent request on recovery.
    """
    out = {
        "tenant": req.tenant,
        "solver": req.solver,
        "params": dict(req.params),
        "geometry": {"size": req.geom.image_size,
                     "num_views": req.geom.num_views},
        "fmt": req.fmt,
        "projector": req.projector,
        "dtype": req.dtype.name,
    }
    if req.deadline_s is not None:
        out["deadline_s"] = req.deadline_s
    if req.idempotency_key is not None:
        out["idempotency_key"] = req.idempotency_key
    return out


def new_job(request: JobRequest, *, job_id: str | None = None) -> Job:
    """Wrap a request in a fresh queued :class:`Job`.

    ``job_id`` lets restart recovery re-instantiate a journaled job under
    its original identity; fresh submissions get the next counter id.
    """
    job = Job(id=job_id or f"job-{_next_job_id():06d}", request=request)
    if request.deadline_s is not None:
        job.deadline_at = time.monotonic() + request.deadline_s
    return job
