"""Global configuration for the repro library.

Centralises dtype policy, default CSCV parameters, backend selection and
environment-variable overrides.  Everything here is intentionally plain
data so tests can monkeypatch it safely.

Environment variables
---------------------
``REPRO_BACKEND``
    ``"auto"`` (default), ``"numpy"`` or ``"c"``.  ``auto`` prefers the
    compiled C backend when a working C compiler is available and silently
    falls back to NumPy otherwise.
``REPRO_CC``
    C compiler executable used to build the kernel library (default
    ``cc`` then ``gcc``).
``REPRO_CACHE_DIR``
    Root directory for every on-disk cache (compiled kernels, persisted
    operators, autotune results).  Default: ``~/.cache/repro``.
``REPRO_CACHE``
    ``1`` (default) enables the persistent operator cache; ``0`` turns
    every cache lookup into a miss-and-don't-store (builds still work).
``REPRO_CACHE_MAX_BYTES``
    Size budget for the operator cache in bytes (default 4 GiB).  After
    every store the least-recently-used entries are evicted until the
    cache fits the budget.  Accepts suffixes ``k``/``m``/``g``.
``REPRO_CACHE_VERIFY``
    ``1`` (default) checks stored array checksums on every cache load;
    ``0`` trusts the entry (fastest, still validated structurally).
``REPRO_THREADS``
    Default OpenMP thread count of the compiled kernels (default: CPU
    count).  The CSCV kernels give bitwise-identical results for any
    value.  The NumPy fallback is single-threaded and ignores it.
``REPRO_BUILD_WORKERS``
    Default worker count for the parallel cold build, one view group
    per worker: its trace, coalesce and, for CSCV, packing
    (default: CPU count).  Any value produces bitwise-identical
    operators; this knob trades cores for cold-build wall time only.
``REPRO_CKPT_EVERY``
    Solver checkpoint cadence for crash-safe serving: persist a resumable
    :class:`~repro.recon.checkpoint.CheckpointState` every N iterations
    (default 5; checkpointing itself is opt-in per run).  See
    :mod:`repro.recon.checkpoint`.
``REPRO_JOURNAL_DIR``
    Directory of the durable job journal the serving layer writes
    (write-ahead JSONL + payload spill + checkpoints).  Default:
    ``<cache root>/journal``.  See :mod:`repro.serve.journal`.
``REPRO_GUARD``
    Numerical guard level: ``off`` (default, also ``0``), ``inputs``
    (``1`` — screen operator/solver inputs for NaN/Inf) or ``full``
    (``2`` — also screen operator outputs and solver iterates).  See
    :mod:`repro.resilience.guards`.
``REPRO_FAULTS``
    Deterministic fault-injection plan: empty (default, nothing fires),
    a named profile (``chaos``, ``kernel-chaos``), or an explicit rule
    list such as ``cache.load.read:corrupt:every=3,pool.task.*:raise``.
    See :mod:`repro.resilience.faults`.
``REPRO_TRACE``
    ``0`` (default) disables tracing; ``1`` enables span recording with
    the default JSONL dump path; any other value enables tracing and is
    used as the dump path.  See :mod:`repro.obs`.
``REPRO_PROFILE``
    ``1`` prints cProfile summaries of profiled regions to stderr; a
    path accumulates binary pstats there.  See :mod:`repro.obs.profile`.
``REPRO_METRICS_PORT``
    Unset (default): no metrics endpoint.  A port number starts a
    background HTTP server on localhost serving the metric registry in
    Prometheus text format at ``/metrics`` (``0`` picks an ephemeral
    port).  Also enables bytes-moved perf accounting.  See
    :mod:`repro.obs.runtime`.
``REPRO_METRICS_FLUSH``
    Unset (default): no flusher.  A path starts a background thread
    appending one JSONL metrics snapshot there every
    ``REPRO_METRICS_FLUSH_SEC`` seconds (default 10), plus a final
    flush at interpreter exit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

#: dtypes supported by every format and kernel in the library.
SUPPORTED_DTYPES: tuple[np.dtype, ...] = (np.dtype(np.float32), np.dtype(np.float64))

#: Default index dtype for all sparse formats (32-bit is what the paper's
#: implementation uses; matrices here never exceed 2^31 rows/cols/nnz).
INDEX_DTYPE = np.dtype(np.int32)

#: Default CSCVE vector length (elements per SIMD vector group).  8 matches
#: an AVX-512 register of float64 or an AVX2 register of float32, and is the
#: paper's running-example value (Table I).
DEFAULT_S_VVEC = 8

#: Default image-block edge length (pixels), paper Table III uses 16-64.
DEFAULT_S_IMGB = 16

#: Default number of CSCVEs concatenated into one VxG.
DEFAULT_S_VXG = 2


def env_backend() -> str:
    """Return the backend requested via ``REPRO_BACKEND`` (normalised)."""
    value = os.environ.get("REPRO_BACKEND", "auto").strip().lower()
    if value not in ("auto", "numpy", "c"):
        raise ValueError(f"REPRO_BACKEND must be auto|numpy|c, got {value!r}")
    return value


def env_threads() -> int:
    """Default thread count: ``REPRO_THREADS`` or the CPU count."""
    raw = os.environ.get("REPRO_THREADS")
    if raw:
        n = int(raw)
        if n < 1:
            raise ValueError("REPRO_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


def env_build_workers() -> int:
    """Default cold-build workers: ``REPRO_BUILD_WORKERS`` or CPU count."""
    raw = os.environ.get("REPRO_BUILD_WORKERS")
    if raw:
        n = int(raw)
        if n < 1:
            raise ValueError("REPRO_BUILD_WORKERS must be >= 1")
        return n
    return os.cpu_count() or 1


#: Accepted numerical guard levels, weakest to strongest.
GUARD_LEVELS = ("off", "inputs", "full")

_GUARD_ALIASES = {
    "": "off", "0": "off", "false": "off", "no": "off", "off": "off",
    "1": "inputs", "input": "inputs", "inputs": "inputs",
    "2": "full", "on": "full", "true": "full", "all": "full", "full": "full",
}


def env_guard() -> str:
    """``REPRO_GUARD``: numerical guard level (``off``/``inputs``/``full``)."""
    raw = os.environ.get("REPRO_GUARD", "off").strip().lower()
    try:
        return _GUARD_ALIASES[raw]
    except KeyError:
        raise ValueError(
            f"REPRO_GUARD must be one of {GUARD_LEVELS} (or 0/1/2), got {raw!r}"
        ) from None


def env_faults() -> str:
    """``REPRO_FAULTS``: fault-injection plan (profile name or rule list)."""
    return os.environ.get("REPRO_FAULTS", "").strip()


#: Default solver checkpoint cadence (iterations between checkpoints).
DEFAULT_CKPT_EVERY = 5


def env_ckpt_every() -> int:
    """``REPRO_CKPT_EVERY``: checkpoint cadence in iterations (default 5)."""
    raw = os.environ.get("REPRO_CKPT_EVERY")
    if raw:
        n = int(raw)
        if n < 1:
            raise ValueError("REPRO_CKPT_EVERY must be >= 1")
        return n
    return DEFAULT_CKPT_EVERY


def env_trace() -> tuple[bool, str | None]:
    """Interpret ``REPRO_TRACE``: (enabled, explicit dump path or None)."""
    raw = os.environ.get("REPRO_TRACE", "").strip()
    if raw.lower() in ("", "0", "false", "no", "off"):
        return False, None
    if raw.lower() in ("1", "true", "yes", "on"):
        return True, None
    return True, raw


#: Default seconds between JSONL metric snapshots (``REPRO_METRICS_FLUSH_SEC``).
DEFAULT_METRICS_FLUSH_SEC = 10.0


def env_metrics_port() -> int | None:
    """``REPRO_METRICS_PORT``: /metrics exporter port, or None for off.

    ``0`` is valid and binds an ephemeral port (tests, parallel CI runs).
    """
    raw = os.environ.get("REPRO_METRICS_PORT", "").strip()
    if raw == "" or raw.lower() in ("off", "none", "false", "no"):
        return None
    port = int(raw)
    if not (0 <= port <= 65535):
        raise ValueError(f"REPRO_METRICS_PORT must be 0..65535, got {port}")
    return port


def env_metrics_flush() -> tuple[str | None, float]:
    """``REPRO_METRICS_FLUSH`` (JSONL path or None) + flush interval."""
    path = os.environ.get("REPRO_METRICS_FLUSH", "").strip() or None
    raw = os.environ.get("REPRO_METRICS_FLUSH_SEC", "").strip()
    interval = float(raw) if raw else DEFAULT_METRICS_FLUSH_SEC
    if interval <= 0:
        raise ValueError("REPRO_METRICS_FLUSH_SEC must be > 0")
    return path, interval


def cache_root() -> str:
    """Root directory of every repro on-disk cache (``REPRO_CACHE_DIR``)."""
    default = os.path.join(os.path.expanduser("~"), ".cache", "repro")
    return os.environ.get("REPRO_CACHE_DIR", default)


def cache_dir() -> str:
    """Directory where compiled kernels are cached (``<root>/kernels``)."""
    return os.path.join(cache_root(), "kernels")


def operator_cache_dir() -> str:
    """Directory of the persistent operator cache (``<root>/operators``)."""
    return os.path.join(cache_root(), "operators")


def journal_dir() -> str:
    """Directory of the serving job journal (``REPRO_JOURNAL_DIR``).

    Default: ``<cache root>/journal``.
    """
    return os.environ.get("REPRO_JOURNAL_DIR") or os.path.join(
        cache_root(), "journal"
    )


#: Default operator-cache size budget: 4 GiB.
DEFAULT_CACHE_MAX_BYTES = 4 * 1024**3

_SIZE_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3}


def _parse_size(raw: str) -> int:
    raw = raw.strip().lower()
    mult = 1
    if raw and raw[-1] in _SIZE_SUFFIXES:
        mult = _SIZE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    return int(float(raw) * mult)


def env_cache_enabled() -> bool:
    """``REPRO_CACHE``: persistent operator cache on (default) or off."""
    raw = os.environ.get("REPRO_CACHE", "1").strip().lower()
    return raw not in ("0", "false", "no", "off")


def env_cache_max_bytes() -> int:
    """``REPRO_CACHE_MAX_BYTES``: operator-cache size budget."""
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES")
    if not raw:
        return DEFAULT_CACHE_MAX_BYTES
    n = _parse_size(raw)
    if n < 0:
        raise ValueError("REPRO_CACHE_MAX_BYTES must be >= 0")
    return n


def env_cache_verify() -> bool:
    """``REPRO_CACHE_VERIFY``: checksum entries on load (default on)."""
    raw = os.environ.get("REPRO_CACHE_VERIFY", "1").strip().lower()
    return raw not in ("0", "false", "no", "off")


@dataclass
class RuntimeConfig:
    """Mutable runtime knobs, exposed as :data:`repro.config.runtime`."""

    backend: str = field(default_factory=env_backend)
    threads: int = field(default_factory=env_threads)
    #: Workers for the parallel cold build (one view group each);
    #: results are bitwise-identical for any value (``REPRO_BUILD_WORKERS``).
    build_workers: int = field(default_factory=env_build_workers)
    #: When True, CSCV builders double-check permutations and paddings.
    paranoid_checks: bool = False
    #: Span tracing requested (seeded from ``REPRO_TRACE``); the live
    #: switch is ``repro.obs.tracer.enabled`` — use ``repro.obs.enable()``
    #: / ``disable()`` to flip both coherently.
    trace: bool = field(default_factory=lambda: env_trace()[0])
    #: Explicit JSONL dump path from ``REPRO_TRACE``, or None for default.
    trace_path: str | None = field(default_factory=lambda: env_trace()[1])
    #: Persistent operator cache on/off (seeded from ``REPRO_CACHE``).
    cache_enabled: bool = field(default_factory=env_cache_enabled)
    #: Operator-cache size budget in bytes (``REPRO_CACHE_MAX_BYTES``).
    cache_max_bytes: int = field(default_factory=env_cache_max_bytes)
    #: Verify stored checksums on cache load (``REPRO_CACHE_VERIFY``).
    cache_verify: bool = field(default_factory=env_cache_verify)
    #: Numerical guard level (``REPRO_GUARD``): ``off``/``inputs``/``full``.
    guard: str = field(default_factory=env_guard)
    #: Fault-injection plan string (``REPRO_FAULTS``); parsed lazily by
    #: :mod:`repro.resilience.faults`, empty = nothing fires.
    faults: str = field(default_factory=env_faults)
    #: Solver checkpoint cadence in iterations (``REPRO_CKPT_EVERY``);
    #: consumed by the crash-safe serving layer, opt-in per run.
    ckpt_every: int = field(default_factory=env_ckpt_every)


#: Singleton runtime configuration.
runtime = RuntimeConfig()


def normalize_dtype(dtype) -> np.dtype:
    """Validate and canonicalise a floating dtype.

    Raises
    ------
    ValueError
        If *dtype* is not float32 or float64.
    """
    dt = np.dtype(dtype)
    if dt not in SUPPORTED_DTYPES:
        raise ValueError(
            f"dtype {dt} unsupported; expected one of "
            f"{[str(d) for d in SUPPORTED_DTYPES]}"
        )
    return dt
