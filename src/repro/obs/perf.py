"""Per-dispatch performance accounting: bytes moved, GB/s, roofline terms.

The paper's central claim is a memory-bandwidth argument — CSCV wins
because it moves fewer bytes per nnz, quantified by the ``E_M``/``R_EM``
efficiency model of Section V-C.  This module turns that model into live
telemetry: every SpMV/SpMM dispatch (and every cold build) computes its
*theoretical* bytes read/written from the format's layout — CSR streams,
CSCV-Z padded values, CSCV-M packed values + masks, plus the VxG index
and reorder-map traffic — and records the achieved GB/s, the fraction of
the host's measured STREAM bandwidth, and nnz/s into tagged histograms
in the process-wide registry.

Accounting is **off by default** and costs one module-attribute load and
one branch per dispatch when off.  It turns on together with tracing
(``REPRO_TRACE`` / ``obs.enable()``) or with the live metrics runtime
(``REPRO_METRICS_PORT`` / ``obs.runtime.start()``), so benchmark
numbers are unchanged unless somebody is looking.

The STREAM-bandwidth denominator comes from
:func:`measure_stream_bandwidth` (a tiny MLC stand-in), measured once
per host and cached in-process *and* on disk
(``<cache_root>/stream_bw.json``, keyed by host fingerprint) so no hot
path ever pays for the measurement: dispatch recording uses the cached
value when one exists and counts ``perf.stream_bw.unavailable``
otherwise; ``repro bench trajectory`` measures and persists it.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time

import numpy as np

__all__ = [
    "active",
    "enable",
    "disable",
    "is_active",
    "clock",
    "cscv_z_bytes",
    "cscv_m_bytes",
    "format_bytes",
    "host_fingerprint",
    "measure_stream_bandwidth",
    "stream_bandwidth",
    "record_dispatch",
    "record_cscv",
    "record_format",
    "record_build",
    "ConvergenceMeter",
    "GBS_BUCKETS",
    "FRACTION_BUCKETS",
    "NNZS_BUCKETS",
]

#: Hot-path switch — read as ``perf.active`` at every dispatch site.
active: bool = False

#: Monotonic clock used by the dispatch sites (one name to patch in tests).
clock = time.perf_counter

#: Achieved-GB/s histogram buckets: spans a laptop core to a dual-socket
#: server (the paper's SKL peaks at 202.8 GB/s).
GBS_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
               100.0, 200.0, 400.0)

#: Fraction-of-STREAM buckets; > 1 is possible when the working set sits
#: in cache, which is itself a useful signal.
FRACTION_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.2, 0.35, 0.5, 0.65,
                    0.8, 0.9, 1.0, 1.25, 2.0)

#: nnz/s throughput buckets (log-spaced; Table II nnz counts reach 1e9+).
NNZS_BUCKETS = (1e5, 2.5e5, 1e6, 2.5e6, 1e7, 2.5e7, 1e8, 2.5e8,
                1e9, 2.5e9, 1e10)


def enable() -> None:
    """Turn dispatch accounting on (tracing/metrics runtime call this)."""
    global active
    active = True


def disable() -> None:
    global active
    active = False


def is_active() -> bool:
    return active


# ---------------------------------------------------------------------- #
# bytes-moved models (the E_M layout accounting, per dispatch)


def cscv_z_bytes(data, k: int = 1) -> dict[str, float]:
    """Theoretical bytes one CSCV-Z SpMV/SpMM with *k* RHS must move.

    Reads: the padded value stream (``num_vxg * vxg_len`` slots, padding
    zeros included — the cost CSCV-M removes), the per-VxG
    ``(column, start)`` index, block pointers/ysizes, the IOBLR reorder
    map streamed during the scatter, and ``k`` copies of ``x``.
    Writes: ``k`` copies of ``y`` (the ``ytilde`` scratch lives in cache
    by construction — blocks are sized for it — so it is not counted,
    exactly as in the paper's ``M_Rit``).
    """
    m, n = data.shape
    item = data.dtype.itemsize
    read = float(
        data.values.nbytes
        + data.vxg_col.nbytes
        + data.vxg_start.nbytes
        + data.blk_vxg_ptr.nbytes
        + data.blk_ysize.nbytes
        + data.blk_map_ptr.nbytes
        + data.ymap.nbytes
        + k * n * item
    )
    written = float(k * m * item)
    return {"read": read, "written": written, "total": read + written}


def cscv_m_bytes(data, k: int = 1) -> dict[str, float]:
    """Theoretical bytes one CSCV-M SpMV/SpMM with *k* RHS must move.

    Versus CSCV-Z the value stream shrinks to exactly ``nnz`` packed
    values, paid for with ``ceil(s_vvec/8)`` mask bytes per CSCVE and
    the per-VxG value offsets driving the (soft-)vexpand.
    """
    m, n = data.shape
    item = data.dtype.itemsize
    mask_bytes = data.num_cscve * ((data.params.s_vvec + 7) // 8)
    read = float(
        data.packed.nbytes
        + mask_bytes
        + data.vxg_voff.nbytes
        + data.vxg_col.nbytes
        + data.vxg_start.nbytes
        + data.blk_vxg_ptr.nbytes
        + data.blk_ysize.nbytes
        + data.blk_map_ptr.nbytes
        + data.ymap.nbytes
        + k * n * item
    )
    written = float(k * m * item)
    return {"read": read, "written": written, "total": read + written}


def format_bytes(fmt, k: int = 1) -> dict[str, float]:
    """Theoretical bytes per SpMV/SpMM for any :class:`SpMVFormat`.

    Uses the format's own exact layout accounting
    (:meth:`~repro.sparse.matrix_base.SpMVFormat.memory_bytes`, the
    paper's ``M(A)``) plus ``k`` vector reads and writes — i.e. the
    ``M_Rit`` of :func:`repro.sparse.stats.memory_requirement`
    generalised to multi-RHS.
    """
    m, n = fmt.shape
    item = fmt.dtype.itemsize
    read = float(fmt.memory_bytes()["total"] + k * n * item)
    written = float(k * m * item)
    return {"read": read, "written": written, "total": read + written}


# ---------------------------------------------------------------------- #
# STREAM bandwidth, measured once and cached per host


def host_fingerprint() -> str:
    """Stable id of this host for bandwidth caches and bench records."""
    return "-".join(
        str(part)
        for part in (
            platform.node() or "unknown",
            platform.machine() or "unknown",
            os.cpu_count() or 1,
        )
    )


def measure_stream_bandwidth(size_mb: int = 256, repeats: int = 5) -> float:
    """Host streaming-read bandwidth in GB/s (a tiny MLC stand-in).

    Times ``np.sum`` over a buffer much larger than cache; used to
    calibrate the HOST machine model and as the ``R_EM`` denominator.
    """
    from repro.utils.timing import min_time

    n = size_mb * (1 << 20) // 8
    buf = np.ones(n, dtype=np.float64)
    t = min_time(lambda: float(buf.sum()), iterations=repeats, max_seconds=5.0)
    return buf.nbytes / t / 1e9


_stream_gbs: float | None = None  # in-process cache


def _stream_cache_path() -> str:
    from repro import config

    return os.path.join(config.cache_root(), "stream_bw.json")


def stream_bandwidth(*, measure: bool = False, refresh: bool = False,
                     size_mb: int = 256) -> float | None:
    """The host's measured STREAM bandwidth in GB/s, cached per host.

    With ``measure=False`` (the hot-path default) only cached values are
    returned — in-process first, then the on-disk per-host cache — and
    ``None`` means "not measured yet" (record sites skip the fraction).
    ``measure=True`` runs the measurement on a miss and persists it;
    ``refresh=True`` forces a re-measurement.
    """
    global _stream_gbs
    if not refresh:
        if _stream_gbs is not None:
            return _stream_gbs
        cached = _load_stream_cache().get(host_fingerprint())
        if cached is not None:
            _stream_gbs = float(cached["gbs"])
            return _stream_gbs
    if not (measure or refresh):
        return None
    gbs = measure_stream_bandwidth(size_mb=size_mb)
    _stream_gbs = gbs
    _store_stream_cache(gbs)
    return gbs


def _load_stream_cache() -> dict:
    try:
        with open(_stream_cache_path(), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return data if isinstance(data, dict) else {}
    except (OSError, ValueError):
        return {}


def _store_stream_cache(gbs: float) -> None:
    path = _stream_cache_path()
    data = _load_stream_cache()
    data[host_fingerprint()] = {"gbs": gbs, "measured_at": time.time()}
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
        os.replace(tmp, path)
    except OSError:
        pass  # cache is best-effort; the in-process value still serves


def _reset_stream_cache() -> None:
    """Drop the in-process cached bandwidth (test hook)."""
    global _stream_gbs
    _stream_gbs = None


# ---------------------------------------------------------------------- #
# recording


def record_dispatch(op: str, variant: str, backend: str, *,
                    seconds: float, bytes_read: float,
                    bytes_written: float, nnz: int, k: int = 1) -> None:
    """Record one kernel dispatch into the tagged perf histograms.

    ``op`` is ``"spmv"``/``"spmm"`` or the adjoint ``"tspmv"``/``"tspmm"``;
    ``variant`` names the format (``csr``, ``z``, ``m``); ``backend`` the
    execution path (``c``/``flat``/``numpy``).  Emits, per dispatch:

    * ``{op}.achieved_gbs.{variant}.{backend}`` — total traffic rate;
    * ``{op}.nnz_per_s.{variant}`` — useful-work throughput (× k RHS);
    * ``{op}.stream_fraction.{variant}`` — achieved GB/s over the host's
      measured STREAM bandwidth (only when a cached measurement exists);
    * cumulative ``perf.bytes_read`` / ``perf.bytes_written`` counters.
    """
    from repro.obs import metrics as obs_metrics

    if seconds <= 0:
        return
    total = bytes_read + bytes_written
    gbs = total / seconds / 1e9
    obs_metrics.histogram(
        f"{op}.achieved_gbs.{variant}.{backend}",
        "achieved effective traffic rate per dispatch (GB/s)",
        buckets=GBS_BUCKETS,
    ).observe(gbs)
    obs_metrics.histogram(
        f"{op}.nnz_per_s.{variant}",
        "nonzeros (x RHS count) processed per second",
        buckets=NNZS_BUCKETS,
    ).observe(nnz * k / seconds)
    obs_metrics.counter(
        "perf.bytes_read", "theoretical bytes read by accounted dispatches"
    ).inc(bytes_read)
    obs_metrics.counter(
        "perf.bytes_written", "theoretical bytes written by accounted dispatches"
    ).inc(bytes_written)
    bw = stream_bandwidth()
    if bw:
        obs_metrics.histogram(
            f"{op}.stream_fraction.{variant}",
            "achieved GB/s over the host's measured STREAM bandwidth (R_EM)",
            buckets=FRACTION_BUCKETS,
        ).observe(gbs / bw)
    else:
        obs_metrics.counter(
            "perf.stream_bw.unavailable",
            "dispatches recorded before STREAM bandwidth was measured "
            "(run `repro bench trajectory` once to calibrate)",
        ).inc()


def record_cscv(op: str, variant: str, backend: str, data, seconds: float,
                k: int = 1) -> None:
    """Dispatch recording for the CSCV dispatcher (layout-exact bytes).

    Adjoints (``tspmv``/``tspmm``) move the same matrix stream but swap
    the vector terms: they read ``k * m`` and write ``k * n`` entries.
    """
    traffic = cscv_z_bytes(data, k) if variant == "z" else cscv_m_bytes(data, k)
    read, written = traffic["read"], traffic["written"]
    if op.startswith("t"):
        m, n = data.shape
        vec = k * data.dtype.itemsize
        read, written = read + vec * (m - n), float(vec * n)
    record_dispatch(op, variant, backend, seconds=seconds, bytes_read=read,
                    bytes_written=written, nnz=data.nnz, k=k)


def record_format(op: str, fmt, backend: str, seconds: float, k: int = 1) -> None:
    """Dispatch recording for generic :class:`SpMVFormat` instances."""
    traffic = format_bytes(fmt, k)
    record_dispatch(op, fmt.name, backend, seconds=seconds,
                    bytes_read=traffic["read"], bytes_written=traffic["written"],
                    nnz=fmt.nnz, k=k)


def record_build(*, seconds: float, bytes_written: float, nnz: int) -> None:
    """Record one cold CSCV build: output-bytes rate and nnz/s."""
    from repro.obs import metrics as obs_metrics

    if seconds <= 0:
        return
    obs_metrics.histogram(
        "build.achieved_gbs",
        "CSCV output arrays written per second of packing (GB/s)",
        buckets=GBS_BUCKETS,
    ).observe(bytes_written / seconds / 1e9)
    obs_metrics.histogram(
        "build.nnz_per_s", "nonzeros packed per second of cold build",
        buckets=NNZS_BUCKETS,
    ).observe(nnz / seconds)
    obs_metrics.counter(
        "perf.bytes_written", "theoretical bytes written by accounted dispatches"
    ).inc(bytes_written)


# ---------------------------------------------------------------------- #
# solver convergence accounting


class ConvergenceMeter:
    """Per-solver aggregation: iteration throughput + convergence rate.

    One instance per solver run.  :meth:`observe` is called once per
    iteration with the residual norm (and, when perf accounting is
    active, the iteration wall time); it maintains:

    * ``{solver}.iter_seconds`` — histogram of per-iteration wall time
      (only while perf accounting is active);
    * ``{solver}.residual_slope`` — gauge, mean of
      ``log(r_k / r_{k-1})`` over the run so far (negative = converging;
      ``-0.1`` means the residual shrinks ~10% per iteration);
    * ``{solver}.iters_to_tol`` — gauge, the first iteration where
      ``r_k / y_norm`` dropped below ``rtol`` (only when a tolerance was
      requested and reached).
    """

    __slots__ = ("solver", "y_norm", "rtol", "_prev", "_slope_sum",
                 "_slope_n", "_tol_hit")

    def __init__(self, solver: str, *, y_norm: float = 1.0, rtol: float = 0.0):
        self.solver = solver
        self.y_norm = y_norm or 1.0
        self.rtol = rtol
        self._prev: float | None = None
        self._slope_sum = 0.0
        self._slope_n = 0
        self._tol_hit = False

    def observe(self, k: int, rnorm: float, seconds: float | None = None) -> None:
        from repro.obs import metrics as obs_metrics

        if seconds is not None:
            obs_metrics.histogram(
                f"{self.solver}.iter_seconds",
                "solver iteration wall time (seconds)",
            ).observe(seconds)
        if self._prev is not None and self._prev > 0 and rnorm > 0:
            self._slope_sum += math.log(rnorm / self._prev)
            self._slope_n += 1
            obs_metrics.gauge(
                f"{self.solver}.residual_slope",
                "mean log residual ratio per iteration (negative = converging)",
            ).set(self._slope_sum / self._slope_n)
        self._prev = rnorm
        if (not self._tol_hit and self.rtol > 0
                and rnorm / self.y_norm < self.rtol):
            self._tol_hit = True
            obs_metrics.gauge(
                f"{self.solver}.iters_to_tol",
                "iterations needed to reach the requested tolerance",
            ).set(k + 1)

    def observe_event(self, event, seconds: float | None = None) -> None:
        """Typed-event form of :meth:`observe`.

        Consumes an :class:`~repro.recon.events.IterationEvent`, reading
        the event's driving norm so the meter stays solver-agnostic.
        """
        self.observe(event.k, event.norm, seconds)
