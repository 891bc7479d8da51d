"""Cold-build bench: operator construction wall time and memory vs workers.

The cold build is the facade's CSCV path (:func:`repro.api.operator`
without the cache): each view group is traced, coalesced and packed on
its own, on the shared build pool when ``workers > 1``
(:func:`repro.core.builder.build_cscv_from_geometry`); the global COO is
never built.  This bench times that path per projector across a ladder
of worker counts, records the build's peak traced bytes (``tracemalloc``;
NumPy reports its allocations to it), and verifies on the way that every
worker count produced the *same* arrays — a sha256 over all of them,
which is the determinism contract the operator cache relies on.

Run via ``python -m repro bench build``: it prints the scaling table
and exits 1 when a worker count changed the arrays.  The trajectory
ledger (:mod:`repro.bench.trajectory`) keeps the single-worker strip
build as its ``build/strip`` case.
"""

from __future__ import annotations

import hashlib
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from repro.core.params import CSCVParams
from repro.errors import ValidationError
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.tables import Table

DEFAULT_PROJECTORS = ("strip", "pixel", "siddon")


@dataclass
class BuildBenchRecord:
    """One cold build: (projector, size, workers) -> wall time and memory."""

    projector: str
    size: int
    workers: int
    backend: str
    total_seconds: float
    #: peak bytes traced while building (``tracemalloc``)
    peak_bytes: int
    nnz: int
    #: :func:`cscv_sha256` of the built arrays
    digest: str

    @property
    def seconds(self) -> float:  # PerfRecord-compatible headline number
        return self.total_seconds


def cscv_sha256(data) -> str:
    """sha256 over every :class:`~repro.core.builder.CSCVData` array
    (name, dtype and bytes), in the on-disk order."""
    from repro.core.io import _ARRAYS

    h = hashlib.sha256()
    for name in _ARRAYS:
        arr = np.ascontiguousarray(getattr(data, name))
        h.update(f"{name}:{arr.dtype.str}:{arr.size};".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _traced_build(build):
    """``(result, seconds, peak traced bytes)`` of one ``build()`` call."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    else:
        tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        t0 = time.perf_counter()
        out = build()
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return out, seconds, peak


def run_build_bench(
    *,
    size: int = 256,
    projectors=DEFAULT_PROJECTORS,
    worker_counts=(1, 2, 4),
    dtype=np.float32,
    params: CSCVParams | None = None,
    repeats: int = 1,
) -> list[BuildBenchRecord]:
    """Cold-build timings for every (projector, workers) pair.

    Nothing touches the operator cache — each measurement traces and
    packs from scratch (best of ``repeats`` for time and peak bytes).
    Raises :class:`ValidationError` if any worker count changes the
    built arrays, which would break cache-key determinism.
    """
    from repro.api import operator
    from repro.kernels import dispatch

    params = params or CSCVParams()
    backend = dispatch.backend_in_use()
    records: list[BuildBenchRecord] = []
    for projector in projectors:
        baseline: str | None = None
        for workers in worker_counts:
            total_s = float("inf")
            peak = None
            for _ in range(max(1, repeats)):
                with span("bench.build", projector=projector, size=size,
                          workers=workers):
                    op, seconds, traced = _traced_build(lambda: operator(
                        size, fmt="cscv-z", projector=projector,
                        params=params, dtype=dtype, cache=False,
                        build_workers=workers,
                    ))
                total_s = min(total_s, seconds)
                peak = traced if peak is None else min(peak, traced)
                nnz, digest = op.fmt.nnz, cscv_sha256(op.fmt.data)
                del op  # before the next repeat builds another
                baseline = baseline or digest
                if digest != baseline:
                    raise ValidationError(
                        f"{projector} build changed with workers={workers}: "
                        f"array sha256 {baseline[:16]} -> {digest[:16]}"
                    )
            records.append(BuildBenchRecord(
                projector=projector,
                size=size,
                workers=workers,
                backend=backend,
                total_seconds=total_s,
                peak_bytes=int(peak),
                nnz=nnz,
                digest=digest,
            ))
        best = min(r.total_seconds for r in records if r.projector == projector)
        first = next(r for r in records if r.projector == projector)
        obs_metrics.gauge(
            "bench.build.scaling",
            "single-worker cold build time over best multi-worker time",
        ).set(first.total_seconds / best if best else 0.0)
    return records


def render(records: list[BuildBenchRecord], *, title: str = "") -> str:
    """One row per (projector, workers); speedup is vs that projector's
    first worker count."""
    t = Table(
        headers=["projector", "workers", "total ms", "peak MB", "speedup",
                 "sha256", "backend"],
        fmt=".1f",
        title=title,
    )
    base: dict[str, float] = {}
    for r in records:
        base.setdefault(r.projector, r.total_seconds)
        speedup = base[r.projector] / r.total_seconds if r.total_seconds else 0.0
        t.add_row(
            r.projector, str(r.workers), r.total_seconds * 1e3,
            r.peak_bytes / 1e6, f"{speedup:.2f}x", r.digest[:12], r.backend,
        )
    return t.render()
