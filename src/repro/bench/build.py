"""Cold-build bench: operator construction wall time vs worker count.

The cold build has two parallel stages — the projector sweep (C kernels
tracing view ranges concurrently, :mod:`repro.geometry.sweep`) and the
CSCV packing (block-partitioned sort/pack/merge,
:func:`repro.core.builder.build_cscv`).  This bench times both, per
projector, across a ladder of worker counts, and verifies on the way
that every worker count produced the *same* matrix (nnz and a value
checksum), which is the determinism contract the operator cache relies
on.

Run via ``python -m repro bench build``: it prints the scaling table
and exits 1 when a worker count changed the matrix.  The trajectory
ledger (:mod:`repro.bench.trajectory`) keeps the single-worker strip
build as its ``build/strip`` case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.builder import build_cscv
from repro.core.params import CSCVParams
from repro.errors import ValidationError
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.sparse.coo import COOMatrix
from repro.utils.tables import Table

DEFAULT_PROJECTORS = ("strip", "pixel", "siddon")


@dataclass
class BuildBenchRecord:
    """One cold build: (projector, size, workers) -> stage wall times."""

    projector: str
    size: int
    workers: int
    backend: str
    sweep_seconds: float
    pack_seconds: float
    total_seconds: float
    nnz: int
    checksum: float

    @property
    def seconds(self) -> float:  # PerfRecord-compatible headline number
        return self.total_seconds


def _sweep(projector: str, geom, dtype, workers: int):
    from repro.api import _resolve_projector

    rows, cols, vals = _resolve_projector(projector)(
        geom, dtype=dtype, workers=workers
    )
    return COOMatrix.from_coo(geom.shape, rows, cols, vals, dtype=dtype)


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

    Nothing touches the operator cache — each measurement runs the sweep
    and the CSCV conversion from scratch (best of ``repeats``).  Raises
    :class:`ValidationError` if any worker count changes the built
    matrix, which would break cache-key determinism.
    """
    from repro.geometry.parallel_beam import ParallelBeamGeometry
    from repro.kernels import dispatch

    params = params or CSCVParams()
    geom = ParallelBeamGeometry.for_image(size)
    backend = dispatch.backend_in_use()
    records: list[BuildBenchRecord] = []
    for projector in projectors:
        baseline: tuple[int, float] | None = None
        for workers in worker_counts:
            sweep_s = pack_s = total_s = float("inf")
            nnz = 0
            checksum = 0.0
            for _ in range(max(1, repeats)):
                with span("bench.build", projector=projector, size=size,
                          workers=workers):
                    t0 = time.perf_counter()
                    coo = _sweep(projector, geom, dtype, workers)
                    t1 = time.perf_counter()
                    data = build_cscv(
                        coo.rows, coo.cols, coo.vals, geom, params, dtype,
                        workers=workers,
                    )
                    t2 = time.perf_counter()
                sweep_s = min(sweep_s, t1 - t0)
                pack_s = min(pack_s, t2 - t1)
                total_s = min(total_s, t2 - t0)
                nnz = coo.nnz
                checksum = float(np.asarray(data.packed, dtype=np.float64).sum())
            if baseline is None:
                baseline = (nnz, checksum)
            elif baseline != (nnz, checksum):
                raise ValidationError(
                    f"{projector} build changed with workers={workers}: "
                    f"nnz/checksum {baseline} -> {(nnz, checksum)}"
                )
            rec = BuildBenchRecord(
                projector=projector,
                size=size,
                workers=workers,
                backend=backend,
                sweep_seconds=sweep_s,
                pack_seconds=pack_s,
                total_seconds=total_s,
                nnz=nnz,
                checksum=checksum,
            )
            records.append(rec)
        best = min(r.total_seconds for r in records if r.projector == projector)
        first = next(r for r in records if r.projector == projector)
        obs_metrics.gauge(
            "bench.build.scaling",
            "single-worker cold build time over best multi-worker time",
        ).set(first.total_seconds / best if best else 0.0)
    return records


def render(records: list[BuildBenchRecord], *, title: str = "") -> str:
    """One row per (projector, workers); speedup is vs that projector's W=1."""
    t = Table(
        headers=["projector", "workers", "sweep ms", "pack ms", "total ms",
                 "speedup", "backend"],
        fmt=".1f",
        title=title,
    )
    base: dict[str, float] = {}
    for r in records:
        base.setdefault(r.projector, r.total_seconds)
        speedup = base[r.projector] / r.total_seconds if r.total_seconds else 0.0
        t.add_row(
            r.projector, str(r.workers), r.sweep_seconds * 1e3,
            r.pack_seconds * 1e3, r.total_seconds * 1e3,
            f"{speedup:.2f}x", r.backend,
        )
    return t.render()
