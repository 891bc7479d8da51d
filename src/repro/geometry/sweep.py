"""Parallel projector sweeps: geometry -> COO triplets, across cores.

Every projector's ``*_matrix`` function is a sweep over independent
views, which makes the cold build embarrassingly parallel along the view
axis (the row-block decomposition the SpMV drivers already exploit).
This module is the one orchestrator they all share:

* when the compiled backend is available, the view range is split into
  chunks and each chunk is traced by a C kernel
  (``pixel_footprint_views`` / ``strip_footprint_views`` /
  ``siddon_trace_views`` / ``fan_strip_views``) into a caller-allocated
  triplet buffer — the kernels release the GIL, so chunks run
  concurrently on the shared build pool
  (:data:`repro.utils.pool.build_pool`);
* otherwise the per-view NumPy projector runs serially, exactly as
  before.

A sweep may cover a view range (``views=``): the CSCV build traces one
view group at a time that way (:mod:`repro.core.builder`).

**Determinism contract**: chunk results are concatenated in ascending
view order and every triplet value depends only on its own ``(view,
pixel)``, so the emitted COO stream is identical for any worker count or
chunking, and a view range's stream is the full stream's slice — the
canonical :class:`~repro.sparse.COOMatrix` (and therefore every cache
entry hash) never depends on ``REPRO_BUILD_WORKERS``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import normalize_dtype
from repro.errors import GeometryError, KernelError
from repro.kernels import dispatch
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.pool import build_pool, run_resilient

#: Soft cap on one chunk's triplet scratch buffer (bytes); chunks shrink
#: until their conservative capacity bound fits.  Only live chunks (at
#: most the pool width) hold scratch at any moment.
_CHUNK_BUFFER_BYTES = 64 << 20

_TRIPLET_BYTES = 8 + 8 + 8  # int64 row + int64 col + float64 val


def resolve_build_workers(workers: int | None) -> int:
    """Effective build worker count (arg, else ``runtime.build_workers``)."""
    from repro import config

    n = workers if workers is not None else config.runtime.build_workers
    return max(1, int(n))


def sweep_views(
    geom,
    *,
    kernel: str,
    scalar_args: tuple,
    capacity_per_view: int,
    view_fn,
    dtype,
    workers: int | None = None,
    projector: str,
    views: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run a projector sweep, parallel when the C kernel exists.

    Parameters
    ----------
    geom
        Geometry providing ``num_views``.
    kernel : str
        Dispatch name of the C view-range kernel.
    scalar_args : tuple
        Geometry scalars passed before ``(v0, v1, cap, rows, cols,
        vals)``.
    capacity_per_view : int
        Conservative bound on triplets any single view can emit.
    view_fn : callable
        ``view_fn(v) -> (rows, cols, vals)`` NumPy fallback for one view.
    dtype
        Target value dtype (kernels always trace in float64).
    workers : int, optional
        Override for ``config.runtime.build_workers``.
    projector : str
        Name recorded on the ``build.sweep`` span and worker gauge.
    views : (int, int), optional
        Trace only views ``[v0, v1)`` (default: all).  The triplets are
        exactly the full sweep's for those views, in the same order.
    """
    dtype = normalize_dtype(dtype)
    workers = resolve_build_workers(workers)
    fn = dispatch.get(kernel, np.float64)
    first, last = views if views is not None else (0, geom.num_views)
    if not 0 <= first < last <= geom.num_views:
        raise GeometryError(
            f"view range [{first}, {last}) outside [0, {geom.num_views})"
        )
    backend = "c" if fn is not None else "numpy"
    used = workers if fn is not None else 1
    with span("build.sweep", projector=projector, views=last - first,
              backend=backend, workers=used):
        if fn is None:
            parts = [view_fn(v) for v in range(first, last)]
        else:
            ranges = [(first + v0, first + v1) for v0, v1 in
                      _view_chunks(last - first, workers, capacity_per_view)]

            def trace_range(vr: tuple[int, int]):
                v0, v1 = vr
                cap = capacity_per_view * (v1 - v0)
                rows = np.empty(cap, dtype=np.int64)
                cols = np.empty(cap, dtype=np.int64)
                vals = np.empty(cap, dtype=np.float64)
                written = int(fn(*scalar_args, v0, v1, cap, rows, cols, vals))
                if written < 0:
                    raise KernelError(
                        f"{kernel}: capacity {cap} overflowed for views "
                        f"[{v0}, {v1}) — per-view bound too small"
                    )
                return rows[:written].copy(), cols[:written].copy(), vals[:written].copy()

            if workers <= 1 or len(ranges) == 1:
                parts = [trace_range(r) for r in ranges]
            else:
                parts = run_resilient(
                    build_pool, trace_range, ranges,
                    min(workers, len(ranges)), label="sweep",
                )
        rows = np.concatenate([p[0] for p in parts])
        cols = np.concatenate([p[1] for p in parts])
        vals = np.concatenate([p[2] for p in parts]).astype(dtype, copy=False)
    obs_metrics.gauge(
        "build.sweep.workers", "workers used by the last projector sweep"
    ).set(used)
    return rows, cols, vals


def _view_chunks(
    num_views: int, workers: int, capacity_per_view: int
) -> list[tuple[int, int]]:
    """Contiguous view ranges: ~4 chunks per worker, memory-bounded."""
    by_workers = math.ceil(num_views / max(1, workers * 4))
    by_memory = max(1, _CHUNK_BUFFER_BYTES // max(1, capacity_per_view * _TRIPLET_BYTES))
    chunk = max(1, min(by_workers, by_memory))
    return [(v0, min(v0 + chunk, num_views)) for v0 in range(0, num_views, chunk)]
