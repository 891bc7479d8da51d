"""Projector sweeps: geometry -> COO triplets of a view range.

Every projector's ``*_matrix`` function is a sweep over independent
views, and this module is the one loop they all share.  With the
compiled backend the range is traced in memory-bounded chunks by a C
kernel (``pixel_footprint_views`` / ``strip_footprint_views`` /
``siddon_trace_views`` / ``fan_strip_views``) into a caller-allocated
triplet buffer; otherwise the per-view NumPy projector runs.  A sweep
runs serially on its caller's thread: build parallelism lives in the
view groups of :mod:`repro.core.builder`, each tracing its own range.

**Determinism contract**: chunks are concatenated in ascending view
order and every triplet value depends only on its own ``(view,
pixel)``, so a view range's stream is the full stream's slice,
whatever the chunking.
"""

from __future__ import annotations

import numpy as np

from repro.config import normalize_dtype
from repro.errors import GeometryError, KernelError
from repro.kernels import dispatch
from repro.obs.trace import span

#: Soft cap on one chunk's triplet scratch buffer (bytes): a chunk takes
#: as many views as their conservative capacity bound lets fit.
_CHUNK_BUFFER_BYTES = 64 << 20

_TRIPLET_BYTES = 8 + 8 + 8  # int64 row + int64 col + float64 val


def sweep_views(
    geom,
    *,
    kernel: str,
    scalar_args: tuple,
    capacity_per_view: int,
    view_fn,
    dtype,
    projector: str,
    views: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace a view range, on the C kernel when it exists.

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
    projector : str
        Name recorded on the ``build.sweep`` span.
    views : (int, int), optional
        Trace only views ``[v0, v1)`` (default: all).  The triplets are
        exactly the full sweep's for those views, in the same order.
    """
    dtype = normalize_dtype(dtype)
    fn = dispatch.get(kernel, np.float64)
    first, last = views if views is not None else (0, geom.num_views)
    if not 0 <= first < last <= geom.num_views:
        raise GeometryError(
            f"view range [{first}, {last}) outside [0, {geom.num_views})"
        )
    with span("build.sweep", projector=projector, views=last - first,
              backend="c" if fn is not None else "numpy"):
        if fn is None:
            parts = [view_fn(v) for v in range(first, last)]
        else:
            parts = []
            chunk = max(1, _CHUNK_BUFFER_BYTES
                        // max(1, capacity_per_view * _TRIPLET_BYTES))
            for v0 in range(first, last, chunk):
                v1 = min(v0 + chunk, last)
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
                parts.append((rows[:written].copy(), cols[:written].copy(),
                              vals[:written].astype(dtype)))
        if len(parts) == 1:
            rows, cols, vals = parts[0]
        else:
            rows, cols, vals = (np.concatenate(field) for field in zip(*parts))
    return rows, cols, vals.astype(dtype, copy=False)
