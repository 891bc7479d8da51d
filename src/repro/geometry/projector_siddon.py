"""Ray-driven projector: exact line/pixel intersection lengths (Siddon).

For every ``(view, bin)`` the central ray of the bin is traced through the
pixel grid and the exact intersection length with each crossed pixel is
recorded (Siddon, *Med. Phys.* 1985).  Rows of the resulting matrix are
built ray by ray, so this projector is the natural generator for
*row-major* (CSR-friendly) construction, complementing the column-major
pixel/strip projectors.

This implementation favours clarity over speed (it loops over rays); the
library uses it for small validation matrices and cross-checking the
vectorised projectors, exactly the role exact ray tracing plays in CT
codes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import GeometryError, ValidationError
from repro.geometry.parallel_beam import ParallelBeamGeometry

#: Above this pixel count the per-ray NumPy tracer is impractically slow;
#: the compiled ``siddon_trace_views`` kernel has no such limit.
_NUMPY_PIXEL_CAP = 1 << 20


def _trace_ray(
    geom: ParallelBeamGeometry, theta: float, s: float
) -> tuple[np.ndarray, np.ndarray]:
    """Intersection of the ray ``x cos + y sin = s`` with the pixel grid.

    Returns ``(pixel_ids, lengths)``.  The ray direction is
    ``(-sin(theta), cos(theta))``; the grid spans
    ``[-n*ps/2, n*ps/2]`` in both axes.
    """
    n = geom.image_size
    ps = geom.pixel_size
    half = n * ps / 2.0
    ct, st = math.cos(theta), math.sin(theta)
    # Ray origin: closest point to the rotation centre; direction unit.
    ox, oy = s * ct, s * st
    dx, dy = -st, ct

    # Parametric entry/exit of the grid bounding box.
    t_lo, t_hi = -np.inf, np.inf
    for o, d in ((ox, dx), (oy, dy)):
        if abs(d) < 1e-15:
            if not (-half <= o <= half):
                return np.zeros(0, dtype=np.int64), np.zeros(0)
        else:
            t0 = (-half - o) / d
            t1 = (half - o) / d
            if t0 > t1:
                t0, t1 = t1, t0
            t_lo = max(t_lo, t0)
            t_hi = min(t_hi, t1)
    if t_hi <= t_lo:
        return np.zeros(0, dtype=np.int64), np.zeros(0)

    # Crossing parameters with vertical (x = const) and horizontal grid lines.
    ts = [t_lo, t_hi]
    if abs(dx) > 1e-15:
        k = np.arange(n + 1)
        tx = ((-half + k * ps) - ox) / dx
        ts.extend(tx[(tx > t_lo) & (tx < t_hi)].tolist())
    if abs(dy) > 1e-15:
        k = np.arange(n + 1)
        ty = ((-half + k * ps) - oy) / dy
        ts.extend(ty[(ty > t_lo) & (ty < t_hi)].tolist())
    t = np.unique(np.asarray(ts, dtype=np.float64))
    if t.size < 2:
        return np.zeros(0, dtype=np.int64), np.zeros(0)

    mid = (t[:-1] + t[1:]) / 2.0
    seg = np.diff(t)
    mx = ox + mid * dx
    my = oy + mid * dy
    j = np.floor((mx + half) / ps).astype(np.int64)
    i_from_bottom = np.floor((my + half) / ps).astype(np.int64)
    i = (n - 1) - i_from_bottom  # image rows count from the top
    keep = (j >= 0) & (j < n) & (i >= 0) & (i < n) & (seg > 1e-12)
    pix = i[keep] * n + j[keep]
    lengths = seg[keep]
    # merge duplicate pixels (possible at exact corner crossings)
    if pix.size:
        order = np.argsort(pix, kind="stable")
        pix = pix[order]
        lengths = lengths[order]
        uniq, start = np.unique(pix, return_index=True)
        sums = np.add.reduceat(lengths, start)
        return uniq, sums
    return pix, lengths


def siddon_view(
    geom: ParallelBeamGeometry, view: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets contributed by one view (per-ray NumPy tracer)."""
    if not (0 <= view < geom.num_views):
        raise GeometryError(f"view {view} out of range [0, {geom.num_views})")
    theta = float(geom.view_angles()[view])
    rows_parts, cols_parts, vals_parts = [], [], []
    for b in range(geom.num_bins):
        s = (b + 0.5 - geom.num_bins / 2.0) * geom.bin_spacing
        pix, lengths = _trace_ray(geom, theta, s)
        if pix.size:
            rows_parts.append(
                np.full(pix.size, geom.row_index(view, b), dtype=np.int64)
            )
            cols_parts.append(pix)
            vals_parts.append(lengths)
    if not rows_parts:
        z = np.zeros(0, dtype=np.int64)
        return z, z.copy(), np.zeros(0)
    return (
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        np.concatenate(vals_parts),
    )


def siddon_matrix(
    geom: ParallelBeamGeometry, dtype=np.float64, *,
    views: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full Siddon system matrix as COO triplets ``(rows, cols, vals)``.

    Rays pass through bin centres.  With the compiled backend the sweep
    runs on ``siddon_trace_views`` at any image size; the per-ray NumPy
    tracer serves smaller geometries only.
    ``views=(v0, v1)`` traces only those views.
    """
    if geom.num_pixels > _NUMPY_PIXEL_CAP:
        from repro.kernels import dispatch

        if dispatch.get("siddon_trace_views", np.float64) is None:
            raise ValidationError(
                "siddon above 1024x1024 needs the compiled ray tracer "
                "(the per-ray NumPy fallback is a validation-scale path); "
                "enable it with REPRO_BACKEND=auto or c and a working C "
                "compiler, or use the strip/pixel projectors"
            )
    from repro.geometry.sweep import sweep_views

    # per-ray bound: <= 2n + 2 crossings -> <= 2n + 3 segments
    cap = geom.num_bins * (2 * geom.image_size + 3)
    return sweep_views(
        geom,
        kernel="siddon_trace_views",
        scalar_args=(
            geom.image_size, geom.num_bins, geom.delta_angle_deg,
            geom.start_angle_deg, geom.pixel_size, geom.bin_spacing,
        ),
        capacity_per_view=cap,
        view_fn=lambda v: siddon_view(geom, v),
        dtype=dtype,
        views=views,
        projector="siddon",
    )
