"""Fan-beam forward projector (angular strip model).

The fan-beam analogue of the parallel strip projector: each pixel's
angular footprint ``[gamma - w, gamma + w]`` on the detector arc is split
over the equiangular bins it overlaps, weighted by the overlap fraction
times the nominal chord length through the pixel.  This keeps the same
column-band structure the parallel projector has (2-4 bins per pixel per
view), so the CSCV builder consumes the output unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import GeometryError
from repro.geometry.fan_beam import FanBeamGeometry


def fan_strip_view(
    geom: FanBeamGeometry, view: int, *, eps: float = 1e-12
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets contributed by one fan-beam view."""
    if not (0 <= view < geom.num_views):
        raise GeometryError(f"view {view} out of range [0, {geom.num_views})")
    X, Y = geom.pixel_centers()
    gamma = geom.fan_coordinate(X, Y, view)
    w = geom.pixel_footprint_halfangle(X, Y, view)

    f_lo = geom.gamma_to_bin(gamma - w)
    f_hi = geom.gamma_to_bin(gamma + w)
    first = np.floor(f_lo).astype(np.int64)
    span = int(np.ceil((f_hi - f_lo).max())) + 1

    cols = np.arange(geom.num_pixels, dtype=np.int64)
    chord = geom.pixel_size  # nominal path length through the pixel

    rows_parts, cols_parts, vals_parts = [], [], []
    width = np.maximum(f_hi - f_lo, eps)
    for k in range(span):
        b = first + k
        # overlap of [f_lo, f_hi] with bin [b, b+1], in bin units
        overlap = np.minimum(f_hi, b + 1) - np.maximum(f_lo, b)
        frac = np.clip(overlap, 0.0, None) / width
        vals = frac * chord
        keep = (vals > eps) & (b >= 0) & (b < geom.num_bins)
        if np.any(keep):
            rows_parts.append(geom.row_index(view, b[keep]))
            cols_parts.append(cols[keep])
            vals_parts.append(vals[keep])
    if not rows_parts:
        z = np.zeros(0, dtype=np.int64)
        return z, z.copy(), np.zeros(0)
    return (
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        np.concatenate(vals_parts),
    )


def fan_strip_matrix(
    geom: FanBeamGeometry, dtype=np.float64, *,
    views: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full fan-beam system matrix as COO triplets.

    Served by the compiled ``fan_strip_views`` kernel when available
    (:mod:`repro.geometry.sweep`), else by the per-view NumPy path.
    ``views=(v0, v1)`` traces only those views.
    """
    from repro.geometry.sweep import sweep_views

    # widest footprint: the pixel closest to the source (distance >=
    # source_radius - image circumradius, positive post-validation)
    halfdiag = geom.pixel_size * math.sqrt(2.0) / 2.0
    d_min = geom.source_radius - geom.image_size * geom.pixel_size * math.sqrt(2.0) / 2.0
    span_max = int(
        math.ceil(2.0 * math.atan2(halfdiag, d_min) / geom.bin_pitch_rad)
    ) + 2
    return sweep_views(
        geom,
        kernel="fan_strip_views",
        scalar_args=(
            geom.image_size, geom.num_bins, geom.delta_angle_deg,
            geom.start_angle_deg, geom.pixel_size, geom.source_radius,
            geom.fan_angle_deg,
        ),
        capacity_per_view=geom.num_pixels * span_max,
        view_fn=lambda v: fan_strip_view(geom, v),
        dtype=dtype,
        views=views,
        projector="fan",
    )


def fan_reference_bins(geom: FanBeamGeometry, ref_i: np.ndarray, ref_j: np.ndarray) -> np.ndarray:
    """Reference curves for IOBLR under fan-beam geometry.

    ``r[view, tile] = floor(gamma_to_bin(gamma_ref - w_ref))`` — the
    minimum bin the reference pixel touches, the exact fan analogue of the
    parallel case.  ``ref_i/ref_j`` are per-tile reference pixel indices.
    """
    half = (geom.image_size - 1) / 2.0
    x = (np.asarray(ref_j) - half) * geom.pixel_size
    y = (half - np.asarray(ref_i)) * geom.pixel_size
    out = np.empty((geom.num_views, x.size), dtype=np.int64)
    for v in range(geom.num_views):
        gamma = geom.fan_coordinate(x, y, v)
        w = geom.pixel_footprint_halfangle(x, y, v)
        out[v] = np.floor(geom.gamma_to_bin(gamma - w) + 1e-12).astype(np.int64)
    return out
