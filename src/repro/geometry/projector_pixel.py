"""Pixel-driven forward projector with linear detector interpolation.

For every pixel and view, the pixel centre is projected onto the detector
axis and its contribution (approximated as ``pixel_size`` of ray path) is
linearly split between the two nearest bins.  This is the classical
"pixel-driven" discretisation; each matrix column holds exactly
``<= 2 * num_views`` nonzeros, which makes the column-band structure CSCV
exploits particularly easy to see.

The builder is fully vectorised over pixels and loops only over views.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import GeometryError
from repro.geometry.parallel_beam import ParallelBeamGeometry


def pixel_driven_view(
    geom: ParallelBeamGeometry, view: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets ``(rows, cols, vals)`` contributed by one view.

    Entries whose target bin falls outside the detector are dropped.
    """
    if not (0 <= view < geom.num_views):
        raise GeometryError(f"view {view} out of range [0, {geom.num_views})")
    X, Y = geom.pixel_centers()
    s = geom.detector_coordinate(X, Y, view)
    # fractional bin-centre coordinate: pixel lands between bins b0 and b0+1
    f = np.asarray(geom.s_to_bin(s)) - 0.5
    b0 = np.floor(f).astype(np.int64)
    w1 = f - b0
    w0 = 1.0 - w1

    cols = np.arange(geom.num_pixels, dtype=np.int64)
    length = geom.pixel_size  # nominal ray path through a pixel

    all_rows = []
    all_cols = []
    all_vals = []
    for b, w in ((b0, w0), (b0 + 1, w1)):
        keep = (b >= 0) & (b < geom.num_bins) & (w > 0)
        all_rows.append(geom.row_index(view, b[keep]))
        all_cols.append(cols[keep])
        all_vals.append(w[keep] * length)
    return (
        np.concatenate(all_rows),
        np.concatenate(all_cols),
        np.concatenate(all_vals),
    )


def pixel_driven_matrix(
    geom: ParallelBeamGeometry, dtype=np.float64, *,
    views: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full system matrix as COO triplets ``(rows, cols, vals)``.

    The sweep runs on the compiled ``pixel_footprint_views`` kernel
    when available (see :mod:`repro.geometry.sweep`), falling back to
    the per-view NumPy path; both emit the same matrix.
    ``views=(v0, v1)`` traces only those views.

    Returns
    -------
    rows, cols : int64 arrays
        Sinogram row (``view * num_bins + bin``) and pixel column ids.
    vals : array of *dtype*
        Interpolation-weighted path lengths.
    """
    from repro.geometry.sweep import sweep_views

    return sweep_views(
        geom,
        kernel="pixel_footprint_views",
        scalar_args=(
            geom.image_size, geom.num_bins, geom.delta_angle_deg,
            geom.start_angle_deg, geom.pixel_size, geom.bin_spacing,
        ),
        capacity_per_view=2 * geom.num_pixels,
        view_fn=lambda v: pixel_driven_view(geom, v),
        dtype=dtype,
        views=views,
        projector="pixel",
    )


def pixel_bin_support(geom: ParallelBeamGeometry, view: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel ``(first_bin, last_bin)`` touched at *view* (clipped).

    Cheap trajectory helper used by :mod:`repro.geometry.trajectory`; a
    pixel driven by linear interpolation touches bins ``b0`` and ``b0+1``.
    """
    X, Y = geom.pixel_centers()
    s = geom.detector_coordinate(X, Y, view)
    f = np.asarray(geom.s_to_bin(s)) - 0.5
    b0 = np.floor(f).astype(np.int64)
    lo = np.clip(b0, 0, geom.num_bins - 1)
    hi = np.clip(b0 + 1, 0, geom.num_bins - 1)
    return lo, hi


def theoretical_nnz(geom: ParallelBeamGeometry) -> int:
    """Upper bound on nnz: two bins per pixel per view."""
    return 2 * geom.num_pixels * geom.num_views
