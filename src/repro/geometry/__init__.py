"""CT geometry substrate: parallel-beam geometry, projectors, phantoms.

This package generates the sparse system matrices "arising from integral
equations" that the paper's CSCV format targets.  The discretised Radon
transform ``y = A x`` maps an image ``x`` (piecewise-constant pixels) to a
sinogram ``y`` indexed by ``(view, bin)``.

Three projector discretisations are provided:

* :func:`repro.geometry.projector_pixel.pixel_driven_matrix` — pixel-driven
  with linear detector interpolation (2 bins per pixel per view),
* :func:`repro.geometry.projector_strip.strip_area_matrix` — strip-integral
  (area-weighted; 2-4 bins per pixel per view, the paper's nnz density),
* :func:`repro.geometry.projector_siddon.siddon_matrix` — ray-driven exact
  line/pixel intersection lengths (Siddon's algorithm).
"""

from repro.geometry.attenuated import attenuated_strip_matrix
from repro.geometry.fan_beam import FanBeamGeometry
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.geometry.projector_fan import fan_strip_matrix
from repro.geometry.phantom import shepp_logan, disk_phantom, blocks_phantom
from repro.geometry.projector_pixel import pixel_driven_matrix
from repro.geometry.projector_siddon import siddon_matrix
from repro.geometry.projector_strip import strip_area_matrix
from repro.geometry.trajectory import (
    pixel_trajectory,
    reference_trajectory,
    trajectory_band,
)

#: Parallel-beam projectors by name: ``fn(geom, dtype=, views=)`` traces
#: views ``[v0, v1)`` (default: all) serially and returns their COO
#: triplets; builds run it once per view group (:mod:`repro.core.builder`).
PROJECTORS = {
    "strip": strip_area_matrix,
    "pixel": pixel_driven_matrix,
    "siddon": siddon_matrix,
}

__all__ = [
    "PROJECTORS",
    "ParallelBeamGeometry",
    "FanBeamGeometry",
    "fan_strip_matrix",
    "attenuated_strip_matrix",
    "shepp_logan",
    "disk_phantom",
    "blocks_phantom",
    "pixel_driven_matrix",
    "strip_area_matrix",
    "siddon_matrix",
    "pixel_trajectory",
    "reference_trajectory",
    "trajectory_band",
]
