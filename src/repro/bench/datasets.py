"""Scaled CT matrix datasets mirroring the paper's Table II.

The paper's four matrices (512/768/1024/2048 images, up to 1.75e9 nnz)
exceed a single-core container; these datasets keep every *geometric*
property that CSCV exploits — fine angular steps, detector covering the
image diagonal, the same nnz density per (pixel, view), and the
limited-angle setup of the largest case — at sizes that build in seconds.
Benches print the paper's original rows next to ours so the
correspondence is explicit.  Each load traces the matrix afresh, which
is faster than reading it back from disk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import build_ct_matrix
from repro.errors import ValidationError
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.sparse.coo import COOMatrix


@dataclass(frozen=True)
class PaperRow:
    """One row of the paper's Table II (for side-by-side reporting)."""

    img: str
    num_bin: int
    num_view: int
    delta_angle: str
    nnz: int
    x_size: int
    y_size: int


@dataclass(frozen=True)
class Dataset:
    """A scaled stand-in for one Table II matrix."""

    name: str
    image_size: int
    num_views: int
    angular_span_deg: float
    paper: PaperRow

    def geometry(self) -> ParallelBeamGeometry:
        return ParallelBeamGeometry.for_image(
            self.image_size, self.num_views, angular_span_deg=self.angular_span_deg
        )

    def load(self, dtype=np.float32) -> tuple[COOMatrix, ParallelBeamGeometry]:
        """Build the canonical (row-major sorted, deduplicated) system matrix."""
        geom = self.geometry()
        return build_ct_matrix(geom.image_size, geom=geom, dtype=dtype)

    def describe(self) -> dict:
        geom = self.geometry()
        d = geom.describe()
        d["name"] = self.name
        return d


#: The four datasets, in the paper's Table II order.  The largest mirrors
#: the paper's limited-angle 2048 case (small angular span, few views).
DATASETS: dict[str, Dataset] = {
    "clinical-small": Dataset(
        name="clinical-small",
        image_size=64,
        num_views=128,
        angular_span_deg=180.0,
        paper=PaperRow("512 x 512", 730, 240, "0.75", 166_148_730, 262_144, 175_200),
    ),
    "clinical-mid": Dataset(
        name="clinical-mid",
        image_size=96,
        num_views=192,
        angular_span_deg=180.0,
        paper=PaperRow("768 x 768", 1096, 480, "0.375", 747_032_208, 589_824, 526_080),
    ),
    "mixed-large": Dataset(
        name="mixed-large",
        image_size=128,
        num_views=256,
        angular_span_deg=180.0,
        paper=PaperRow("1024 x 1024", 1460, 480, "0.375", 1_328_114_108, 1_048_576, 700_800),
    ),
    "micro-limited": Dataset(
        name="micro-limited",
        image_size=160,
        num_views=48,
        angular_span_deg=30.0,
        paper=PaperRow("2048 x 2048", 2920, 160, "0.1875", 1_750_179_564, 4_194_304, 467_200),
    ),
}

#: The matrix the paper uses for parameter selection (Section V-D's
#: "single-precision matrix to reconstruct images of 1024 x 1024").
PARAMETER_DATASET = "mixed-large"

#: Quick dataset for smoke benches and CI.
QUICK_DATASET = "clinical-small"


def get_dataset(name: str) -> Dataset:
    """Lookup a dataset by name."""
    try:
        return DATASETS[name]
    except KeyError:
        raise ValidationError(
            f"unknown dataset {name!r}; options: {sorted(DATASETS)}"
        ) from None
