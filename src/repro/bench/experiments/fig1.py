"""Fig 1 — forward projection of an image and its sinogram.

Forward-projects the Shepp-Logan phantom through the real system matrix
and renders the sinogram as an ASCII heatmap (views x bins), plus one
view's profile — the data behind the paper's illustration.
"""

from __future__ import annotations

import numpy as np

from repro.api import build_ct_matrix
from repro.geometry.phantom import shepp_logan
from repro.sparse.csr import CSRMatrix
from repro.utils.tables import render_grid


def run(image_size: int = 64, num_views: int = 60, max_cells: int = 24) -> str:
    """Generate the sinogram and render a downsampled heatmap."""
    coo, geom = build_ct_matrix(image_size, num_views=num_views)
    x = shepp_logan(image_size).ravel()
    y = CSRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals).spmv(x)
    sino = y.reshape(geom.num_views, geom.num_bins)

    # downsample for terminal rendering
    vstep = max(1, geom.num_views // max_cells)
    bstep = max(1, geom.num_bins // max_cells)
    small = sino[::vstep, ::bstep]
    grid = render_grid(
        small,
        row_labels=[f"v{v}" for v in range(0, geom.num_views, vstep)],
        col_labels=[f"b{b}" for b in range(0, geom.num_bins, bstep)],
        title="Fig 1b: sinogram (views x bins), downsampled",
        fmt=".0f",
        heat=True,
    )
    mid = sino[geom.num_views // 2]
    profile = "Fig 1a: central view profile: " + " ".join(
        f"{v:.0f}" for v in mid[:: max(1, geom.num_bins // 16)]
    )
    stats = (
        f"sinogram range [{sino.min():.2f}, {sino.max():.2f}], "
        f"nnz rays {np.count_nonzero(y)}/{y.size}"
    )
    return "\n".join([grid, profile, stats])
