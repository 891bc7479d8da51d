"""Fig 8 — R_nnzE and memory requirements over the parameter space.

Reproduces the paper's parameter-sensitivity grids on the
parameter-selection matrix: for each ``(S_VVec, S_ImgB)`` cell (one grid
per ``S_VxG``), the zero-padding rate and the per-iteration memory
requirement of CSCV-Z and CSCV-M.  The trends the paper calls out and the
tests assert: R_nnzE grows with every parameter; CSCV-M's memory relative
to CSCV-Z falls as S_VVec and S_VxG grow.  The paper finds CSCV-M needs
significantly less memory than CSCV-Z everywhere; here CSCV-M streams a
uint32 mask per VxG slot and an int64 offset per VxG, so it undercuts
CSCV-Z only where the padding it drops outweighs them.
"""

from __future__ import annotations

import numpy as np

from repro.bench.datasets import PARAMETER_DATASET, get_dataset
from repro.core.autotune import parameter_sweep
from repro.utils.tables import render_grid


def sweep(
    dataset: str = PARAMETER_DATASET,
    *,
    dtype=np.float32,
    s_vvec_grid=(4, 8, 16),
    s_imgb_grid=(8, 16, 32),
    s_vxg_grid=(1, 2, 4),
):
    """Run the structural sweep (no timing) and return the points."""
    coo, geom = get_dataset(dataset).load(dtype=dtype)
    return parameter_sweep(
        coo,
        geom,
        dtype=dtype,
        s_vvec_grid=s_vvec_grid,
        s_imgb_grid=s_imgb_grid,
        s_vxg_grid=s_vxg_grid,
        measure=False,
    )


def run(dataset: str = PARAMETER_DATASET, dtype=np.float32) -> str:
    """Render the R_nnzE and memory grids per S_VxG."""
    points = sweep(dataset, dtype=dtype)
    vvecs = sorted({p.params.s_vvec for p in points})
    imgbs = sorted({p.params.s_imgb for p in points})
    vxgs = sorted({p.params.s_vxg for p in points})

    def grid(metric, s_vxg):
        g = np.full((len(vvecs), len(imgbs)), np.nan)
        for p in points:
            if p.params.s_vxg != s_vxg:
                continue
            i = vvecs.index(p.params.s_vvec)
            j = imgbs.index(p.params.s_imgb)
            g[i, j] = metric(p)
        return g

    sections = []
    for s_vxg in vxgs:
        sections.append(
            render_grid(
                grid(lambda p: p.r_nnze, s_vxg),
                row_labels=[f"VVec={v}" for v in vvecs],
                col_labels=[f"ImgB={b}" for b in imgbs],
                title=f"Fig 8 R_nnzE, S_VxG={s_vxg} (paper: rises with all three params)",
                fmt=".3f",
                heat=True,
            )
        )
        sections.append(
            render_grid(
                grid(lambda p: p.memory_z / 2**20, s_vxg),
                row_labels=[f"VVec={v}" for v in vvecs],
                col_labels=[f"ImgB={b}" for b in imgbs],
                title=f"Fig 8 memory CSCV-Z (MiB), S_VxG={s_vxg}",
                fmt=".1f",
                heat=True,
            )
        )
        sections.append(
            render_grid(
                grid(lambda p: p.memory_m / 2**20, s_vxg),
                row_labels=[f"VVec={v}" for v in vvecs],
                col_labels=[f"ImgB={b}" for b in imgbs],
                title=f"Fig 8 memory CSCV-M (MiB), S_VxG={s_vxg} "
                      "(paper: much flatter than Z)",
                fmt=".1f",
                heat=True,
            )
        )
    return "\n\n".join(sections)
