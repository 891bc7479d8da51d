"""CSCV beyond parallel-beam CT: fan-beam and attenuated (SPECT) operators.

Run:  python examples/other_geometries.py [image_size]

The paper's conclusion promises CSCV "for matrices from CT imaging
reconstruction with different geometries and other applications like
SPECT and PET".  This example demonstrates both extensions working today:

* an equiangular **fan-beam** scan (source rotating around the object),
* the **attenuated Radon transform** (uniform-attenuation SPECT model),

each converted to CSCV with the *same* IOBLR machinery, verified against
CSR, and benchmarked — padding and speed land in the same band as the
parallel-beam case because the trajectories remain piecewise parallel.
"""

import sys

import numpy as np

from repro.bench.harness import measure_format
from repro.core.format_m import CSCVMMatrix
from repro.core.format_z import CSCVZMatrix
from repro.core.params import CSCVParams
from repro.geometry.attenuated import attenuated_strip_matrix, attenuation_factor_range
from repro.geometry.fan_beam import FanBeamGeometry
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.geometry.projector_fan import fan_strip_matrix
from repro.geometry.projector_strip import strip_area_matrix
from repro.sparse import COOMatrix, CSRMatrix
from repro.utils.tables import Table


def main(image_size: int = 48) -> None:
    par = ParallelBeamGeometry.for_image(image_size, num_views=2 * image_size)
    fan = FanBeamGeometry.for_image(image_size, num_views=2 * image_size)
    mu = 0.03
    cases = [
        ("parallel beam (CT)", par, strip_area_matrix(par, dtype=np.float32)),
        ("fan beam (CT)", fan, fan_strip_matrix(fan, dtype=np.float32)),
        ("attenuated (SPECT)", par,
         attenuated_strip_matrix(par, mu=mu, dtype=np.float32)),
    ]
    lo, _ = attenuation_factor_range(par, mu)
    print(f"SPECT attenuation: deepest pixel keeps {lo:.2f} of its signal (mu={mu})\n")

    params = CSCVParams(s_vvec=8, s_imgb=8, s_vxg=2)
    table = Table(
        headers=["operator", "nnz", "R_nnzE", "Z GF", "M GF", "rel err"],
        fmt=".3f", title=f"CSCV across imaging operators ({params})",
    )
    for name, geom, (rows, cols, vals) in cases:
        coo = COOMatrix.from_coo(geom.shape, rows, cols, vals, dtype=np.float32)
        x = np.linspace(0.5, 1.5, coo.shape[1]).astype(np.float32)
        ref = CSRMatrix.from_coo_matrix(coo).spmv(x)
        z = CSCVZMatrix.from_ct(coo, geom, params)
        m = CSCVMMatrix(z.data)
        err = float(np.abs(z.spmv(x) - ref).max() / np.abs(ref).max())
        gz = measure_format(z, iterations=15, max_seconds=1.0).gflops
        gm = measure_format(m, iterations=15, max_seconds=1.0).gflops
        table.add_row(name, coo.nnz, z.r_nnze, gz, gm, f"{err:.1e}")
    print(table.render())
    print(
        "\nsame padding band and speed across all three operators: the\n"
        "trajectories stay piecewise parallel, so IOBLR carries over — the\n"
        "paper's generality claim, demonstrated."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 48)
