"""Ablation: CSCV across imaging geometries / operators.

The paper claims IOBLR works for any line-integral imaging operator.
Build CSCV on (a) parallel beam, (b) fan beam, (c) the attenuated
(SPECT) operator, and show padding stays in the same band and SpMV
stays correct and fast.
"""

import numpy as np
from conftest import emit

from repro.bench.harness import measure_format
from repro.core.format_z import CSCVZMatrix
from repro.core.params import CSCVParams
from repro.geometry.attenuated import attenuated_strip_matrix
from repro.geometry.fan_beam import FanBeamGeometry
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.geometry.projector_fan import fan_strip_matrix
from repro.geometry.projector_strip import strip_area_matrix
from repro.sparse import COOMatrix, CSRMatrix
from repro.utils.tables import Table


def _cases():
    pg = ParallelBeamGeometry.for_image(48, num_views=96)
    fg = FanBeamGeometry.for_image(48, num_views=96)
    return [
        ("parallel", pg, strip_area_matrix(pg, dtype=np.float32)),
        ("fan-beam", fg, fan_strip_matrix(fg, dtype=np.float32)),
        ("attenuated (SPECT)", pg, attenuated_strip_matrix(pg, mu=0.03, dtype=np.float32)),
    ]


def test_ablation_geometry(benchmark):
    params = CSCVParams(8, 8, 2)
    t = Table(headers=["operator", "nnz", "R_nnzE", "GFLOP/s", "max rel err"],
              fmt=".3f", title="ablation: imaging operator")
    bench_target = None
    for name, geom, (rows, cols, vals) in _cases():
        coo = COOMatrix.from_coo(geom.shape, rows, cols, vals, dtype=np.float32)
        x = np.linspace(0.5, 1.5, coo.shape[1]).astype(np.float32)
        ref = CSRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals).spmv(x)
        z = CSCVZMatrix.from_ct(coo, geom, params)
        err = float(np.abs(z.spmv(x) - ref).max() / np.abs(ref).max())
        rec = measure_format(z, iterations=10, max_seconds=1.0)
        t.add_row(name, coo.nnz, z.r_nnze, rec.gflops, f"{err:.1e}")
        assert err < 5e-6
        if bench_target is None:
            bench_target = (z, x)
    emit(t.render())

    z, x = bench_target
    y = np.zeros(z.shape[0], dtype=np.float32)
    benchmark(z.spmv_into, x, y)
