"""Fig 10: scalability in GFLOP/s (model curves + measured 1T anchor)."""

import numpy as np
from conftest import emit

from repro.bench.experiments import fig10
from repro.core.format_m import CSCVMMatrix
from repro.core.format_z import CSCVZMatrix
from repro.core.params import PAPER_TABLE3


def test_fig10_scalability_single(benchmark, quick_matrix):
    coo, geom = quick_matrix
    z = CSCVZMatrix.from_ct(coo, geom, PAPER_TABLE3[("skl", "cscv-z", "single")])
    m = CSCVMMatrix(z.data)
    x = np.ones(coo.shape[1], dtype=np.float32)
    y = np.zeros(coo.shape[0], dtype=np.float32)
    benchmark(m.spmv_into, x, y)
    emit(fig10.run(dtype=np.float32))


def test_fig10_scalability_double(benchmark, quick_matrix):
    coo, geom = quick_matrix
    coo = coo.astype(np.float64)
    z = CSCVZMatrix.from_ct(coo, geom, PAPER_TABLE3[("skl", "cscv-z", "double")])
    x = np.ones(coo.shape[1], dtype=np.float64)
    y = np.zeros(coo.shape[0], dtype=np.float64)
    benchmark(z.spmv_into, x, y)
    emit(fig10.run(dtype=np.float64, measure_host=False))
