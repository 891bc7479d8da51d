"""Fig 11: memory requirements, performance, bandwidth usage per impl."""

import numpy as np
from conftest import emit

from repro.bench.experiments import fig11
from repro.core.format_m import CSCVMMatrix
from repro.core.format_z import CSCVZMatrix
from repro.core.params import PAPER_TABLE3


def test_fig11_memory_bandwidth(benchmark, mid_matrix):
    coo, geom = mid_matrix
    z = CSCVZMatrix.from_ct(coo, geom, PAPER_TABLE3[("skl", "cscv-z", "single")])
    m = CSCVMMatrix(z.data)
    x = np.ones(coo.shape[1], dtype=np.float32)
    y = np.zeros(coo.shape[0], dtype=np.float32)
    benchmark(m.spmv_into, x, y)
    emit(fig11.run())
