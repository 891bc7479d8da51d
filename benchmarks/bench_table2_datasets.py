"""Table II: the matrix datasets (paper rows vs scaled builds)."""

import numpy as np
from conftest import emit

from repro.bench.experiments import table2
from repro.sparse.csr import CSRMatrix


def test_table2_datasets(benchmark, quick_matrix):
    coo, geom = quick_matrix
    csr = CSRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals)
    x = np.ones(coo.shape[1], dtype=np.float32)
    y = np.zeros(coo.shape[0], dtype=np.float32)
    benchmark(csr.spmv_into, x, y)
    emit(table2.run())
