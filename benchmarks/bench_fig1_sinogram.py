"""Fig 1: forward projection and sinogram."""

import numpy as np
from conftest import emit

from repro.api import build_ct_matrix
from repro.bench.experiments import fig1
from repro.geometry.phantom import shepp_logan
from repro.sparse.csr import CSRMatrix


def test_fig1_sinogram(benchmark):
    coo, geom = build_ct_matrix(64, num_views=60)
    csr = CSRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals)
    x = shepp_logan(64).ravel()
    y = np.zeros(coo.shape[0])
    benchmark(csr.spmv_into, x, y)  # the forward projection itself
    emit(fig1.run())
