"""Table IV: best GFLOP/s per implementation (measured + modelled)."""

import numpy as np
from conftest import emit

from repro.bench.experiments import table4
from repro.core.format_m import CSCVMMatrix
from repro.core.format_z import CSCVZMatrix
from repro.core.params import PAPER_TABLE3


def test_table4_single_precision(benchmark, quick_matrix):
    coo, geom = quick_matrix
    z = CSCVZMatrix.from_ct(coo, geom, PAPER_TABLE3[("skl", "cscv-z", "single")])
    m = CSCVMMatrix(z.data)
    x = np.ones(coo.shape[1], dtype=np.float32)
    y = np.zeros(coo.shape[0], dtype=np.float32)
    benchmark(m.spmv_into, x, y)
    emit(table4.run(dtype=np.float32))
    s = table4.speedup_summary()
    emit(
        f"headline: CSCV best {s['cscv_best']:.2f} GF = {s['vs_mkl_csr']:.2f}x "
        f"MKL-CSR, {s['vs_second']:.2f}x second place ({s['second_name']}) "
        f"[paper: 1.89-3.70x MKL, 1.05-3.48x second]"
    )


def test_table4_double_precision(benchmark, quick_matrix):
    coo64, geom = quick_matrix
    coo = coo64.astype(np.float64)
    z = CSCVZMatrix.from_ct(coo, geom, PAPER_TABLE3[("skl", "cscv-z", "double")])
    m = CSCVMMatrix(z.data)
    x = np.ones(coo.shape[1], dtype=np.float64)
    y = np.zeros(coo.shape[0], dtype=np.float64)
    benchmark(m.spmv_into, x, y)
    emit(table4.run(dtype=np.float64, dataset_names=["clinical-small"]))
