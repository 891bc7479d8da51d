"""Ablation: CSCV vs the paper's Algorithm 2 (vectorized CSC).

Section III's motivating comparison, end to end: Algorithm 2 pays a
gather and a scatter per nonzero; CSCV pays none.  Measure both on the
same matrix and report the permutation-instruction tax.
"""

import numpy as np
from conftest import emit

from repro.bench.harness import measure_format
from repro.core.format_m import CSCVMMatrix
from repro.core.format_z import CSCVZMatrix
from repro.core.params import CSCVParams
from repro.perfmodel import SKL, instruction_profile
from repro.sparse import CSCMatrix, CSCVecMatrix
from repro.utils.tables import Table


def test_ablation_algorithm2(benchmark, quick_matrix):
    coo, geom = quick_matrix
    params = CSCVParams(8, 16, 2)
    z = CSCVZMatrix.from_ct(coo, geom, params)
    fmts = {
        "csc (Alg. 1, scalar)": CSCMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals),
        "csc-vec (Alg. 2)": CSCVecMatrix.from_coo(
            coo.shape, coo.rows, coo.cols, coo.vals, s_vvec=8
        ),
        "cscv-z (Alg. 3)": z,
        "cscv-m (Alg. 3 + mask)": CSCVMMatrix(z.data),
    }
    t = Table(
        headers=["algorithm", "GFLOP/s", "gathers/nnz", "scatters/nnz"],
        fmt=".2f", title="ablation: CSC vectorization strategies",
    )
    x = np.ones(coo.shape[1], dtype=np.float32)
    ref = None
    for name, fmt in fmts.items():
        yv = fmt.spmv(x)
        ref = yv if ref is None else ref
        assert np.abs(yv - ref).max() / np.abs(ref).max() < 1e-5
        rec = measure_format(fmt, iterations=8, max_seconds=1.5)
        prof = instruction_profile(fmt, SKL) if fmt.name in (
            "csc", "cscv-z", "cscv-m") else None
        g = prof.gather_elems / coo.nnz if prof else 1.0
        s = prof.scatter_elems / coo.nnz if prof else 1.0
        t.add_row(name, rec.gflops, g, s)
    t.mark_extremes(1)
    emit(t.render())

    y = np.zeros(coo.shape[0], dtype=np.float32)
    benchmark(z.spmv_into, x, y)
