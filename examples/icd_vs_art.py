"""Why CSC-style access matters: ICD (column-action) vs ART (row-action).

Run:  python examples/icd_vs_art.py [image_size]

Section III of the paper: CSR serves ART-type solvers well but "is
inefficient in ICD algorithms", because ICD updates one pixel (= one
matrix *column*) at a time.  This example runs both solver families on
the same problem, shows their convergence, and measures the raw access
cost ICD pays under a CSR layout (a transposed temporary) versus the
native CSC/CSCV column access — the asymmetry that gives CSC-style
formats, and hence CSCV, "a wider application range".
"""

import sys
import time

import numpy as np

from repro import build_ct_matrix, reconstruct
from repro.geometry.phantom import shepp_logan
from repro.recon import ProjectionOperator, relative_error
from repro.sparse import CSCMatrix, CSRMatrix


def column_gather_csr(csr: CSRMatrix, j: int) -> np.ndarray:
    """What ICD must do under CSR: scan *every row* for column j."""
    hits = csr.col_idx == j
    return csr.vals[hits]


def column_gather_csc(csc: CSCMatrix, j: int) -> np.ndarray:
    """Native CSC column access: one contiguous slice."""
    a, b = int(csc.col_ptr[j]), int(csc.col_ptr[j + 1])
    return csc.vals[a:b]


def main(image_size: int = 48) -> None:
    coo, geom = build_ct_matrix(image_size, num_views=2 * image_size)
    truth = shepp_logan(image_size).ravel()
    csr = CSRMatrix.from_coo_matrix(coo)
    csc = CSCMatrix.from_coo_matrix(coo)
    op = ProjectionOperator(csr)
    sino = op.forward(truth)

    print("convergence (relative error to ground truth):")
    t0 = time.perf_counter()
    x_art = reconstruct(op, sino, solver="art", iterations=30, relax=0.8).image
    t_art = time.perf_counter() - t0
    t0 = time.perf_counter()
    x_icd = reconstruct(ProjectionOperator(csc), sino, solver="icd",
                        iterations=6).image
    t_icd = time.perf_counter() - t0
    print(f"  ART x30 sweeps: {relative_error(x_art, truth):.4f}  ({t_art:.2f}s)")
    print(f"  ICD x6 sweeps : {relative_error(x_icd, truth):.4f}  ({t_icd:.2f}s)")

    # the access-pattern asymmetry, measured directly
    cols = np.linspace(0, coo.shape[1] - 1, 32, dtype=int)
    t0 = time.perf_counter()
    for j in cols:
        column_gather_csr(csr, int(j))
    t_csr = time.perf_counter() - t0
    t0 = time.perf_counter()
    for j in cols:
        column_gather_csc(csc, int(j))
    t_csc = time.perf_counter() - t0
    print(
        f"\ncolumn access cost for ICD ({len(cols)} columns): "
        f"CSR scan {t_csr * 1e3:.2f} ms vs CSC slice {t_csc * 1e3:.3f} ms "
        f"({t_csr / max(t_csc, 1e-9):.0f}x)"
    )
    print(
        "CSC-style layouts (and CSCV) serve both SpMV and ICD from one "
        "structure; CSR would need a transposed copy."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 48)
