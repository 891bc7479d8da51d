"""Multi-slice (2.5-D) reconstruction: one matrix, many slices.

Run:  python examples/volume_reconstruction.py [image_size] [num_slices]

Clinical CT reconstructs a *volume* slice by slice with one shared system
matrix — the workload where CSCV's one-off conversion cost amortises
fastest and where the multi-RHS product (SpMM) earns its keep.  This
example builds a synthetic volume (Shepp-Logan morphing into disks),
projects every slice with one SpMM, adds Poisson noise at a clinical
dose, reconstructs each slice with damped CGLS through the CSCV operator
and reports per-slice quality and total throughput.
"""

import sys
import time

import numpy as np

from repro import CSCVParams, CSCVZMatrix, build_ct_matrix, reconstruct
from repro.geometry.phantom import disk_phantom, shepp_logan
from repro.recon import ProjectionOperator, relative_error
from repro.recon.noise import add_poisson_noise


def synthetic_volume(n: int, slices: int) -> np.ndarray:
    """(slices, n*n) stack morphing from Shepp-Logan to a disk."""
    a = shepp_logan(n).ravel()
    b = disk_phantom(n, radius_frac=0.45).ravel()
    ts = np.linspace(0.0, 1.0, slices)
    return np.stack([(1 - t) * a + t * b for t in ts])


def main(image_size: int = 48, num_slices: int = 8) -> None:
    coo, geom = build_ct_matrix(image_size, num_views=2 * image_size)
    volume = synthetic_volume(image_size, num_slices)

    t0 = time.perf_counter()
    A = CSCVZMatrix.from_ct(coo, geom, CSCVParams(8, 16, 2))
    t_convert = time.perf_counter() - t0
    op = ProjectionOperator(A)
    print(f"matrix {coo.shape}, nnz {coo.nnz:,}; CSCV conversion {t_convert:.2f}s "
          f"(shared across {num_slices} slices)")

    # forward-project the whole volume in one SpMM call
    t0 = time.perf_counter()
    sinograms = A.spmm(volume.T)  # (num_rays, slices)
    t_fp = time.perf_counter() - t0
    print(f"forward projection of {num_slices} slices (SpMM): {t_fp * 1e3:.1f} ms")

    errs = []
    t0 = time.perf_counter()
    for s in range(num_slices):
        noisy = add_poisson_noise(sinograms[:, s], i0=1e5, seed=s)
        x = reconstruct(op, noisy.astype(A.dtype), solver="cgls", iterations=20,
                        damping=0.1).image
        errs.append(relative_error(x, volume[s]))
    t_recon = time.perf_counter() - t0

    print(f"reconstructed {num_slices} slices in {t_recon:.2f}s "
          f"({num_slices / t_recon:.2f} slices/s)")
    print("per-slice relative error:",
          " ".join(f"{e:.3f}" for e in errs))
    print(f"conversion amortised over {num_slices} slices: "
          f"{t_convert / num_slices * 1e3:.1f} ms each")


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 48
    slices = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    main(size, slices)
