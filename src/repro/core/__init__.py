"""CSCV — the paper's contribution.

Compressed Sparse Column Vector: a CSC-style format whose nonzeros are
packed into fixed-length dense vectors (CSCVEs) aligned with the
trajectories of the CT integral operator (IOBLR), grouped into VxGs, and
executed by a fully vectorised SpMV with only a local, per-block
permutation of ``y``.

Modules
-------
``params``    parameter triple (S_VVec, S_ImgB, S_VxG) and validation
``blocks``    image-block x view-group matrix blocking
``ioblr``     Integral Operator Based Local Reordering (reference curves)
``cscve``     CSCVE extraction and zero-padding accounting
``vxg``       Vectorized eXecution Group packing
``builder``   end-to-end conversion COO + geometry -> CSCV arrays
``format_z``  the CSCV class body both variants share, and CSCV-Z
              (padding kept)
``format_m``  CSCV-M (padding masked out, soft-vexpand)
``spmv``      the one product dispatcher: forward and x = A^T y adjoint
              (back-projection, paper future work), SpMV and SpMM
``autotune``  section V-D parameter selection
``io``        serialization (.npz archives + mmap-able cache directories)
``cache``     persistent content-addressed operator cache
"""

from repro.core.autotune import AutotuneResult, autotune_parameters, parameter_sweep
from repro.core.blocks import BlockGrid, MatrixBlock
from repro.core.builder import build_cscv
from repro.core.cache import OperatorCache, default_cache, operator_key
from repro.core.format_m import CSCVMMatrix
from repro.core.format_z import CSCVZMatrix
from repro.core.ioblr import IOBLRMapping, build_ioblr_mapping, layout_simd_efficiency
from repro.core.params import CSCVParams

__all__ = [
    "CSCVParams",
    "BlockGrid",
    "MatrixBlock",
    "IOBLRMapping",
    "build_ioblr_mapping",
    "layout_simd_efficiency",
    "build_cscv",
    "CSCVZMatrix",
    "CSCVMMatrix",
    "autotune_parameters",
    "parameter_sweep",
    "AutotuneResult",
    "OperatorCache",
    "default_cache",
    "operator_key",
]
