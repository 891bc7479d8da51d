"""repro — reproduction of the CSCV vectorized SpMV system (IPDPS 2022).

Public API highlights
---------------------
- :class:`repro.geometry.ParallelBeamGeometry` and the projectors build CT
  system matrices from integral operators.
- :mod:`repro.sparse` provides CSR/CSC/ELL/CSR5/SPC5/ESB/CVR/VHCC/Merge
  and scipy-backed vendor baselines, all behind one
  :class:`~repro.sparse.SpMVFormat` interface.
- :mod:`repro.core` implements the paper's contribution: the CSCV format
  (CSCV-Z / CSCV-M), IOBLR local reordering, VxG packing, the
  forward/adjoint product dispatcher and the parameter autotuner.
- :mod:`repro.recon` applies it all to iterative CT reconstruction
  (ART, SIRT, CGLS, ICD) with FBP and image metrics.
- :mod:`repro.perfmodel` models GFLOP/s on the paper's SKL/Zen2 machines.
- :mod:`repro.bench` regenerates every table and figure of the paper.

Quick start
-----------
>>> import numpy as np
>>> import repro
>>> op = repro.operator(64)                     # 64x64 parallel-beam CT
>>> sino = op.forward(np.ones(op.shape[1], dtype=op.dtype))
>>> back = op.adjoint(sino)                     # x = A^T y

``operator()`` consults the persistent operator cache: the first call
builds and stores the CSCV arrays, every later call (any process) loads
them back memory-mapped in milliseconds.
"""

from repro._version import __version__
from repro.api import (
    ReconstructionResult,
    SkippedFormat,
    build_ct_matrix,
    build_format,
    operator,
    operator_cache_key,
    reconstruct,
    spmv_all_formats,
)
from repro.core import (
    CSCVMMatrix,
    CSCVParams,
    CSCVZMatrix,
    OperatorCache,
    autotune_parameters,
    default_cache,
)
from repro.geometry import ParallelBeamGeometry, shepp_logan
from repro.geometry.fan_beam import FanBeamGeometry
from repro.sparse import (
    COOMatrix,
    CSCMatrix,
    CSRMatrix,
    SpMVFormat,
    available_formats,
    get_format,
)

__all__ = [
    "__version__",
    "operator",
    "operator_cache_key",
    "reconstruct",
    "ReconstructionResult",
    "build_ct_matrix",
    "build_format",
    "spmv_all_formats",
    "SkippedFormat",
    "OperatorCache",
    "default_cache",
    "CSCVParams",
    "CSCVZMatrix",
    "CSCVMMatrix",
    "autotune_parameters",
    "ParallelBeamGeometry",
    "FanBeamGeometry",
    "shepp_logan",
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "SpMVFormat",
    "available_formats",
    "get_format",
]
