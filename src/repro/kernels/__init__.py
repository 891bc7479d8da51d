"""Compute backends for SpMV kernels.

Two backends implement every kernel:

* **numpy** — vectorised NumPy, always available;
* **c** — plain C loops compiled on first use with ``cc -O3 -march=native
  -fopenmp`` and loaded through :mod:`ctypes`.

The C kernels deliberately contain **no intrinsics and no assembly** —
reproducing the paper's portability claim that CSCV's fixed-length
contiguous inner loops auto-vectorise (AVX-512 ``vfmadd``/``vexpand`` on
this host) from scalar source.

:mod:`repro.kernels.dispatch` decides per call which backend serves a
kernel; set ``REPRO_BACKEND=numpy`` to disable the compiled path.
"""

from repro.kernels import dispatch

#: Python-side mirror of ``kernels_abi_version()`` in ``c_src/kernels.c``.
#: Bump both together whenever a kernel signature or array layout changes;
#: the persistent operator cache keys entries on this value so stale array
#: layouts can never be fed to newer kernels.
KERNELS_ABI_VERSION = 7

__all__ = ["dispatch", "KERNELS_ABI_VERSION"]
