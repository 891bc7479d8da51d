"""Backend dispatch: pick the C kernel or fall back to NumPy.

``get(name, dtype)`` is the single entry point the sparse formats call.
It returns a typed C callable, or ``None`` when the caller should run its
NumPy path — because the user forced ``REPRO_BACKEND=numpy``, the compile
failed, or the dtype has no compiled variant.
"""

from __future__ import annotations

import numpy as np

from repro import config


def _count(outcome: str, name: str) -> None:
    """Backend-choice counters: ``dispatch.hit.*`` vs ``dispatch.fallback.*``."""
    from repro.obs import metrics as obs_metrics

    obs_metrics.counter(
        f"dispatch.{outcome}.{name}",
        "kernel dispatch outcomes (hit = compiled C, fallback = NumPy)",
    ).inc()


#: Last thread count pushed into the compiled library via
#: ``kernels_set_omp_threads`` (None = never synced this process).
_omp_synced: int | None = None


def _sync_omp_threads(lib) -> None:
    """Push ``runtime.threads`` into the library's OpenMP default.

    The blocked CSCV kernels take an explicit per-call thread count, but
    the plain ``omp parallel for`` kernels (CSR/CSC/ELL SpMV, CSR SpMM)
    run at the OpenMP library default, which used to ignore
    ``runtime.threads``/``REPRO_THREADS`` entirely.  One int compare per
    dispatch keeps them in lockstep with runtime changes.
    """
    global _omp_synced
    want = int(config.runtime.threads)
    if want != _omp_synced:
        lib.set_omp_threads(want)
        _omp_synced = want


def get(name: str, dtype) -> object | None:
    """C kernel callable for *name*/*dtype*, or ``None`` for NumPy fallback."""
    if config.runtime.backend == "numpy":
        _count("fallback", name)
        return None
    from repro.kernels.cbindings import load_library

    lib = load_library()
    if lib is None:
        if config.runtime.backend == "c":
            from repro.errors import KernelError

            raise KernelError(
                "REPRO_BACKEND=c requested but the kernel library is unavailable"
            )
        _count("fallback", name)
        return None
    _sync_omp_threads(lib)
    try:
        fn = lib.get(name, dtype)
    except Exception:
        if config.runtime.backend == "c":
            raise
        _count("fallback", name)
        return None
    _count("hit" if fn is not None else "fallback", name)
    return fn


def backend_in_use(dtype=np.float64) -> str:
    """``"c"`` when compiled kernels will serve SpMV calls, else ``"numpy"``."""
    return "c" if get("csr_spmv", dtype) is not None else "numpy"


def omp_threads() -> int:
    """Max OpenMP threads the compiled library reports (1 without it)."""
    if config.runtime.backend == "numpy":
        return 1
    from repro.kernels.cbindings import load_library

    lib = load_library()
    return lib.omp_max_threads if lib is not None else 1
