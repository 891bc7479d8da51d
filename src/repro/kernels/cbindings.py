"""ctypes bindings for the compiled kernel library.

Each binding wraps one C symbol per floating dtype with argument-type
checking via :func:`numpy.ctypeslib.ndpointer`.  Wrappers accept NumPy
arrays directly; callers guarantee contiguity and dtype (the sparse-format
classes construct their arrays that way).
"""

from __future__ import annotations

import ctypes
import os
import warnings

import numpy as np
from numpy.ctypeslib import ndpointer

from repro.errors import KernelError
from repro.kernels.cbuild import library_path

_i32 = ndpointer(np.int32, flags="C_CONTIGUOUS")
_i64 = ndpointer(np.int64, flags="C_CONTIGUOUS")
_u32 = ndpointer(np.uint32, flags="C_CONTIGUOUS")
_c_i64 = ctypes.c_int64
_c_int = ctypes.c_int
_c_f64 = ctypes.c_double


def _f(dtype) -> object:
    return ndpointer(dtype, flags="C_CONTIGUOUS")


_SUFFIX = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


# Parallel-beam projector sweeps share one shape: geometry scalars, a
# [v0, v1) view range, and caller-allocated COO triplet buffers.  These
# kernels compute in float64 only (the sweep casts values afterwards),
# so only the f64 symbols exist in the library.
_PROJECTOR_SIG = [
    _c_i64,  # n (image edge)
    _c_i64,  # num_bins
    _c_f64,  # delta_angle_deg
    _c_f64,  # start_angle_deg
    _c_f64,  # pixel_size
    _c_f64,  # bin_spacing
    _c_i64,  # v0
    _c_i64,  # v1
    _c_i64,  # capacity
    _i64,    # rows (out)
    _i64,    # cols (out)
    ndpointer(np.float64, flags="C_CONTIGUOUS"),  # vals (out)
]

_FAN_SIG = [
    _c_i64,  # n
    _c_i64,  # num_bins
    _c_f64,  # delta_angle_deg
    _c_f64,  # start_angle_deg
    _c_f64,  # pixel_size
    _c_f64,  # source_radius
    _c_f64,  # fan_angle_deg
    _c_i64,  # v0
    _c_i64,  # v1
    _c_i64,  # capacity
    _i64,    # rows (out)
    _i64,    # cols (out)
    ndpointer(np.float64, flags="C_CONTIGUOUS"),  # vals (out)
]

#: Kernels with a non-void return (projector sweeps return the triplet
#: count, or -1 on capacity overflow); everything else returns void.
_RESTYPES = {
    "pixel_footprint_views": _c_i64,
    "strip_footprint_views": _c_i64,
    "siddon_trace_views": _c_i64,
    "fan_strip_views": _c_i64,
}


# The four CSCV drivers (variant x direction) share one shape: the RHS
# count k, owner parts and block layout, the variant's value arrays,
# then the ytilde maps, the operands and the thread count.
def _cscv_sig(fp, variant: str) -> list:
    if variant == "z":  # values, vxg_len
        values = [fp, _c_i64]
    else:  # vxg_voff, vxg_masks, packed, s_vxg, s_vvec
        values = [_i64, _u32, fp, _c_i64, _c_i64]
    return [
        _c_i64,  # k: the operand's column count (1 for a vector)
        _c_i64,  # num_parts
        _i64,    # part_ptr
        _i64,    # order: block indices, part after part
        _i64,    # blk_vxg_ptr
        _i32,    # vxg_col
        _i32,    # vxg_start
        *values,
        _i64,    # blk_ysize
        _i64,    # blk_map_ptr
        _i32,    # map
        fp,      # X: the operand, (·, k) row-major
        fp,      # Y: the result, zeroed by the caller
        _c_i64,  # max_ysize
        _c_int,  # nthreads
    ]


def _signatures(dtype) -> dict[str, list]:
    fp = _f(dtype)
    return {
        "pixel_footprint_views": _PROJECTOR_SIG,
        "strip_footprint_views": _PROJECTOR_SIG,
        "siddon_trace_views": _PROJECTOR_SIG,
        "fan_strip_views": _FAN_SIG,
        "csr_spmv": [_c_i64, _i32, _i32, fp, fp, fp],
        "csr_spmm": [_c_i64, _c_i64, _i32, _i32, fp, fp, fp],
        "csc_spmv": [_c_i64, _c_i64, _i32, _i32, fp, fp, fp],
        "ell_spmv": [_c_i64, _c_i64, _i32, fp, fp, fp],
        "cscv_z_spmm": _cscv_sig(fp, "z"),
        "cscv_m_spmm": _cscv_sig(fp, "m"),
        "cscv_z_tspmm": _cscv_sig(fp, "z"),
        "cscv_m_tspmm": _cscv_sig(fp, "m"),
        "spc5_spmv": [_c_i64, _i32, _i32, _u32, _i64, fp, _c_i64, fp, fp, _c_i64],
    }


class KernelLibrary:
    """Loaded shared library with typed kernel callables."""

    def __init__(self, path: str):
        self.path = path
        # Idle OpenMP workers sleep rather than spin, unless the caller set
        # a policy.  libgomp reads this when the library loads it.  On a
        # 2-vCPU VM a spinning worker slowed a 0.6 ms two-thread CSCV
        # product to 4-8 ms; sleeping workers measured no slower at 256^2.
        os.environ.setdefault("OMP_WAIT_POLICY", "passive")
        self._lib = ctypes.CDLL(path)
        self._fns: dict[tuple[str, np.dtype], object] = {}
        abi = self._lib.kernels_abi_version
        abi.restype = ctypes.c_int
        self.abi_version = int(abi())
        omp = self._lib.kernels_omp_max_threads
        omp.restype = ctypes.c_int
        self.omp_max_threads = int(omp())
        setter = self._lib.kernels_set_omp_threads
        setter.restype = None
        setter.argtypes = [ctypes.c_int]
        self._set_omp = setter

    def set_omp_threads(self, nthreads: int) -> None:
        """Set the library-wide OpenMP thread count (``omp_set_num_threads``).

        The blocked CSCV drivers take an explicit per-call ``nthreads``,
        but the plain ``omp parallel for`` kernels (CSR/CSC/ELL SpMV, CSR
        SpMM) run at this library-wide default — without this call they
        ignore ``runtime.threads`` entirely.
        """
        self._set_omp(int(nthreads))
        self.omp_max_threads = int(self._lib.kernels_omp_max_threads())

    def get(self, name: str, dtype) -> object:
        """Typed callable for kernel *name* at *dtype*."""
        dt = np.dtype(dtype)
        key = (name, dt)
        fn = self._fns.get(key)
        if fn is None:
            suffix = _SUFFIX.get(dt)
            if suffix is None:
                raise KernelError(f"no C kernels for dtype {dt}")
            sigs = _signatures(dt)
            if name not in sigs:
                raise KernelError(f"unknown kernel {name!r}")
            try:
                fn = getattr(self._lib, f"{name}_{suffix}")
            except AttributeError as exc:  # pragma: no cover - stale .so
                raise KernelError(f"symbol {name}_{suffix} missing") from exc
            fn.restype = _RESTYPES.get(name)
            fn.argtypes = sigs[name]
            self._fns[key] = fn
        return fn


_library: KernelLibrary | None = None
_load_failed = False


def load_library() -> KernelLibrary | None:
    """Build-and-load the kernel library once per process (or None).

    A library that built but will not load (deleted, truncated, or ABI
    mismatch — simulated by the ``kernel.load`` fault point) degrades
    the same way a failed build does: one ``RuntimeWarning``, a
    ``kernel.load.failures`` count, NumPy fallback for the rest of the
    process.
    """
    global _library, _load_failed
    if _load_failed:
        return None
    if _library is None:
        from repro.resilience import faults

        path = library_path()
        directive = faults.fire("kernel.load") if path is not None else None
        if directive == "missing":
            path = None
        if path is None:
            _load_failed = True
            if directive == "missing":
                _warn_load_failure("shared library missing")
            return None
        try:
            if directive == "corrupt":
                raise OSError(f"fault injected: unloadable library {path}")
            _library = KernelLibrary(path)
        except (OSError, KernelError, AttributeError) as exc:
            _load_failed = True
            _warn_load_failure(str(exc))
            return None
    return _library


def _warn_load_failure(reason: str) -> None:
    from repro.obs import metrics as obs_metrics

    obs_metrics.counter(
        "kernel.load.failures",
        "kernel library load failures (NumPy fallback engaged)",
    ).inc()
    warnings.warn(
        f"repro kernel library failed to load, using NumPy backend: {reason}",
        RuntimeWarning,
        stacklevel=3,
    )


def reset_load_state() -> None:
    """Forget the loaded library (test hook)."""
    global _library, _load_failed
    _library = None
    _load_failed = False
