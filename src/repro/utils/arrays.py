"""Array helpers: alignment, dtype coercion, shape validation.

SIMD kernels want their value streams aligned to cache-line (64-byte)
boundaries; :func:`aligned_zeros` over-allocates and slices to achieve that
without any C code.  The remaining helpers implement the validation idioms
used across all sparse formats.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

#: Alignment (bytes) targeted by :func:`aligned_zeros` — one cache line,
#: which also satisfies AVX-512 load alignment.
ALIGNMENT = 64


def aligned_zeros(shape, dtype=np.float64, align: int = ALIGNMENT) -> np.ndarray:
    """Return a zero-initialised array whose data pointer is *align*-aligned.

    Parameters
    ----------
    shape : int or tuple of int
        Desired shape.
    dtype : dtype-like
        Element type.
    align : int
        Required byte alignment (power of two).

    Notes
    -----
    NumPy does not expose aligned allocation directly, so we allocate
    ``size + align`` bytes and slice at the first aligned offset.  The
    returned array is a view; keeping it alive keeps the base buffer alive.
    """
    if align <= 0 or (align & (align - 1)) != 0:
        raise ValidationError(f"alignment must be a positive power of two, got {align}")
    dt = np.dtype(dtype)
    if np.isscalar(shape):
        shape = (int(shape),)
    shape = tuple(int(s) for s in shape)
    size = int(np.prod(shape, dtype=np.int64)) if shape else 1
    nbytes = size * dt.itemsize
    raw = np.zeros(nbytes + align, dtype=np.uint8)
    offset = (-raw.ctypes.data) % align
    view = raw[offset : offset + nbytes].view(dt)
    return view.reshape(shape)


def as_contiguous(arr: np.ndarray, dtype=None) -> np.ndarray:
    """Return *arr* as a C-contiguous array of *dtype* (no copy if possible)."""
    if dtype is None:
        dtype = arr.dtype
    return np.ascontiguousarray(arr, dtype=dtype)


def ensure_dtype(arr: np.ndarray, dtype, name: str = "array") -> np.ndarray:
    """Cast *arr* to *dtype*, raising :class:`ValidationError` on bad input."""
    try:
        a = np.asarray(arr)
    except Exception as exc:  # pragma: no cover - defensive
        raise ValidationError(f"{name} is not array-like: {exc}") from exc
    if not np.issubdtype(a.dtype, np.number) and a.size:
        raise ValidationError(f"{name} must be numeric, got dtype {a.dtype}")
    return np.ascontiguousarray(a, dtype=dtype)


def check_1d(arr: np.ndarray, size: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate that *arr* is one-dimensional (and optionally of length *size*)."""
    a = np.asarray(arr)
    if a.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {a.shape}")
    if size is not None and a.shape[0] != size:
        raise ValidationError(f"{name} must have length {size}, got {a.shape[0]}")
    return a


def check_out(out, shape: tuple, dtype) -> np.ndarray:
    """Validated product buffer of *shape*/*dtype* (zeros when *out* is None).

    The one ``out=`` check every product applies: exact shape, the
    matrix dtype and C-contiguity, else :class:`ValidationError`.
    """
    if out is None:
        return np.zeros(shape, dtype=dtype)
    if not isinstance(out, np.ndarray) or out.shape != tuple(shape):
        raise ValidationError(f"out must have shape {tuple(shape)}, got {np.shape(out)}")
    if out.dtype != dtype or not out.flags.c_contiguous:
        raise ValidationError(f"out must be C-contiguous {np.dtype(dtype)}, got {out.dtype}")
    return out


def as_column_batch(
    arr: np.ndarray, size: int, name: str, dtype
) -> tuple[np.ndarray, bool]:
    """Normalise a vector or stack to a 2-D ``(size, k)`` batch.

    Returns ``(batch, was_1d)`` so solvers can run one batched code path
    and squeeze the result back to 1-D when the caller passed a vector.
    """
    a = np.asarray(arr)
    if a.ndim == 1:
        a = check_1d(a, size, name)[:, None]
        was_1d = True
    elif a.ndim == 2:
        if a.shape[0] != size:
            raise ValidationError(f"{name} must have shape ({size}, k), got {a.shape}")
        was_1d = False
    else:
        raise ValidationError(f"{name} must be 1-D or 2-D, got shape {a.shape}")
    return ensure_dtype(a, dtype, name), was_1d


def is_aligned(arr: np.ndarray, align: int = ALIGNMENT) -> bool:
    """True when *arr*'s data pointer is *align*-byte aligned."""
    return arr.ctypes.data % align == 0


def bincount_lengths(indices: np.ndarray, n: int) -> np.ndarray:
    """Histogram of *indices* over ``range(n)`` as an int64 array.

    Used to derive per-row / per-column nonzero counts from COO triplets.
    """
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValidationError(
            f"indices out of range [0, {n}): min={idx.min()}, max={idx.max()}"
        )
    return np.bincount(idx, minlength=n).astype(np.int64)


def sum_squares(a) -> float:
    """``sum(a ** 2)`` over every entry of *a*, accumulated in float64.

    A NumPy ``einsum`` loop, not a BLAS dot: its summation order depends
    on the array alone, never on how many threads the BLAS library that
    NumPy links runs, and it starts no BLAS threads that would compete
    with the C kernels' OpenMP threads.
    """
    a = np.ravel(a)
    return float(np.einsum("i,i->", a, a, dtype=np.float64))


def norm2(a) -> float:
    """The 2-norm of *a* flattened (Frobenius for a 2-D array), computed
    by :func:`sum_squares`; the solvers' residual norms use it."""
    return float(np.sqrt(sum_squares(a)))
