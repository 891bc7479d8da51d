"""The one CSCV product dispatcher: forward and adjoint, SpMV and SpMM.

Every CSCV product — ``Y = A X`` or ``X = A^T Y``, for a vector or an
``(·, k)`` stack — goes through :func:`product`.  One table
(:data:`ROUTES`) keys each call by (direction, variant, 1-D or 2-D) and
names the compiled kernel serving it:

* **C blocked** — the faithful pipeline: per block, zero a ``ytilde``
  scratch, stream VxGs as contiguous vector FMAs, scatter-add through the
  inverse IOBLR map straight into ``y``.  The adjoint kernel runs the
  same stream gather-only.  OpenMP threads take whole owner parts
  (:attr:`CSCVData.owner_parts <repro.core.builder.CSCVData.owner_parts>`:
  view groups forward, image tile rows adjoint), so each output entry is
  summed in the serial order and the result is bitwise the same for any
  thread count — no private copies, no reduction.
* **NumPy** — rows without a kernel, and every row when no compiled
  library serves the dtype: one vectorised accumulator per (variant,
  direction) over all ``k`` columns, summed by a single ``bincount``.

The multi-RHS rows stream the matrix from memory once for all ``k``
right-hand sides, which is where the batched CT workload (many slices,
one system matrix) wins over looped SpMV.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.core.builder import CSCVData
from repro.errors import ValidationError
from repro.kernels import dispatch
from repro.obs import metrics as obs_metrics
from repro.obs import perf as obs_perf
from repro.obs.trace import span
from repro.utils.arrays import check_out, ensure_dtype

#: (adjoint, variant, 2-D) -> (op, counter tag, C kernel).  Rows without
#: a kernel run NumPy with no ``dispatch.get`` lookup: looking up an
#: unknown name raises under ``REPRO_BACKEND=c``.
ROUTES = {
    (False, "z", False): ("spmv", "z", "cscv_z_spmv"),
    (False, "z", True): ("spmm", "z_mm", "cscv_z_spmm"),
    (False, "m", False): ("spmv", "m", "cscv_m_spmv"),
    (False, "m", True): ("spmm", "m_mm", "cscv_m_spmm"),
    (True, "z", False): ("tspmv", "z_t", "cscv_z_tspmv"),
    (True, "z", True): ("tspmm", "z_tmm", None),
    (True, "m", False): ("tspmv", "m_t", None),
    (True, "m", True): ("tspmm", "m_tmm", None),
}


def value_rows_z(data: CSCVData) -> np.ndarray:
    """Global row id (or -1) of every CSCV-Z value slot.

    Composes VxG placement with the per-block inverse map once, so the
    NumPy path needs no per-call permutation.
    """
    if data.num_vxg == 0:
        return np.zeros(0, dtype=np.int32)
    vxg_len = data.params.vxg_len
    b_of_g = np.repeat(np.arange(data.num_blocks), np.diff(data.blk_vxg_ptr))
    base = data.blk_map_ptr[b_of_g] + data.vxg_start.astype(np.int64)
    pos = base[:, None] + np.arange(vxg_len)[None, :]
    return data.ymap[pos.ravel()]


def value_rows_m(data: CSCVData) -> np.ndarray:
    """Global row id of every packed CSCV-M value (always valid)."""
    if data.nnz == 0:
        return np.zeros(0, dtype=np.int32)
    s_vvec = data.params.s_vvec
    b_of_e = np.repeat(np.arange(data.num_blocks), np.diff(data.blk_e_ptr))
    base = data.blk_map_ptr[b_of_e] + data.e_start.astype(np.int64)
    # lane of each packed value from the mask bit order
    lanes = _mask_lanes(data.masks, s_vvec)
    pos = np.repeat(base, np.diff(data.voff)) + lanes
    return data.ymap[pos]


def _mask_lanes(masks: np.ndarray, s_vvec: int) -> np.ndarray:
    """Concatenated set-bit positions of every mask, mask-major order."""
    if masks.size == 0:
        return np.zeros(0, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(s_vvec, dtype=np.uint32)[None, :]) & 1
    e_idx, lane = np.nonzero(bits)
    # np.nonzero iterates row-major: already (mask, lane-ascending) order
    return lane.astype(np.int64)


def value_cols_m(data: CSCVData) -> np.ndarray:
    """Global column id of every packed CSCV-M value."""
    return np.repeat(data.e_col.astype(np.int64), np.diff(data.voff))


# ---------------------------------------------------------------------- #
# the dispatcher


def product(fmt, X, out=None, *, adjoint: bool = False) -> np.ndarray:
    """``A X`` (or ``A^T X``) for a CSCV format; *X* is 1-D or ``(·, k)``.

    *fmt* is a :class:`~repro.core.format_z.CSCVZMatrix` or
    :class:`~repro.core.format_m.CSCVMMatrix`.  *out* (allocated when
    ``None``, overwritten otherwise) must be a C-contiguous array of the
    matrix dtype and the product's shape, else :class:`ValidationError`.
    """
    data = fmt.data
    m, n = data.shape
    size_in, size_out = (m, n) if adjoint else (n, m)
    name = "y" if adjoint else "x"
    X = np.asarray(X)
    if X.ndim not in (1, 2) or X.shape[0] != size_in:
        raise ValidationError(
            f"{name} must have shape ({size_in},) or ({size_in}, k), got {X.shape}"
        )
    X = ensure_dtype(X, data.dtype, name)
    Y = check_out(out, (size_out,) + X.shape[1:], data.dtype)
    Y[...] = 0
    k = X.shape[1] if X.ndim == 2 else 1
    if data.nnz == 0 or k == 0:
        return Y
    op, tag, kernel = ROUTES[adjoint, fmt.variant, X.ndim == 2]
    threads = int(fmt.threads or config.runtime.threads)
    t0 = obs_perf.clock() if obs_perf.active else 0.0
    fn = dispatch.get(kernel, data.dtype) if kernel else None
    backend = "c" if fn is not None else "flat"
    attrs = {"threads": threads} if fn is not None else {}
    with span(f"{op}.{fmt.variant}", backend=backend, nnz=data.nnz, batch=k,
              blocks=data.num_blocks, **attrs):
        if fn is not None:
            fn(*_c_args(fmt.variant, adjoint, data, X, Y, threads))
        else:
            contrib, targets = _NUMPY[fmt.variant, adjoint](
                data, fmt._rows(), X.reshape(size_in, k))
            Y.reshape(size_out, k)[...] = _scatter(targets, contrib, size_out)
    obs_metrics.counter(
        f"spmv.calls.{tag}.{backend}",
        "CSCV products by variant, direction and execution backend",
    ).inc()
    if obs_perf.active:
        obs_perf.record_cscv(op, fmt.variant, backend, data,
                             obs_perf.clock() - t0, k)
    return Y


def _c_args(variant: str, adjoint: bool, data: CSCVData, X, Y,
            threads: int) -> tuple:
    """The shared C argument list: head, per-variant middle, tail."""
    part_ptr, order = data.owner_parts[adjoint]
    head = X.shape[1:] + (part_ptr.size - 1, part_ptr, order,
                          data.blk_vxg_ptr, data.vxg_col, data.vxg_start)
    if variant == "z":
        middle = (data.values, data.params.vxg_len)
    else:
        middle = (data.vxg_voff, data.vxg_masks, data.packed,
                  data.params.s_vxg, data.params.s_vvec)
    tail = (data.blk_ysize, data.blk_map_ptr, data.ymap, X, Y,
            data.max_ysize, threads)
    return head + middle + tail


# ---------------------------------------------------------------------- #
# NumPy accumulators: one per (variant, direction), any k.  Each takes
# the operand as an (·, k) array and returns the slot-major (S, k)
# contributions plus their output index shifted by one: index 0 collects
# the CSCV-Z slots the IOBLR map discards (row -1), so no call masks
# them out.  Every column is summed in the same order as a k=1 call, so
# column j of a k-wide product is bit-equal to the same column run alone.


def _z_forward(data, rows, X):
    vals = data.values.reshape(-1, data.params.vxg_len)
    xg = X[data.vxg_col.astype(np.int64)]                   # (G, k)
    return (vals[:, :, None] * xg[:, None, :]).reshape(-1, X.shape[1]), rows + 1


def _z_adjoint(data, rows, X):
    k = X.shape[1]
    Xt = np.zeros((k, X.shape[0] + 1), dtype=X.dtype)       # column 0: discard
    Xt[:, 1:] = X.T
    contrib = np.ascontiguousarray(data.values * Xt[:, rows + 1], dtype=np.float64)
    # each VxG sums over a contiguous axis: the k=1 (pairwise) order
    per_vxg = contrib.reshape(k, -1, data.params.vxg_len).sum(axis=2)
    return per_vxg.T, data.vxg_col + 1


def _m_forward(data, rows, X):
    return data.packed[:, None] * X[value_cols_m(data)], rows + 1


def _m_adjoint(data, rows, X):
    return data.packed[:, None] * X[rows], value_cols_m(data) + 1


_NUMPY = {
    ("z", False): _z_forward,
    ("z", True): _z_adjoint,
    ("m", False): _m_forward,
    ("m", True): _m_adjoint,
}


def _scatter(targets, contrib, size: int) -> np.ndarray:
    """Sum (S, k) *contrib* into a (size, k) float64 result.

    One ``bincount`` over ``target * k + j`` keys: each output entry adds
    its contributions sequentially in stream order.  *targets* are
    shifted by one; index 0 is dropped.
    """
    k = contrib.shape[1]
    keys = targets if k == 1 else (targets.astype(np.int64) * k)[:, None] + np.arange(k)
    acc = np.bincount(keys.ravel(), weights=contrib.ravel(), minlength=(size + 1) * k)
    return acc.reshape(size + 1, k)[1:]
