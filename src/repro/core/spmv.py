"""The one CSCV product dispatcher: forward and adjoint, SpMV and SpMM.

Every CSCV product — ``Y = A X`` or ``X = A^T Y``, for a vector or an
``(·, k)`` stack — goes through :func:`product`.  One table
(:data:`ROUTES`) keys each call by (direction, variant) and names the
compiled kernel serving it; every kernel takes any ``k``, and a vector
runs as an ``(·, 1)`` view:

* **C blocked** — the faithful pipeline: per block, zero a ``ytilde``
  scratch, stream VxGs as contiguous vector multiply-adds, scatter-add
  through the inverse IOBLR map straight into ``y``.  The adjoint
  kernels run the same stream gather-only.  OpenMP threads take whole owner parts
  (:attr:`CSCVData.owner_parts <repro.core.builder.CSCVData.owner_parts>`:
  view groups forward, image tile rows adjoint), so each output entry is
  summed in the serial order and the result is bitwise the same for any
  thread count — no private copies, no reduction.  Each column is summed
  in the same order for every ``k``, so column j of a k-wide product is
  bitwise its solo run.
* **NumPy** — every row when no compiled library serves the dtype: one
  vectorised accumulator per (variant, direction) over all ``k``
  columns, summed in float64 by a single ``bincount`` and cast.

The multi-RHS rows stream the matrix from memory once for all ``k``
right-hand sides, which is where the batched CT workload (many slices,
one system matrix) wins over looped SpMV.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.core.builder import CSCVData, mask_popcount
from repro.errors import ValidationError
from repro.kernels import dispatch
from repro.obs import metrics as obs_metrics
from repro.obs import perf as obs_perf
from repro.obs.trace import span
from repro.utils.arrays import check_out, ensure_dtype

#: (adjoint, variant) -> the C kernel serving it, for any k.
ROUTES = {
    (False, "z"): "cscv_z_spmm",
    (False, "m"): "cscv_m_spmm",
    (True, "z"): "cscv_z_tspmm",
    (True, "m"): "cscv_m_tspmm",
}

#: variant -> the stored arrays its C kernels are handed, in argument
#: order: the VxG index, the variant's value stream, then the three IOBLR
#: map arrays.  ``memory_bytes()`` counts exactly these.
KERNEL_ARRAYS = {
    "z": ("blk_vxg_ptr", "vxg_col", "vxg_start", "values",
          "blk_ysize", "blk_map_ptr", "ymap"),
    "m": ("blk_vxg_ptr", "vxg_col", "vxg_start", "vxg_voff", "vxg_masks",
          "packed", "blk_ysize", "blk_map_ptr", "ymap"),
}

#: variant -> its value stream (the rest of its kernel arrays are index).
VALUE_ARRAY = {"z": "values", "m": "packed"}

#: (adjoint, 2-D operand) -> (op, counter-tag suffix).  The span is
#: ``<op>.<variant>``, the counter ``spmv.calls.<variant><suffix>.<backend>``
#: and ``<op>`` the perf-record op: telemetry keeps telling a vector from
#: a stack although both run one kernel.
OPS = {
    (False, False): ("spmv", ""),
    (False, True): ("spmm", "_mm"),
    (True, False): ("tspmv", "_t"),
    (True, True): ("tspmm", "_tmm"),
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
    """Global row id of every packed CSCV-M value (always valid).

    A packed value is the Z slot of a set ``vxg_masks`` bit, VxG by VxG,
    slots then lanes ascending: the non-empty slots (CSCVEs) in order,
    each expanded by its mask.
    """
    if data.nnz == 0:
        return np.zeros(0, dtype=np.int32)
    s_vvec, s_vxg = data.params.s_vvec, data.params.s_vxg
    slot = np.flatnonzero(data.vxg_masks)
    masks = data.vxg_masks[slot]
    g = slot // s_vxg
    b_of_g = np.repeat(np.arange(data.num_blocks), np.diff(data.blk_vxg_ptr))
    base = (data.blk_map_ptr[b_of_g[g]] + data.vxg_start[g].astype(np.int64)
            + (slot % s_vxg) * s_vvec)
    pos = np.repeat(base, mask_popcount(masks)) + _mask_lanes(masks, s_vvec)
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
    spans = np.diff(data.vxg_voff, append=data.nnz)
    return np.repeat(data.vxg_col.astype(np.int64), spans)


#: variant -> the global row of every slot of its value stream
#: (:data:`VALUE_ARRAY`); -1 marks CSCV-Z padding.
VALUE_ROWS = {"z": value_rows_z, "m": value_rows_m}


def kernel_bytes(data: CSCVData, variant: str) -> dict[str, int]:
    """``memory_bytes()`` of a CSCV variant: the bytes of exactly the
    arrays its C kernels stream (:data:`KERNEL_ARRAYS`), split into the
    value stream and the index."""
    total = sum(getattr(data, name).nbytes for name in KERNEL_ARRAYS[variant])
    values = getattr(data, VALUE_ARRAY[variant]).nbytes
    return {"values": values, "indices": total - values, "total": total}


# ---------------------------------------------------------------------- #
# the dispatcher


def product(fmt, X, out=None, *, adjoint: bool = False) -> np.ndarray:
    """``A X`` (or ``A^T X``) for a CSCV format; *X* is 1-D or ``(·, k)``.

    *fmt* is a :class:`~repro.core.format_z.CSCVMatrix` (CSCV-Z or
    CSCV-M).  *out* (allocated when ``None``, overwritten otherwise) must
    be a C-contiguous array of the matrix dtype and the product's shape,
    else :class:`ValidationError`.
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
    op, suffix = OPS[adjoint, X.ndim == 2]
    threads = int(fmt.threads or config.runtime.threads)
    t0 = obs_perf.clock() if obs_perf.active else 0.0
    fn = dispatch.get(ROUTES[adjoint, fmt.variant], data.dtype)
    backend = "c" if fn is not None else "flat"
    attrs = {"threads": threads} if fn is not None else {}
    X2, Y2 = X.reshape(size_in, k), Y.reshape(size_out, k)
    with span(f"{op}.{fmt.variant}", backend=backend, nnz=data.nnz, batch=k,
              blocks=data.num_blocks, **attrs):
        if fn is not None:
            fn(*_c_args(fmt.variant, adjoint, data, X2, Y2, threads))
        else:
            contrib, targets = _NUMPY[fmt.variant, adjoint](data, fmt._rows(), X2)
            Y2[...] = _scatter(targets, contrib, size_out)
    obs_metrics.counter(
        f"spmv.calls.{fmt.variant}{suffix}.{backend}",
        "CSCV products by variant, direction and execution backend",
    ).inc()
    if obs_perf.active:
        obs_perf.record_format(op, fmt, backend, obs_perf.clock() - t0, k,
                               threads if fn is not None else 1)
    return Y


def _c_args(variant: str, adjoint: bool, data: CSCVData, X, Y,
            threads: int) -> tuple:
    """The C argument list: owner parts, the variant's
    :data:`KERNEL_ARRAYS` with its shape scalars before the three map
    arrays, then the operands."""
    part_ptr, order = data.owner_parts[adjoint]
    arrays = [getattr(data, name) for name in KERNEL_ARRAYS[variant]]
    p = data.params
    scalars = (p.vxg_len,) if variant == "z" else (p.s_vxg, p.s_vvec)
    return (X.shape[1], part_ptr.size - 1, part_ptr, order, *arrays[:-3],
            *scalars, *arrays[-3:], X, Y, data.max_ysize, threads)


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
