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
from repro.core.builder import CSCVData
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
        obs_perf.record_cscv(op, fmt.variant, backend, data,
                             obs_perf.clock() - t0, k,
                             threads if fn is not None else 1)
    return Y


def _c_args(variant: str, adjoint: bool, data: CSCVData, X, Y,
            threads: int) -> tuple:
    """The shared C argument list: head, per-variant middle, tail."""
    part_ptr, order = data.owner_parts[adjoint]
    head = (X.shape[1], part_ptr.size - 1, part_ptr, order,
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
