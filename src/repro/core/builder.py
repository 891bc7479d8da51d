"""End-to-end CSCV construction: COO + geometry -> CSCV arrays.

The conversion implements the paper's Fig 7 pipeline ("matrix format
conversion before calculation") fully vectorised:

1. **classify** every nonzero into its matrix block (view group x image
   tile) and CSCVE lane (view within group);
2. transform sinogram bins to **curve offsets** ``d = bin - r(view,
   tile)`` against the per-tile reference curves (IOBLR);
3. group nonzeros into **CSCVEs** — unique ``(block, column, d)`` triples,
   each a dense ``s_vvec``-lane vector (missing lanes = padding zeros);
4. pack each column's CSCVEs into **VxGs**: windows of ``s_vxg``
   consecutive offsets anchored at the column's first offset (empty
   offsets inside a window become whole padding CSCVEs — the red boxes of
   Fig 6);
5. emit per-block ``ytilde`` **maps** (``iota_k`` and its inverse) sized to
   cover the offsets the block's VxGs reach.

The output :class:`CSCVData` holds one layout, VxG-aligned, that both
execution formats share: CSCV-Z streams the padded values, CSCV-M the
packed nonzeros behind one lane mask per VxG slot.  :func:`validate_cscv`
checks its structure after every build and on every load.

One view group at a time
------------------------
Every matrix block is one (view group, image tile) pair, and rows are
``view * num_bins + bin``, so view group ``g`` owns one contiguous row
range and every block it touches.  The build therefore runs steps 1-5
per view group: take the group's triplets (trace its views with
:func:`trace_group` in :func:`build_cscv_from_geometry`, or slice a
row-sorted COO in :func:`build_cscv`), pack its blocks, and merge the
groups in ascending order by concatenation plus integer pointer
rebasing.  Peak memory is the output plus one group's working set per
worker; the global COO is never needed.

The output is **bitwise** the same however the groups are scheduled.
The pack's sort key ``(block, col, d, lane)`` is unique per nonzero, so
a group's order depends neither on its key bounds (``d_min``/``d_span``
are per group) nor on the order its triplets arrive in, and every float
operation is group-local.  A group's coalesced trace equals the full
coalesced sweep restricted to its rows, because duplicates share a row.
With ``workers > 1`` whole groups run concurrently on the shared build
pool.

The other formats are built from the same group traces:
:func:`trace_matrix` concatenates every group's :func:`trace_group` in
order, which is bitwise the coalesced whole sweep for the same reason,
and the format's ``from_coo`` takes it from there.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial

import numpy as np

from repro import config
from repro.config import INDEX_DTYPE, normalize_dtype
from repro.core.blocks import BlockGrid
from repro.core.params import CSCVParams
from repro.errors import FormatError
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.obs import metrics as obs_metrics
from repro.obs import perf as obs_perf
from repro.obs.profile import profiled
from repro.obs.trace import span
from repro.sparse.matrix_base import coalesce
from repro.utils.pool import build_pool, run_resilient


@dataclass
class CSCVData:
    """All arrays produced by :func:`build_cscv` (shared by Z and M)."""

    shape: tuple[int, int]
    nnz: int
    params: CSCVParams
    dtype: np.dtype

    # ---- VxG index (both variants) ----
    #: global x column per VxG (int32)
    vxg_col: np.ndarray = field(default=None)
    #: start position in the block's ytilde per VxG (int32)
    vxg_start: np.ndarray = field(default=None)
    #: VxG ranges per (present) block, int64, len = num_blocks + 1
    blk_vxg_ptr: np.ndarray = field(default=None)

    # ---- CSCV-Z value stream ----
    #: dense values, ``num_vxg * vxg_len``, padding zeros included
    values: np.ndarray = field(default=None)

    # ---- CSCV-M value stream ----
    #: lane bitmask per VxG slot (one CSCVE), ``num_vxg * s_vxg``
    #: (uint32, 0 = empty slot)
    vxg_masks: np.ndarray = field(default=None)
    #: offset into ``packed`` of each VxG's first value (int64)
    vxg_voff: np.ndarray = field(default=None)
    #: the nonzeros (length = nnz): one per set ``vxg_masks`` bit, VxG
    #: by VxG, slots then lanes ascending
    packed: np.ndarray = field(default=None)

    # ---- per-block reorder info ----
    #: ytilde length per block (int64)
    blk_ysize: np.ndarray = field(default=None)
    #: ranges into ``ymap`` per block (int64, len = num_blocks + 1)
    blk_map_ptr: np.ndarray = field(default=None)
    #: ytilde position -> global row (int32, -1 = discard slot)
    ymap: np.ndarray = field(default=None)
    #: ids of the non-empty blocks in the full grid (diagnostics)
    present_blocks: np.ndarray = field(default=None)

    @property
    def num_vxg(self) -> int:
        return self.vxg_col.shape[0]

    @cached_property
    def num_cscve(self) -> int:
        """Non-empty CSCVEs: the set ``vxg_masks`` slots (counted once)."""
        return int(np.count_nonzero(self.vxg_masks))

    @property
    def num_blocks(self) -> int:
        return self.blk_ysize.shape[0]

    @property
    def stored_slots(self) -> int:
        """Value slots in CSCV-Z storage (nnz + padding zeros)."""
        return int(self.values.size)

    @property
    def r_nnze(self) -> float:
        """The paper's zero-padding rate ``nnz(A~)/nnz(A) - 1``."""
        return self.stored_slots / self.nnz - 1.0 if self.nnz else 0.0

    @property
    def max_ysize(self) -> int:
        return int(self.blk_ysize.max()) if self.num_blocks else 0

    @cached_property
    def owner_parts(self) -> dict[bool, tuple[np.ndarray, np.ndarray]]:
        """``{adjoint: (part_ptr, order)}``: the C drivers' thread partition.

        A part owns a disjoint set of output entries: forward parts are
        view groups (a group's blocks touch only its sinogram rows),
        adjoint parts are image tile rows (a tile's blocks touch only its
        pixels).  ``order[part_ptr[q]:part_ptr[q + 1]]`` lists part *q*'s
        block indices in ascending block id, the serial order.
        """
        tiles_per_side = -(-math.isqrt(self.shape[1]) // self.params.s_imgb)
        group, tile = np.divmod(self.present_blocks, tiles_per_side**2)
        return {False: _parts(group), True: _parts(tile // tiles_per_side)}


def _parts(owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group block indices by *owner*, keeping ascending order within each."""
    order = np.argsort(owner, kind="stable").astype(np.int64)
    starts = np.flatnonzero(np.diff(owner[order])) + 1
    return np.concatenate(([0], starts, [order.size])).astype(np.int64), order


def resolve_build_workers(workers: int | None, num_groups: int) -> int:
    """Workers a build over *num_groups* view groups uses: *workers*, else
    ``runtime.build_workers``, at least one and at most one per group."""
    n = workers if workers is not None else config.runtime.build_workers
    return max(1, min(int(n), num_groups))


def _map_groups(fn, num_groups: int, used: int, label: str) -> list:
    """``[fn(g) for g in range(num_groups)]``, on the build pool when
    ``used > 1``; results come back in group order either way."""
    if used <= 1:
        return [fn(g) for g in range(num_groups)]
    return run_resilient(build_pool, fn, range(num_groups), used,
                         label=label)


def trace_group(geom, projector, dtype, s_vvec: int, g: int):
    """Trace view group *g* with ``projector(geom, dtype=, views=)``
    (:data:`repro.geometry.PROJECTORS`) and coalesce it."""
    views = (g * s_vvec, min((g + 1) * s_vvec, geom.num_views))
    return coalesce(*projector(geom, dtype=dtype, views=views), geom.shape)


def trace_matrix(geom, projector, dtype, workers: int | None = None):
    """Coalesced COO triplets of the whole geometry, one view group at a time.

    :func:`trace_group` of every ``CSCVParams().s_vvec`` views on the
    build pool, concatenated in order: bitwise the coalesced whole sweep,
    for any group size and worker count.
    """
    s_vvec = CSCVParams().s_vvec
    num_groups = -(-geom.num_views // s_vvec)
    used = resolve_build_workers(workers, num_groups)
    with span("build.trace", workers=used, groups=num_groups):
        parts = _map_groups(partial(trace_group, geom, projector, dtype, s_vvec),
                            num_groups, used, "trace")
        # drop each group's copy of a field as it is merged
        parts = [list(p) for p in parts]
        return tuple(np.concatenate([p.pop(0) for p in parts])
                     for _ in range(3))


def build_cscv(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    geom: ParallelBeamGeometry,
    params: CSCVParams,
    dtype=None,
    *,
    reference_mode: str = "ioblr",
    workers: int | None = None,
) -> CSCVData:
    """Convert COO triplets of a CT system matrix into CSCV arrays.

    Triplets must be deduplicated (each ``(row, col)`` at most once) —
    :class:`repro.sparse.COOMatrix` guarantees this, and its row-major
    order lets each view group take a slice; other input is sorted by row
    first.

    ``reference_mode`` selects the local-reordering ablation:

    * ``"ioblr"`` (default) — reference curves follow the tile's
      reference-pixel trajectory (the paper's design);
    * ``"btb"`` — the reference is held *constant* within each view
      group (the view-major / Block-Transpose-Buffer layout of [14]);
      CSCVEs then run along constant-bin lines, which Fig 4 shows fill
      far worse.  Results stay correct either way — only padding and
      performance change.

    ``workers`` overrides ``config.runtime.build_workers``.  The output
    is bitwise-identical for every worker count (see the module
    docstring), so cache keys and file hashes never depend on it.
    """
    dtype = normalize_dtype(dtype if dtype is not None else vals.dtype)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals)
    if not (rows.shape == cols.shape == vals.shape):
        raise FormatError("rows/cols/vals must have equal shapes")
    if rows.size and (
        int(rows.min()) < 0 or int(rows.max()) >= geom.num_rays
        or int(cols.min()) < 0 or int(cols.max()) >= geom.num_pixels
    ):
        raise FormatError("triplet indices outside the geometry's shape")
    if np.any(rows[1:] < rows[:-1]):
        order = np.argsort(rows, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
    group_rows = params.s_vvec * geom.num_bins
    num_groups = -(-geom.num_views // params.s_vvec)
    cuts = np.searchsorted(rows, np.arange(num_groups + 1) * group_rows)

    def triplets(g: int):
        lo, hi = cuts[g], cuts[g + 1]
        return rows[lo:hi], cols[lo:hi], vals[lo:hi]

    return _build_groups(triplets, geom, params, dtype,
                         reference_mode, workers)


def build_cscv_from_geometry(
    geom: ParallelBeamGeometry,
    params: CSCVParams,
    dtype,
    *,
    projector,
    reference_mode: str = "ioblr",
    workers: int | None = None,
) -> CSCVData:
    """Trace *geom* and pack it into CSCV arrays, one view group at a time.

    Each group's :func:`trace_group` (its ``s_vvec`` views, coalesced)
    is packed at once, so the global COO never exists; the arrays are
    bitwise those of :func:`build_cscv` on the coalesced full sweep.
    ``reference_mode`` and ``workers`` are as in :func:`build_cscv`.
    """
    dtype = normalize_dtype(dtype)
    triplets = partial(trace_group, geom, projector, dtype, params.s_vvec)
    return _build_groups(triplets, geom, params, dtype,
                         reference_mode, workers)


def _build_groups(triplets, geom, params, dtype, reference_mode,
                  workers) -> CSCVData:
    """Pack ``triplets(g)`` of every view group *g*; merge in group order."""
    if reference_mode not in ("ioblr", "btb"):
        raise FormatError(f"unknown reference_mode {reference_mode!r}")
    shape = (geom.num_rays, geom.num_pixels)
    s_vvec, s_vxg = params.s_vvec, params.s_vxg
    t0 = obs_perf.clock() if obs_perf.active else 0.0
    with span("build.cscv", reference_mode=reference_mode, s_vvec=s_vvec,
              s_imgb=params.s_imgb, s_vxg=s_vxg) as build_span, \
            profiled("build.cscv"):
        shared = _shared_inputs(geom, params, dtype, reference_mode)
        num_groups = shared["grid"].num_view_groups
        used = resolve_build_workers(workers, num_groups)

        def pack(g: int) -> dict | None:
            return _pack_group(g, *triplets(g), shared)

        with span("build.pack", workers=used, groups=num_groups):
            parts = _map_groups(pack, num_groups, used, "pack")
            parts = [p for p in parts if p is not None]
            nnz = sum(p["packed"].size for p in parts)
            num_cscve = sum(p["num_e"] for p in parts)
            with span("build.merge"):
                arrays = _merge_parts(parts) if parts else _empty_arrays(dtype)
        data = CSCVData(shape=shape, nnz=nnz, params=params, dtype=dtype,
                        **arrays)
        build_span.set(nnz=nnz, num_cscve=num_cscve, num_vxg=data.num_vxg,
                       num_blocks=data.num_blocks)
    obs_metrics.gauge(
        "build.pack.workers", "workers used by the last CSCV packing"
    ).set(used)
    validate_cscv(data)
    obs_metrics.counter("build.calls", "CSCV conversions performed").inc()
    obs_metrics.histogram(
        "build.r_nnze", "zero-padding rate per built matrix",
        buckets=(0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4),
    ).observe(data.r_nnze)
    obs_metrics.gauge(
        "build.vxg_fill", "fraction of CSCV-Z value slots that are real nonzeros"
    ).set(data.nnz / data.stored_slots if data.stored_slots else 1.0)
    if obs_perf.active:
        obs_perf.record_build(seconds=obs_perf.clock() - t0,
                              bytes_written=sum(a.nbytes for a in arrays.values()),
                              nnz=nnz)
    _release_free_heap()
    return data


def _release_free_heap() -> None:
    """Hand the build's freed heap pages back to the OS (glibc only).

    Each group's small temporaries are freed between the group outputs
    that live until the merge, so the allocator cannot shrink its heap
    from the top and keeps them resident after the build (about 18 MB at
    128²).  ``malloc_trim`` returns every free page.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


@cache
def _malloc_trim():
    """libc's ``malloc_trim``, or None where the C library has none."""
    try:
        fn = ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = [ctypes.c_size_t], ctypes.c_int
    return fn


def _shared_inputs(geom, params: CSCVParams, dtype, reference_mode) -> dict:
    """The read-only inputs every group's pack shares: the block grid and
    the reference curves ``r[view, tile]`` the offsets are taken against."""
    s_vvec = params.s_vvec
    with span("build.trajectory"):
        grid = BlockGrid(geom, params)
        refb = grid.reference_bins()                     # (views, tiles)
    with span("build.ioblr"):
        if reference_mode == "btb":
            # view-major ablation: one constant reference per (group, tile)
            for v0 in range(0, geom.num_views, s_vvec):
                refb[v0:v0 + s_vvec] = refb[v0:v0 + s_vvec].min(axis=0)
    return {
        "grid": grid,
        "refb": refb,
        "dtype": dtype,
        "num_pixels": geom.num_pixels,
        "num_views": geom.num_views,
        "num_bins": geom.num_bins,
        "num_img_blocks": grid.num_img_blocks,
        "s_vvec": s_vvec,
        "s_vxg": params.s_vxg,
        "vxg_len": params.vxg_len,
    }


# --------------------------------------------------------------------- #
# per-group packing (runs on the build pool; every array it makes is
# group-local, shared inputs are read-only)

#: The arrays a packed group contributes to the merged :class:`CSCVData`.
_GROUP_FIELDS = (
    "values", "vxg_col", "vxg_start", "blk_vxg_ptr", "vxg_voff",
    "vxg_masks", "packed", "blk_ysize", "ymap", "present_blocks",
)


def _pack_group(g: int, rows, cols, vals, sh: dict) -> dict | None:
    """Classify, sort and pack view group *g*'s triplets (None if empty).

    Nothing but the span labels depends on *g*: packed whole, a matrix
    gives the merged layout of its groups.
    """
    if rows.size == 0:
        return None
    with span("build.cscve", group=g):
        block_id, lane, bin_, tile = sh["grid"].classify(rows, cols)
        d = bin_ - sh["refb"][rows // sh["num_bins"], tile]
        d_min, d_max = int(d.min()), int(d.max())
        p = {
            "block": block_id,
            "cols": np.asarray(cols, dtype=np.int64),
            "d": d,
            "lane": lane,
            "vals": np.asarray(vals, dtype=sh["dtype"]),
            "d_min": d_min,
            "d_span": d_max - d_min + 1,
        }
        if (sh["grid"].num_blocks * sh["num_pixels"] * p["d_span"]
                * sh["s_vvec"] > 2**62):
            raise FormatError("matrix too large for int64 CSCV sort keys")
        _pack_cscve(p, sh)
    with span("build.vxg", group=g):
        _pack_vxg(p, sh)
    with span("build.ymap", group=g):
        _pack_ymap(p, sh)
    out = {name: p[name] for name in _GROUP_FIELDS}
    out["num_e"] = p["num_e"]
    return out


def _pack_cscve(p: dict, sh: dict) -> None:
    """Sort one group by (block, col, d, lane); find CSCVE bounds."""
    nnz = p["vals"].size
    col_key = p["block"] * sh["num_pixels"] + p["cols"]  # unique per (block,col)
    key = (col_key * p["d_span"] + (p["d"] - p["d_min"])) * sh["s_vvec"] + p["lane"]
    order = np.argsort(key, kind="stable")
    p["packed"] = p["vals"][order]
    # one gather; the sorted fields come back out of the key exactly
    e_key_s, p["lane_s"] = np.divmod(key[order], sh["s_vvec"])
    col_key_s, d_s = np.divmod(e_key_s, p["d_span"])
    p["d_s"] = d_s + p["d_min"]
    p["block_s"] = col_key_s // sh["num_pixels"]

    # CSCVE boundaries (sorted, so equal keys are adjacent)
    is_new_e = np.empty(nnz, dtype=bool)
    is_new_e[0] = True
    np.not_equal(e_key_s[1:], e_key_s[:-1], out=is_new_e[1:])
    e_starts = np.flatnonzero(is_new_e)
    p["e_starts"] = e_starts
    p["num_e"] = e_starts.size
    p["e_of_nnz"] = np.cumsum(is_new_e) - 1

    p["e_block"] = p["block_s"][e_starts]
    p["e_colkey"] = col_key_s[e_starts]
    p["e_col_global"] = (p["e_colkey"] % sh["num_pixels"]).astype(np.int64)
    p["e_d"] = p["d_s"][e_starts]

    # duplicate (cscve, lane) pairs would mean duplicated COO entries;
    # duplicates share a block, so the per-group check is exhaustive
    # (same CSCVE <=> not a new one; cheaper than diffing e_of_nnz)
    lane_s = p["lane_s"]
    if np.any(~is_new_e[1:] & (lane_s[1:] == lane_s[:-1])):
        raise FormatError(
            "duplicate (row, col) entries; coalesce the COO first"
        )


def _pack_vxg(p: dict, sh: dict) -> None:
    """Column groups over the group's CSCVEs; anchored VxG windows."""
    s_vvec, s_vxg, vxg_len = sh["s_vvec"], sh["s_vxg"], sh["vxg_len"]
    num_e = p["num_e"]
    nnz = p["packed"].size
    e_colkey, e_block, e_d = p["e_colkey"], p["e_block"], p["e_d"]

    is_new_c = np.empty(num_e, dtype=bool)
    is_new_c[0] = True
    np.not_equal(e_colkey[1:], e_colkey[:-1], out=is_new_c[1:])
    c_starts = np.flatnonzero(is_new_c)
    c_sizes = np.diff(np.append(c_starts, num_e))
    # within a column CSCVEs are d-ascending, so first d is min
    d_anchor = np.repeat(e_d[c_starts], c_sizes)
    w = (e_d - d_anchor) // s_vxg                 # window per CSCVE

    is_new_g = is_new_c.copy()
    is_new_g[1:] |= w[1:] != w[:-1]
    g_starts = np.flatnonzero(is_new_g)
    num_g = g_starts.size
    g_of_e = np.cumsum(is_new_g) - 1

    g_block = e_block[g_starts]
    g_col = p["e_col_global"][g_starts]
    g_window_d = d_anchor[g_starts] + w[g_starts] * s_vxg  # first offset

    # present blocks, ranges and ytilde geometry
    is_new_b = np.empty(num_g, dtype=bool)
    is_new_b[0] = True
    np.not_equal(g_block[1:], g_block[:-1], out=is_new_b[1:])
    b_starts_g = np.flatnonzero(is_new_b)
    p["present_blocks"] = g_block[b_starts_g]
    num_b = p["present_blocks"].size
    p["blk_vxg_ptr"] = np.append(b_starts_g, num_g).astype(np.int64)

    # block ranges over the nonzero array (same ordering: block-major)
    block_s = p["block_s"]
    is_new_b_nnz = np.empty(nnz, dtype=bool)
    is_new_b_nnz[0] = True
    np.not_equal(block_s[1:], block_s[:-1], out=is_new_b_nnz[1:])
    b_starts_nnz = np.flatnonzero(is_new_b_nnz)
    blk_dmin = np.minimum.reduceat(p["d_s"], b_starts_nnz)
    p["blk_dmin"] = blk_dmin

    # VxG overhang can extend past the largest nonzero offset
    g_window_end = g_window_d + s_vxg - 1
    blk_dmax = np.maximum.reduceat(g_window_end, b_starts_g)
    p["blk_ysize"] = ((blk_dmax - blk_dmin + 1) * s_vvec).astype(np.int64)

    # value placement
    b_of_g = np.cumsum(is_new_b) - 1              # block index per VxG
    p["vxg_start"] = ((g_window_d - blk_dmin[b_of_g]) * s_vvec).astype(INDEX_DTYPE)

    values = np.zeros(num_g * vxg_len, dtype=sh["dtype"])
    e_local = e_d - g_window_d[g_of_e]            # CSCVE index in window
    e_of_nnz, e_starts = p["e_of_nnz"], p["e_starts"]
    slot = g_of_e[e_of_nnz] * vxg_len + e_local[e_of_nnz] * s_vvec + p["lane_s"]
    values[slot] = p["packed"]
    p["values"] = values

    # CSCV-M: packed is CSCVE/lane ordered, i.e. already the packed
    # stream; each CSCVE's lane mask goes to its VxG slot (empty slots
    # stay 0) and each VxG keeps the packed offset of its first value
    bits = (np.uint32(1) << p["lane_s"].astype(np.uint32)).astype(np.uint32)
    masks = np.bitwise_or.reduceat(bits, e_starts).astype(np.uint32)
    vxg_masks = np.zeros(num_g * s_vxg, dtype=np.uint32)
    vxg_masks[g_of_e * s_vxg + e_local] = masks
    p["vxg_masks"] = vxg_masks
    p["vxg_voff"] = e_starts[g_starts].astype(np.int64)
    p["vxg_col"] = g_col.astype(INDEX_DTYPE)
    p["num_b"] = num_b


def _pack_ymap(p: dict, sh: dict) -> None:
    """ytilde -> global row map for the group's blocks.

    Slot positions are relative to the *block*, so the local map equals
    the corresponding segment of the global one.
    """
    s_vvec = sh["s_vvec"]
    num_b = p["num_b"]
    blk_ysize, blk_dmin = p["blk_ysize"], p["blk_dmin"]
    present_blocks = p["present_blocks"]
    refb = sh["refb"]

    blk_map_ptr = np.zeros(num_b + 1, dtype=np.int64)
    np.cumsum(blk_ysize, out=blk_map_ptr[1:])
    total_slots = int(blk_map_ptr[-1])
    slot_block = np.repeat(np.arange(num_b), blk_ysize)
    slot_pos = np.arange(total_slots) - blk_map_ptr[slot_block]
    slot_lane = slot_pos % s_vvec
    slot_d = blk_dmin[slot_block] + slot_pos // s_vvec

    group_of_block = present_blocks // sh["num_img_blocks"]
    tile_of_block = present_blocks % sh["num_img_blocks"]
    slot_view = group_of_block[slot_block] * s_vvec + slot_lane
    view_ok = slot_view < sh["num_views"]
    slot_view_c = np.minimum(slot_view, sh["num_views"] - 1)
    slot_bin = refb[slot_view_c, tile_of_block[slot_block]] + slot_d
    valid = view_ok & (slot_bin >= 0) & (slot_bin < sh["num_bins"])
    p["ymap"] = np.where(
        valid, slot_view * sh["num_bins"] + slot_bin, -1
    ).astype(np.int32)


def _merge_parts(parts: list[dict]) -> dict:
    """Ordered merge: concatenate the groups, rebase the integer pointers.

    Groups hold disjoint, ascending block ranges, so concatenation in
    group order is the global block-major layout; only ``blk_vxg_ptr``
    and ``vxg_voff`` need offsetting.  One field at a time, each group's
    copy dropped as it is merged: the peak is the output plus one field.
    """
    g_off = np.cumsum([0] + [p["vxg_col"].size for p in parts])
    nnz_off = np.cumsum([0] + [p["packed"].size for p in parts])
    out = {}
    for name in _GROUP_FIELDS:
        chunks = [p.pop(name) for p in parts]
        if name == "blk_vxg_ptr":
            chunks = [c[:-1] + off for c, off in zip(chunks, g_off)]
            chunks.append(g_off[-1:])
        elif name == "vxg_voff":
            chunks = [c + off for c, off in zip(chunks, nnz_off)]
        out[name] = np.concatenate(chunks)
        del chunks
    blk_map_ptr = np.zeros(out["blk_ysize"].size + 1, dtype=np.int64)
    np.cumsum(out["blk_ysize"], out=blk_map_ptr[1:])
    out["blk_map_ptr"] = blk_map_ptr
    return out


def _empty_arrays(dtype) -> dict:
    """The :class:`CSCVData` arrays of a matrix without nonzeros."""
    return {
        "values": np.zeros(0, dtype=dtype),
        "vxg_col": np.zeros(0, dtype=INDEX_DTYPE),
        "vxg_start": np.zeros(0, dtype=INDEX_DTYPE),
        "blk_vxg_ptr": np.zeros(1, dtype=np.int64),
        "vxg_voff": np.zeros(0, dtype=np.int64),
        "vxg_masks": np.zeros(0, dtype=np.uint32),
        "packed": np.zeros(0, dtype=dtype),
        "blk_ysize": np.zeros(0, dtype=np.int64),
        "blk_map_ptr": np.zeros(1, dtype=np.int64),
        "ymap": np.zeros(0, dtype=np.int32),
        "present_blocks": np.zeros(0, dtype=np.int64),
    }


def mask_popcount(masks: np.ndarray) -> np.ndarray:
    """Set bits of each uint32 mask."""
    x = np.array(masks, dtype=np.uint32)  # a copy, counted in place (SWAR)
    x -= (x >> 1) & np.uint32(0x55555555)
    x = (x & np.uint32(0x33333333)) + ((x >> 2) & np.uint32(0x33333333))
    x += x >> 4
    x &= np.uint32(0x0F0F0F0F)
    x *= np.uint32(0x01010101)
    x >>= 24
    return x


def _check_ptr(fail, name: str, ptr: np.ndarray, size: int, end: int) -> None:
    """*ptr* holds *size* entries from 0 to *end*, non-decreasing."""
    if ptr.size != size:
        fail(f"{name} has {ptr.size} entries, expected {size}")
    if size and (int(ptr[0]) != 0 or int(ptr[-1]) != end):
        fail(f"{name} runs {int(ptr[0])}..{int(ptr[-1])}, expected 0..{end}")
    if np.any(np.diff(ptr) < 0):
        fail(f"{name} is not non-decreasing")


def validate_cscv(data: CSCVData, source: str = "build_cscv") -> None:
    """The one structural check of a :class:`CSCVData`.

    Runs after every build and on every load (``.npz`` file or operator
    cache), so a truncated or edited array fails here with a named field
    instead of sending a C kernel out of bounds.  Sizes and pointers are
    checked first, then every index the kernels follow: VxG columns,
    VxG windows inside their block's ``ytilde``, the IOBLR map, and the
    CSCV-M mask bits against each VxG's packed-value span.  The deep
    map-injectivity check runs only under
    ``config.runtime.paranoid_checks``.
    """

    def fail(msg: str):
        raise FormatError(f"{source}: corrupt CSCV arrays: {msg}")

    (m, n), nnz, p = data.shape, data.nnz, data.params
    if m < 0 or n < 0 or nnz < 0:
        fail(f"negative shape ({m}, {n}) or nnz {nnz}")
    num_vxg = int(data.vxg_col.size)
    for name, size in (("values", num_vxg * p.vxg_len),
                       ("vxg_start", num_vxg), ("vxg_voff", num_vxg),
                       ("vxg_masks", num_vxg * p.s_vxg), ("packed", nnz)):
        if getattr(data, name).size != size:
            fail(f"{name} holds {getattr(data, name).size} entries, "
                 f"expected {size}")
    if data.blk_vxg_ptr.size == 0:
        fail("blk_vxg_ptr is empty")
    num_blocks = data.blk_vxg_ptr.size - 1
    _check_ptr(fail, "blk_vxg_ptr", data.blk_vxg_ptr, num_blocks + 1, num_vxg)
    _check_ptr(fail, "blk_map_ptr", data.blk_map_ptr, num_blocks + 1,
               data.ymap.size)
    ysize = data.blk_ysize
    if ysize.size != num_blocks or np.any(np.diff(data.blk_map_ptr) != ysize):
        fail("blk_ysize disagrees with the block maps (blk_map_ptr)")
    pb = data.present_blocks
    if pb.size != num_blocks or np.any(np.diff(pb) <= 0):
        fail("present_blocks is not one increasing id per block")

    if num_vxg:
        if int(data.vxg_col.min()) < 0 or int(data.vxg_col.max()) >= n:
            fail(f"vxg_col outside [0, n={n})")
        # per block: every VxG window ends inside the block's ytilde
        filled = np.diff(data.blk_vxg_ptr) > 0
        last = np.maximum.reduceat(data.vxg_start, data.blk_vxg_ptr[:-1][filled])
        if (int(data.vxg_start.min()) < 0 or np.any(
                last.astype(np.int64) + p.vxg_len > ysize[filled])):
            fail("a VxG overruns its block's ytilde (vxg_start)")
    if data.ymap.size and (int(data.ymap.min()) < -1
                           or int(data.ymap.max()) >= m):
        fail(f"ymap outside [-1, m={m})")
    if num_vxg and int(data.vxg_masks.max()) >> p.s_vvec:
        fail(f"vxg_masks sets a lane >= s_vvec = {p.s_vvec}")
    # each VxG's packed span starts at vxg_voff and holds exactly its set
    # mask bits: seen[i] counts the bits before slot i; all of them are nnz
    seen = np.zeros(data.vxg_masks.size + 1, dtype=np.int64)
    np.cumsum(mask_popcount(data.vxg_masks), dtype=np.int64, out=seen[1:])
    if int(seen[-1]) != nnz or np.any(data.vxg_voff != seen[:-1:p.s_vxg]):
        fail("vxg_masks popcounts disagree with the vxg_voff spans / nnz")

    if config.runtime.paranoid_checks:
        # every valid map slot must be a distinct global row per block
        for b in range(num_blocks):
            seg = data.ymap[data.blk_map_ptr[b] : data.blk_map_ptr[b + 1]]
            valid = seg[seg >= 0]
            if valid.size != np.unique(valid).size:
                raise FormatError(f"{source}: block {b}: ymap not injective")
