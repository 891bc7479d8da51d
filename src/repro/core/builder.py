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

Parallel packing
----------------
Steps 3-5 are partitioned by *matrix block*: contiguous block ranges with
roughly equal nnz are packed independently (on the shared build pool when
``workers > 1``) and merged by concatenation plus integer pointer
rebasing.  The global CSCVE sort key is block-major, every equal-key tie
stays inside one block (hence one partition), and all per-element float
work is partition-local, so a per-partition stable sort followed by an
ordered merge reproduces the global stable sort **bitwise** — the output
arrays are identical for any ``workers`` / partition count.  The
partitioned path always runs (one partition when ``workers == 1``), which
makes that identity structural rather than best-effort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.config import INDEX_DTYPE, normalize_dtype
from repro.core.blocks import BlockGrid
from repro.core.params import CSCVParams
from repro.errors import FormatError
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.geometry.sweep import resolve_build_workers
from repro.obs import metrics as obs_metrics
from repro.obs import perf as obs_perf
from repro.obs.profile import profiled
from repro.obs.trace import span
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
    :class:`repro.sparse.COOMatrix` guarantees this.

    ``reference_mode`` selects the local-reordering ablation:

    * ``"ioblr"`` (default) — reference curves follow the tile's
      reference-pixel trajectory (the paper's design);
    * ``"btb"`` — the reference is held *constant* within each view
      group (the view-major / Block-Transpose-Buffer layout of [14]);
      CSCVEs then run along constant-bin lines, which Fig 4 shows fill
      far worse.  Results stay correct either way — only padding and
      performance change.

    ``workers`` overrides ``config.runtime.build_workers`` for the
    packing stages.  The output is bitwise-identical for every worker
    count (see the module docstring), so cache keys and file hashes
    never depend on it.
    """
    dtype = normalize_dtype(dtype if dtype is not None else vals.dtype)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=dtype)
    if not (rows.shape == cols.shape == vals.shape):
        raise FormatError("rows/cols/vals must have equal shapes")
    shape = (geom.num_rays, geom.num_pixels)
    nnz = rows.size
    s_vvec, s_vxg = params.s_vvec, params.s_vxg

    if nnz == 0:
        data = _empty_data(shape, params, dtype)
        validate_cscv(data)
        return data

    if reference_mode not in ("ioblr", "btb"):
        raise FormatError(f"unknown reference_mode {reference_mode!r}")
    workers = resolve_build_workers(workers)
    t0 = obs_perf.clock() if obs_perf.active else 0.0
    with span("build.cscv", nnz=nnz, reference_mode=reference_mode,
              s_vvec=s_vvec, s_imgb=params.s_imgb,
              s_vxg=s_vxg) as build_span, profiled("build.cscv"):
        with span("build.trajectory"):
            grid = BlockGrid(geom, params)
            block_id, lane, bin_, tile = grid.classify(rows, cols)
            refb = grid.reference_bins()                 # (views, tiles)
            if reference_mode == "btb":
                # view-major ablation: one constant reference per (group, tile)
                refb = refb.copy()
                for g in range(grid.num_view_groups):
                    v0 = g * s_vvec
                    v1 = min(v0 + s_vvec, geom.num_views)
                    refb[v0:v1] = refb[v0:v1].min(axis=0)
        with span("build.ioblr"):
            v = rows // geom.num_bins
            d = bin_ - refb[v, tile]

        # Global sort-key geometry, shared by every partition so the keys
        # (and therefore the packed output) cannot depend on the split.
        d_min = int(d.min())
        d_span = int(d.max()) - d_min + 1
        if np.log2(float(grid.num_blocks)) + np.log2(
            float(geom.num_pixels)
        ) + np.log2(float(d_span)) + np.log2(float(s_vvec)) > 62:
            raise FormatError("matrix too large for int64 CSCV sort keys")

        ranges = _partition_ranges(block_id, grid.num_blocks, workers)
        used = min(workers, len(ranges))
        shared = {
            "num_pixels": geom.num_pixels,
            "num_views": geom.num_views,
            "num_bins": geom.num_bins,
            "num_img_blocks": grid.num_img_blocks,
            "d_min": d_min,
            "d_span": d_span,
            "s_vvec": s_vvec,
            "s_vxg": s_vxg,
            "vxg_len": params.vxg_len,
            "dtype": dtype,
            "refb": refb,
        }
        parts = []
        for b0, b1 in ranges:
            if len(ranges) == 1:
                sel = slice(None)
            else:
                sel = np.flatnonzero((block_id >= b0) & (block_id < b1))
            parts.append({
                "shared": shared,
                "block": block_id[sel],
                "cols": cols[sel],
                "d": d[sel],
                "lane": lane[sel],
                "vals": vals[sel],
            })

        def run_stage(fn):
            # Barrier round over partitions; stage spans stay on the main
            # thread so the fig7 per-stage breakdown keeps working.
            if used <= 1:
                for p in parts:
                    fn(p)
            else:
                run_resilient(build_pool, fn, parts, used, label="pack")

        with span("build.pack", workers=used, partitions=len(parts)):
            with span("build.cscve"):
                run_stage(_pack_cscve)
            with span("build.vxg"):
                run_stage(_pack_vxg)
            with span("build.ymap"):
                run_stage(_pack_ymap)
            with span("build.merge"):
                merged = _merge_parts(parts)

        total_e = sum(p["num_e"] for p in parts)
        total_g = int(merged["vxg_col"].shape[0])
        total_b = int(merged["blk_ysize"].shape[0])
        build_span.set(num_cscve=total_e, num_vxg=total_g,
                       num_blocks=total_b)
    obs_metrics.gauge(
        "build.pack.workers", "workers used by the last CSCV packing"
    ).set(used)

    data = CSCVData(
        shape=shape,
        nnz=nnz,
        params=params,
        dtype=dtype,
        **merged,
    )
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
        out_bytes = sum(
            v.nbytes for v in merged.values() if hasattr(v, "nbytes")
        )
        obs_perf.record_build(seconds=obs_perf.clock() - t0,
                              bytes_written=out_bytes, nnz=nnz)
    return data


def _partition_ranges(
    block_id: np.ndarray, num_blocks: int, parts_wanted: int
) -> list[tuple[int, int]]:
    """Contiguous block ranges with roughly equal nnz, all non-empty.

    Boundaries come from nnz quantiles over the per-block counts, so a
    skewed block population still balances; ranges that would carry zero
    nonzeros are dropped.
    """
    counts = np.bincount(block_id, minlength=num_blocks)
    cum = np.cumsum(counts)
    nnz = int(cum[-1])
    edges = [0]
    for k in range(1, max(1, parts_wanted)):
        t = k * nnz // parts_wanted
        b = int(np.searchsorted(cum, t, side="left")) + 1
        if edges[-1] < b < num_blocks:
            edges.append(b)
    edges.append(num_blocks)
    out = []
    for b0, b1 in zip(edges[:-1], edges[1:]):
        if int(cum[b1 - 1]) - (int(cum[b0 - 1]) if b0 else 0) > 0:
            out.append((b0, b1))
    return out or [(0, num_blocks)]


# --------------------------------------------------------------------- #
# per-partition packing stages (run on the build pool; every array they
# touch is partition-local, shared inputs are read-only)

def _pack_cscve(p: dict) -> None:
    """Sort one partition by (block, col, d, lane); find CSCVE bounds."""
    sh = p["shared"]
    nnz = p["vals"].size
    col_key = p["block"] * sh["num_pixels"] + p["cols"]  # unique per (block,col)
    e_key = col_key * sh["d_span"] + (p["d"] - sh["d_min"])
    full_key = e_key * sh["s_vvec"] + p["lane"]
    order = np.argsort(full_key, kind="stable")
    e_key_s = e_key[order]
    col_key_s = col_key[order]
    p["block_s"] = p["block"][order]
    p["d_s"] = p["d"][order]
    p["lane_s"] = p["lane"][order]
    p["vals_s"] = p["vals"][order]

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
    # duplicates share a block, so the per-partition check is exhaustive
    # (same CSCVE <=> not a new one; cheaper than diffing e_of_nnz)
    lane_s = p["lane_s"]
    if np.any(~is_new_e[1:] & (lane_s[1:] == lane_s[:-1])):
        raise FormatError(
            "duplicate (row, col) entries; coalesce the COO first"
        )


def _pack_vxg(p: dict) -> None:
    """Column groups over the partition's CSCVEs; anchored VxG windows."""
    sh = p["shared"]
    s_vvec, s_vxg, vxg_len = sh["s_vvec"], sh["s_vxg"], sh["vxg_len"]
    num_e = p["num_e"]
    nnz = p["vals_s"].size
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
    values[slot] = p["vals_s"]
    p["values"] = values

    # CSCV-M: vals_s is CSCVE/lane ordered, i.e. already the packed
    # stream; each CSCVE's lane mask goes to its VxG slot (empty slots
    # stay 0) and each VxG keeps the packed offset of its first value
    bits = (np.uint32(1) << p["lane_s"].astype(np.uint32)).astype(np.uint32)
    masks = np.bitwise_or.reduceat(bits, e_starts).astype(np.uint32)
    vxg_masks = np.zeros(num_g * s_vxg, dtype=np.uint32)
    vxg_masks[g_of_e * s_vxg + e_local] = masks
    p["vxg_masks"] = vxg_masks
    p["vxg_voff"] = e_starts[g_starts].astype(np.int64)
    p["g_col"] = g_col
    p["num_g"] = num_g
    p["num_b"] = num_b


def _pack_ymap(p: dict) -> None:
    """ytilde -> global row map for the partition's blocks.

    Slot positions are relative to the *block*, so the local map equals
    the corresponding segment of the global one.
    """
    sh = p["shared"]
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
    """Ordered merge: concatenate arrays, rebase the integer pointers.

    Partitions hold disjoint, ascending block ranges, so concatenation in
    partition order reproduces the global block-major layout exactly;
    only ``blk_vxg_ptr`` and ``vxg_voff`` need offsetting.
    """
    cat = {k: [] for k in (
        "values", "vxg_col", "vxg_start", "blk_vxg_ptr", "vxg_voff",
        "vxg_masks", "packed", "blk_ysize", "ymap", "present_blocks",
    )}
    g_off = nnz_off = 0
    for p in parts:
        cat["values"].append(p["values"])
        cat["vxg_col"].append(p["g_col"].astype(INDEX_DTYPE))
        cat["vxg_start"].append(p["vxg_start"])
        cat["blk_vxg_ptr"].append(p["blk_vxg_ptr"][:-1] + g_off)
        cat["vxg_voff"].append(p["vxg_voff"] + nnz_off)
        cat["vxg_masks"].append(p["vxg_masks"])
        cat["packed"].append(p["vals_s"])
        cat["blk_ysize"].append(p["blk_ysize"])
        cat["ymap"].append(p["ymap"])
        cat["present_blocks"].append(p["present_blocks"].astype(np.int64))
        g_off += p["num_g"]
        nnz_off += p["vals_s"].size
    out = {k: np.concatenate(v) for k, v in cat.items()}
    out["blk_vxg_ptr"] = np.append(out["blk_vxg_ptr"], g_off)
    blk_map_ptr = np.zeros(out["blk_ysize"].size + 1, dtype=np.int64)
    np.cumsum(out["blk_ysize"], out=blk_map_ptr[1:])
    out["blk_map_ptr"] = blk_map_ptr
    return out


def _empty_data(shape, params, dtype) -> CSCVData:
    return CSCVData(
        shape=shape,
        nnz=0,
        params=params,
        dtype=dtype,
        values=np.zeros(0, dtype=dtype),
        vxg_col=np.zeros(0, dtype=INDEX_DTYPE),
        vxg_start=np.zeros(0, dtype=INDEX_DTYPE),
        blk_vxg_ptr=np.zeros(1, dtype=np.int64),
        vxg_voff=np.zeros(0, dtype=np.int64),
        vxg_masks=np.zeros(0, dtype=np.uint32),
        packed=np.zeros(0, dtype=dtype),
        blk_ysize=np.zeros(0, dtype=np.int64),
        blk_map_ptr=np.zeros(1, dtype=np.int64),
        ymap=np.zeros(0, dtype=np.int32),
        present_blocks=np.zeros(0, dtype=np.int64),
    )


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
    from repro import config

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
