"""CSCV serialization: save/load converted matrices.

The Fig 7 pipeline's conversion step costs hundreds of milliseconds to
seconds; production CT reconstructors convert once per scanner geometry
and reuse the matrix across patients.  This module persists a
:class:`~repro.core.builder.CSCVData` (plus its parameter triple and
shape) as a single compressed ``.npz`` (:func:`save_cscv` /
:func:`load_cscv`) for hand-managed files — compact, but decompressed
into fresh arrays on every load.  The persistent operator cache
(:mod:`repro.core.cache`) writes its own memory-mappable layout; the
CSCV formats' cache hooks share :func:`cscv_meta_array` and
:func:`cscv_data_from_arrays` with the ``.npz`` loader.

The writer is atomic *and durable* (temp name + fsync + ``os.replace`` +
directory fsync via :mod:`repro.utils.durable`) so a killed process — or
a power cut — can never leave a truncated file behind.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from repro.core.builder import CSCVData
from repro.core.params import CSCVParams
from repro.errors import FormatError
from repro.utils.durable import replace_durable

#: bump when the array layout changes
FORMAT_VERSION = 1

_ARRAYS = (
    "values",
    "vxg_col",
    "vxg_start",
    "blk_vxg_ptr",
    "vxg_voff",
    "vxg_masks",
    "e_col",
    "e_start",
    "voff",
    "masks",
    "packed",
    "blk_e_ptr",
    "blk_ysize",
    "blk_map_ptr",
    "ymap",
    "present_blocks",
)


def cscv_meta_array(data: CSCVData) -> np.ndarray:
    """The 7-int64 header stored next to the arrays (see ``_validate``)."""
    return np.array(
        [
            FORMAT_VERSION,
            data.shape[0],
            data.shape[1],
            data.nnz,
            data.params.s_vvec,
            data.params.s_imgb,
            data.params.s_vxg,
        ],
        dtype=np.int64,
    )


def cscv_data_from_arrays(
    meta: np.ndarray, arrays: dict, *, source="<arrays>", validate: bool = True
) -> CSCVData:
    """Reassemble a :class:`CSCVData` from a meta header + array dict.

    Shared by the ``.npz`` loader and the cache's mmap loader; *arrays*
    may be memory-mapped — they are used as-is, never copied.
    """
    meta = np.asarray(meta)
    if validate:
        _validate(source, meta, arrays)
    params = CSCVParams(int(meta[4]), int(meta[5]), int(meta[6]))
    return CSCVData(
        shape=(int(meta[1]), int(meta[2])),
        nnz=int(meta[3]),
        params=params,
        dtype=arrays["values"].dtype,
        **{name: arrays[name] for name in _ARRAYS},
    )


def save_cscv(path, data: CSCVData) -> None:
    """Write *data* to *path* as a compressed ``.npz`` (atomically).

    The archive is assembled in a temp file in the same directory,
    fsynced, and ``os.replace``d into place (directory fsynced too), so
    *path* either holds the complete old content or the complete new
    content — never a truncated archive, even across a power cut.
    """
    path = Path(path)
    arrays = {name: getattr(data, name) for name in _ARRAYS}
    fd, tmp = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent or "."
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(fh, _meta=cscv_meta_array(data), **arrays)
        replace_durable(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _check_ptr(name: str, ptr: np.ndarray, end: int | None = None) -> None:
    """A pointer array must start at 0, be non-decreasing, and (when *end*
    is given) finish exactly at *end*."""
    if ptr.size == 0:
        raise FormatError(f"CSCV file corrupt: {name} is empty")
    if int(ptr[0]) != 0:
        raise FormatError(f"CSCV file corrupt: {name}[0] = {int(ptr[0])}, expected 0")
    if np.any(np.diff(ptr) < 0):
        raise FormatError(f"CSCV file corrupt: {name} is not non-decreasing")
    if end is not None and int(ptr[-1]) != end:
        raise FormatError(
            f"CSCV file corrupt: {name}[-1] = {int(ptr[-1])}, expected {end}"
        )


def _validate(path, meta: np.ndarray, arrays: dict) -> None:
    """Cross-check the loaded arrays against the metadata.

    A truncated download or a file edited by other tooling should fail
    here with a named field, not deep inside an SpMV kernel.
    """
    if meta.ndim != 1 or meta.size != 7:
        raise FormatError(
            f"{path}: _meta must hold 7 int64 entries, got shape {meta.shape}"
        )
    m, n, nnz = int(meta[1]), int(meta[2]), int(meta[3])
    if m < 0 or n < 0:
        raise FormatError(f"CSCV file corrupt: negative shape ({m}, {n})")
    if nnz < 0:
        raise FormatError(f"CSCV file corrupt: negative nnz {nnz}")
    s_vvec, s_imgb, s_vxg = int(meta[4]), int(meta[5]), int(meta[6])
    if s_vvec < 1 or s_imgb < 1 or s_vxg < 1:
        raise FormatError(
            f"CSCV file corrupt: parameters ({s_vvec}, {s_imgb}, {s_vxg}) "
            "must all be >= 1"
        )
    vxg_len = s_vxg * s_vvec
    num_vxg = int(arrays["vxg_col"].size)
    if arrays["values"].size != num_vxg * vxg_len:
        raise FormatError(
            f"CSCV file corrupt: values has {arrays['values'].size} slots, "
            f"expected num_vxg * vxg_len = {num_vxg} * {vxg_len}"
        )
    if arrays["vxg_start"].size != num_vxg:
        raise FormatError(
            f"CSCV file corrupt: vxg_start length {arrays['vxg_start'].size} "
            f"!= num_vxg {num_vxg}"
        )
    if arrays["packed"].size != nnz:
        raise FormatError(
            f"CSCV file corrupt: packed holds {arrays['packed'].size} values, "
            f"expected nnz = {nnz}"
        )
    _check_ptr("voff", arrays["voff"], nnz)
    # vxg_voff holds one packed-stream start offset per VxG (not a +1 ptr)
    if arrays["vxg_voff"].size != num_vxg:
        raise FormatError(
            f"CSCV file corrupt: vxg_voff length {arrays['vxg_voff'].size} "
            f"!= num_vxg {num_vxg}"
        )
    if np.any(np.diff(arrays["vxg_voff"]) < 0):
        raise FormatError("CSCV file corrupt: vxg_voff is not non-decreasing")
    if num_vxg and (
        int(arrays["vxg_voff"][0]) < 0 or int(arrays["vxg_voff"][-1]) > nnz
    ):
        raise FormatError(
            f"CSCV file corrupt: vxg_voff offsets outside [0, nnz={nnz}]"
        )
    _check_ptr("blk_vxg_ptr", arrays["blk_vxg_ptr"], num_vxg)
    num_blocks = int(arrays["blk_vxg_ptr"].size) - 1
    if arrays["blk_ysize"].size != num_blocks:
        raise FormatError(
            f"CSCV file corrupt: blk_ysize length {arrays['blk_ysize'].size} "
            f"!= num_blocks {num_blocks}"
        )
    if np.any(arrays["blk_ysize"] < 0):
        raise FormatError("CSCV file corrupt: blk_ysize has negative entries")
    _check_ptr("blk_e_ptr", arrays["blk_e_ptr"], int(arrays["e_col"].size))
    if arrays["blk_e_ptr"].size != num_blocks + 1:
        raise FormatError(
            f"CSCV file corrupt: blk_e_ptr length {arrays['blk_e_ptr'].size} "
            f"!= num_blocks + 1 = {num_blocks + 1}"
        )
    _check_ptr("blk_map_ptr", arrays["blk_map_ptr"], int(arrays["ymap"].size))
    if arrays["blk_map_ptr"].size != num_blocks + 1:
        raise FormatError(
            f"CSCV file corrupt: blk_map_ptr length {arrays['blk_map_ptr'].size} "
            f"!= num_blocks + 1 = {num_blocks + 1}"
        )
    map_lens = np.diff(arrays["blk_map_ptr"])
    if np.any(map_lens != arrays["blk_ysize"]):
        bad = int(np.flatnonzero(map_lens != arrays["blk_ysize"])[0])
        raise FormatError(
            f"CSCV file corrupt: block {bad} maps {int(map_lens[bad])} slots "
            f"but blk_ysize says {int(arrays['blk_ysize'][bad])}"
        )


def load_cscv(path) -> CSCVData:
    """Restore a :class:`CSCVData` saved by :func:`save_cscv`.

    Raises
    ------
    FormatError
        On version mismatch, missing arrays, or internal inconsistency
        (nnz vs packed/values sizes, non-monotone block pointers, …).
    """
    path = Path(path)
    with np.load(path) as z:
        if "_meta" not in z:
            raise FormatError(f"{path} is not a CSCV file (no _meta)")
        meta = z["_meta"]
        if meta.size < 1:
            raise FormatError(f"{path} is not a CSCV file (empty _meta)")
        if int(meta[0]) != FORMAT_VERSION:
            raise FormatError(
                f"CSCV file version {int(meta[0])} != supported {FORMAT_VERSION}"
            )
        missing = [n for n in _ARRAYS if n not in z]
        if missing:
            raise FormatError(f"CSCV file missing arrays: {missing}")
        arrays = {name: z[name] for name in _ARRAYS}
    return cscv_data_from_arrays(meta, arrays, source=path)
