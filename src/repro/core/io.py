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

from repro.core.builder import CSCVData, validate_cscv
from repro.core.params import CSCVParams
from repro.errors import FormatError, ValidationError
from repro.utils.durable import replace_durable

#: bump when the array layout changes
FORMAT_VERSION = 1

#: The arrays of a CSCV file or cache entry, one per :class:`CSCVData`
#: array field.  Files written with the per-CSCVE copy of the CSCV-M
#: stream (``e_col``, ``e_start``, ``voff``, ``masks``, ``blk_e_ptr``)
#: still load: readers take only the arrays named here.
_ARRAYS = (
    "values",
    "vxg_col",
    "vxg_start",
    "blk_vxg_ptr",
    "vxg_voff",
    "vxg_masks",
    "packed",
    "blk_ysize",
    "blk_map_ptr",
    "ymap",
    "present_blocks",
)


def cscv_meta_array(data: CSCVData) -> np.ndarray:
    """The 7-int64 header stored next to the arrays."""
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


def cscv_data_from_arrays(meta: np.ndarray, arrays: dict, *,
                          source="<arrays>") -> CSCVData:
    """Reassemble a :class:`CSCVData` from a meta header + array dict.

    Shared by the ``.npz`` loader and the cache's mmap loader; *arrays*
    may be memory-mapped — they are used as-is, never copied — and are
    checked by the builder's one structural validator.
    """
    meta = np.asarray(meta)
    if meta.ndim != 1 or meta.size != 7:
        raise FormatError(
            f"{source}: _meta must hold 7 int64 entries, got shape {meta.shape}"
        )
    try:
        params = CSCVParams(int(meta[4]), int(meta[5]), int(meta[6]))
    except ValidationError as exc:
        raise FormatError(f"{source}: corrupt CSCV parameters: {exc}") from None
    data = CSCVData(
        shape=(int(meta[1]), int(meta[2])),
        nnz=int(meta[3]),
        params=params,
        dtype=arrays["values"].dtype,
        **{name: arrays[name] for name in _ARRAYS},
    )
    validate_cscv(data, str(source))
    return data


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


def load_cscv(path) -> CSCVData:
    """Restore a :class:`CSCVData` saved by :func:`save_cscv`.

    Raises
    ------
    FormatError
        On version mismatch, missing arrays, or any structural fault
        :func:`~repro.core.builder.validate_cscv` finds (sizes, pointers,
        out-of-range indices, masks that disagree with the packed spans).
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
