"""Base class and registry for SpMV-capable sparse-matrix formats.

Every format in :mod:`repro.sparse` (and CSCV in :mod:`repro.core`)
subclasses :class:`SpMVFormat`, which fixes the public contract:

* construction from COO triplets (:meth:`SpMVFormat.from_coo`);
* ``y = A @ x`` through :meth:`SpMVFormat.spmv` /
  :meth:`SpMVFormat.spmv_into`;
* an exact accounting of the bytes the format streams per SpMV
  (:meth:`SpMVFormat.memory_bytes`) — the paper's ``M(A)`` term;
* densification for testing (:meth:`SpMVFormat.to_dense`).

Formats register themselves under a short name with
:func:`register_format`, so the bench harness can sweep "all formats" the
way the paper's evaluation does.
"""

from __future__ import annotations

import abc
from typing import Iterable, Type

import numpy as np

from repro.config import normalize_dtype
from repro.errors import FormatError, ValidationError
from repro.utils.arrays import check_1d, check_out, ensure_dtype

_REGISTRY: dict[str, Type["SpMVFormat"]] = {}


def register_format(cls: Type["SpMVFormat"]) -> Type["SpMVFormat"]:
    """Class decorator: add *cls* to the global format registry."""
    name = getattr(cls, "name", None)
    if not name:
        raise FormatError(f"{cls.__name__} must define a non-empty `name`")
    if name in _REGISTRY and _REGISTRY[name] is not cls:
        raise FormatError(f"format name {name!r} already registered")
    _REGISTRY[name] = cls
    return cls


def get_format(name: str) -> Type["SpMVFormat"]:
    """Look up a registered format class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise FormatError(
            f"unknown format {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_formats() -> list[str]:
    """Names of all registered formats, sorted."""
    return sorted(_REGISTRY)


class SpMVFormat(abc.ABC):
    """Abstract sparse matrix supporting ``y = A @ x``.

    Subclasses must set the class attribute :attr:`name` and implement
    :meth:`from_coo`, :meth:`spmv_into` and :meth:`memory_bytes`.
    """

    #: short registry name, e.g. ``"csr"``
    name: str = ""

    def __init__(self, shape: tuple[int, int], nnz: int, dtype):
        m, n = int(shape[0]), int(shape[1])
        if m < 0 or n < 0:
            raise ValidationError(f"invalid shape {shape}")
        if nnz < 0:
            raise ValidationError("nnz must be >= 0")
        self._shape = (m, n)
        self._nnz = int(nnz)
        self._dtype = normalize_dtype(dtype)

    # ------------------------------------------------------------------ #
    # core contract

    @classmethod
    @abc.abstractmethod
    def from_coo(
        cls,
        shape: tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        **kwargs,
    ) -> "SpMVFormat":
        """Build the format from (already deduplicated) COO triplets."""

    @abc.abstractmethod
    def spmv_into(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Compute ``y[:] = A @ x`` in place and return *y*.

        *y* must be a contiguous array of the matrix dtype with
        ``len(y) == shape[0]``; its previous contents are overwritten.
        """

    @abc.abstractmethod
    def memory_bytes(self) -> dict[str, int]:
        """Bytes streamed from memory for the matrix per SpMV.

        Returns a dict with at least ``{"values": ..., "indices": ...,
        "total": ...}``; ``total`` is the paper's ``M(A)``.
        """

    # ------------------------------------------------------------------ #
    # shared behaviour

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols)."""
        return self._shape

    @property
    def nnz(self) -> int:
        """Number of *stored meaningful* nonzeros (excludes padding)."""
        return self._nnz

    @property
    def dtype(self) -> np.dtype:
        """Value dtype (float32 or float64)."""
        return self._dtype

    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Compute and return ``y = A @ x`` (allocating unless *out* given)."""
        x = self._check_x(x)
        return self.spmv_into(x, check_out(out, (self._shape[0],), self._dtype))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim == 2:
            return self.spmm(x)
        return self.spmv(x)

    def spmm(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Multi-vector product ``Y = A @ X`` with ``X`` of shape (n, k).

        The multi-slice CT workload: one system matrix applied to many
        images (or sinograms) at once.  Validation and allocation live
        here; the computation is delegated to :meth:`spmm_into`, which
        formats with a vectorised multi-RHS path override.
        """
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[0] != self._shape[1]:
            raise ValidationError(
                f"X must have shape ({self._shape[1]}, k), got {X.shape}"
            )
        Xc = np.ascontiguousarray(X, dtype=self._dtype)
        out = check_out(out, (self._shape[0], X.shape[1]), self._dtype)
        return self.spmm_into(Xc, out)

    def spmm_into(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Compute ``Y[:] = A @ X`` in place (X already validated (n, k)).

        The default loops one SpMV per column; batched formats (CSR,
        CSCV-Z, CSCV-M) override with a single multi-RHS pass.
        """
        for j in range(X.shape[1]):
            Y[:, j] = self.spmv(np.ascontiguousarray(X[:, j]))
        return Y

    def _check_x(self, x: np.ndarray) -> np.ndarray:
        x = check_1d(x, self._shape[1], "x")
        return ensure_dtype(x, self._dtype, "x")

    def to_dense(self) -> np.ndarray:
        """Dense equivalent, reconstructed by multiplying by unit vectors.

        Subclasses with direct access to triplets should override this; the
        default is O(n) SpMVs and intended only for small test matrices.
        """
        m, n = self._shape
        dense = np.zeros((m, n), dtype=self._dtype)
        e = np.zeros(n, dtype=self._dtype)
        for j in range(n):
            e[j] = 1.0
            dense[:, j] = self.spmv(e)
            e[j] = 0.0
        return dense

    def to_coo_triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, vals)`` of the stored nonzeros, any order.

        Used by the adjoint fallback and the norm helpers, which must not
        densify the matrix.  Every shipped format overrides this with a
        direct O(nnz) extraction from its own arrays; this default (via
        :meth:`to_dense`) exists only for out-of-tree subclasses and is
        meant for small test matrices.
        """
        dense = self.to_dense()
        r, c = np.nonzero(dense)
        return r.astype(np.int64), c.astype(np.int64), dense[r, c]

    def index_bytes(self) -> int:
        """Bytes of index/metadata streamed per SpMV (from memory_bytes)."""
        return int(self.memory_bytes()["indices"])

    # ------------------------------------------------------------------ #
    # persistence hooks (the operator cache's per-format serialization)

    def cache_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """``(meta, arrays)`` capturing this instance for the operator cache.

        The base implementation stores the COO triplets — restoring skips
        the (dominant) projector sweep but re-runs this format's own
        ``from_coo`` conversion.  Formats whose arrays can be used
        directly (the CSCVs) override this pair with their native arrays
        so a restore is a zero-copy reconstruction.
        """
        rows, cols, vals = self.to_coo_triplets()
        meta = {
            "kind": "coo",
            "shape": [int(self._shape[0]), int(self._shape[1])],
            "dtype": str(self._dtype),
        }
        return meta, {
            "rows": np.ascontiguousarray(rows, dtype=np.int64),
            "cols": np.ascontiguousarray(cols, dtype=np.int64),
            "vals": np.ascontiguousarray(vals, dtype=self._dtype),
        }

    @classmethod
    def from_cache_state(
        cls, meta: dict, arrays: dict[str, np.ndarray], *, threads=None, **kwargs
    ) -> "SpMVFormat":
        """Rebuild an instance from :meth:`cache_state` output.

        *threads* is accepted for signature parity with the CSCV
        overrides and ignored here (COO-built formats pick their thread
        count up from ``config.runtime`` at SpMV time).  Raises
        :class:`~repro.errors.FormatError` when *meta* does not describe
        a state this class can restore.
        """
        if meta.get("kind") != "coo":
            raise FormatError(
                f"{cls.__name__} cannot restore cache entries of kind "
                f"{meta.get('kind')!r}"
            )
        m, n = meta["shape"]
        return cls.from_coo(
            (int(m), int(n)),
            np.asarray(arrays["rows"]),
            np.asarray(arrays["cols"]),
            np.asarray(arrays["vals"]),
            **kwargs,
        )

    def describe(self) -> dict:
        """Human-readable summary used by the bench reports."""
        mem = self.memory_bytes()
        return {
            "format": self.name,
            "shape": self._shape,
            "nnz": self._nnz,
            "dtype": str(self._dtype),
            "matrix MiB": mem["total"] / 2**20,
            "index MiB": mem["indices"] / 2**20,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        m, n = self._shape
        return (
            f"<{type(self).__name__} {m}x{n} nnz={self._nnz} "
            f"dtype={self._dtype}>"
        )


def coo_validate(
    shape: tuple[int, int],
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    dtype=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared COO triplet validation used by every ``from_coo``.

    Casts indices to int64, values to *dtype* (default: vals.dtype
    normalised), checks ranges and equal lengths.
    """
    m, n = int(shape[0]), int(shape[1])
    rows = ensure_dtype(rows, np.int64, "rows")
    cols = ensure_dtype(cols, np.int64, "cols")
    if dtype is None:
        dtype = normalize_dtype(np.asarray(vals).dtype if hasattr(vals, "dtype") else np.float64)
    vals = ensure_dtype(vals, dtype, "vals")
    if not (rows.shape == cols.shape == vals.shape):
        raise ValidationError(
            f"triplet arrays must have equal length, got "
            f"{rows.shape}, {cols.shape}, {vals.shape}"
        )
    if rows.size:
        if rows.min() < 0 or rows.max() >= m:
            raise ValidationError(f"row indices out of range [0, {m})")
        if cols.min() < 0 or cols.max() >= n:
            raise ValidationError(f"col indices out of range [0, {n})")
    return rows, cols, vals


def coalesce(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort triplets row-major and sum duplicates."""
    m, n = shape
    key = rows * n + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    vals = vals[order]
    if key.size:
        # the key is sorted: each run of equal keys is one (row, col)
        is_new = np.empty(key.size, dtype=bool)
        is_new[0] = True
        np.not_equal(key[1:], key[:-1], out=is_new[1:])
        if not is_new.all():
            start = np.flatnonzero(is_new)
            vals = np.add.reduceat(vals, start)
            key = key[start]
    rows, cols = np.divmod(key, n)
    # an int64 key divides into int64 arrays: casting them again would
    # copy 16 bytes per nonzero at the peak of every from_coo
    return (rows.astype(np.int64, copy=False),
            cols.astype(np.int64, copy=False), vals)
