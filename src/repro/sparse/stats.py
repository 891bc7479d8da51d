"""Matrix statistics and the paper's memory-requirement model.

Defines ``M_Rit = M(A) + M(x) + M(y)`` — the minimum bytes read per SpMV
iteration (Section V-C) — and structural statistics (row/column nnz
distributions, column bandwidth) used by the property-P3 analysis and the
performance model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.perf import format_bytes
from repro.sparse.matrix_base import SpMVFormat


@dataclass(frozen=True)
class MatrixStats:
    """Structural summary of a sparse matrix (from COO triplets)."""

    shape: tuple[int, int]
    nnz: int
    row_nnz_mean: float
    row_nnz_std: float
    row_nnz_max: int
    col_nnz_mean: float
    col_nnz_std: float
    col_nnz_max: int
    density: float

    @classmethod
    def from_coo(cls, shape, rows, cols) -> "MatrixStats":
        m, n = int(shape[0]), int(shape[1])
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        nnz = rows.size
        rc = np.bincount(rows, minlength=m) if nnz else np.zeros(m, dtype=np.int64)
        cc = np.bincount(cols, minlength=n) if nnz else np.zeros(n, dtype=np.int64)
        return cls(
            shape=(m, n),
            nnz=int(nnz),
            row_nnz_mean=float(rc.mean()) if m else 0.0,
            row_nnz_std=float(rc.std()) if m else 0.0,
            row_nnz_max=int(rc.max()) if m else 0,
            col_nnz_mean=float(cc.mean()) if n else 0.0,
            col_nnz_std=float(cc.std()) if n else 0.0,
            col_nnz_max=int(cc.max()) if n else 0,
            density=float(nnz) / (m * n) if m and n else 0.0,
        )

    def p3_spread(self, axis: str = "col") -> float:
        """Relative spread std/mean of nnz along *axis* (P3 metric)."""
        if axis == "col":
            return self.col_nnz_std / self.col_nnz_mean if self.col_nnz_mean else 0.0
        if axis == "row":
            return self.row_nnz_std / self.row_nnz_mean if self.row_nnz_mean else 0.0
        raise ValueError("axis must be 'row' or 'col'")


def memory_requirement(fmt: SpMVFormat) -> dict[str, float]:
    """The paper's ``M_Rit``: bytes that must be read per ``y = A x``.

    Returns a dict with ``M_A`` (format-dependent), ``M_x``, ``M_y`` and
    ``M_rit`` (their sum), all in bytes: the one traffic model,
    :func:`repro.obs.perf.format_bytes`, split into its terms.
    """
    traffic = format_bytes(fmt)
    m_a = float(fmt.memory_bytes()["total"])
    return {"M_A": m_a, "M_x": traffic["read"] - m_a,
            "M_y": traffic["written"], "M_rit": traffic["total"]}


def effective_bandwidth_ratio(
    fmt: SpMVFormat, seconds: float, peak_bandwidth_gbs: float
) -> float:
    """The paper's ``R_EM = M_rit / (T * M_PBw)``.

    *peak_bandwidth_gbs* is the platform's read-only bandwidth in GB/s.
    Values near 1.0 mean the implementation saturates memory bandwidth.
    """
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    if peak_bandwidth_gbs <= 0:
        raise ValueError("peak bandwidth must be positive")
    m_rit = memory_requirement(fmt)["M_rit"]
    return m_rit / (seconds * peak_bandwidth_gbs * 1e9)


def column_bandwidth(rows: np.ndarray, cols: np.ndarray, num_cols: int) -> np.ndarray:
    """Per-column row-index span ``max(row) - min(row) + 1`` (0 if empty).

    CT matrices have enormous column bandwidth in bin-major row order —
    each pixel touches every view — which is exactly why naive CSC
    vectorisation fails and IOBLR is needed.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    lo = np.full(num_cols, np.iinfo(np.int64).max, dtype=np.int64)
    hi = np.full(num_cols, -1, dtype=np.int64)
    np.minimum.at(lo, cols, rows)
    np.maximum.at(hi, cols, rows)
    span = hi - lo + 1
    span[hi < 0] = 0
    return span
