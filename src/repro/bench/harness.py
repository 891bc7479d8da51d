"""Measurement harness: the paper's test protocol (Section V-C).

``measure_format`` times SpMV with the min-of-N protocol and reports the
three quantities the paper reports: execution time, GFLOP/s
(``2 nnz / T``) and the effective memory-bandwidth usage ratio ``R_EM``.
``run_suite`` sweeps a list of formats over one matrix and collects
records; the experiment modules feed those into the paper-style tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import build_format
from repro.core.params import CSCVParams
from repro.errors import ValidationError
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.sparse.coo import COOMatrix
from repro.sparse.matrix_base import SpMVFormat
from repro.obs.trace import span
from repro.sparse.stats import memory_requirement
from repro.utils.timing import gflops, time_stats


@dataclass
class PerfRecord:
    """One (format, matrix) measurement.

    ``seconds`` (the min) stays the headline number per the paper's
    protocol; ``mean/std/p50`` expose run-to-run noise.
    """

    format_name: str
    dtype: str
    seconds: float
    gflops: float
    m_rit_bytes: float
    bw_gbs: float  # achieved effective traffic rate
    nnz: int
    mean_seconds: float = 0.0
    std_seconds: float = 0.0
    p50_seconds: float = 0.0
    timed_iterations: int = 0

    def r_em(self, peak_bw_gbs: float) -> float:
        """Effective bandwidth usage ratio against *peak_bw_gbs*."""
        if peak_bw_gbs <= 0:
            raise ValidationError("peak bandwidth must be positive")
        return self.bw_gbs / peak_bw_gbs

    @property
    def noise(self) -> float:
        """Relative run-to-run spread, ``std / mean`` (0 when unknown)."""
        return self.std_seconds / self.mean_seconds if self.mean_seconds else 0.0


def measure_format(
    fmt: SpMVFormat,
    *,
    iterations: int = 50,
    max_seconds: float = 3.0,
    x: np.ndarray | None = None,
) -> PerfRecord:
    """Min-of-N SpMV timing of one format instance."""
    m, n = fmt.shape
    if x is None:
        x = np.linspace(0.5, 1.5, n).astype(fmt.dtype)
    else:
        x = np.asarray(x, dtype=fmt.dtype)
    y = np.zeros(m, dtype=fmt.dtype)
    with span("bench.measure", format=fmt.name, dtype=str(fmt.dtype),
              nnz=fmt.nnz) as meas_span:
        stats = time_stats(
            lambda: fmt.spmv_into(x, y),
            iterations=iterations,
            max_seconds=max_seconds,
        )
        meas_span.set(min_ms=stats.min * 1e3, mean_ms=stats.mean * 1e3,
                      iterations=stats.iterations)
    t = stats.min
    mem = memory_requirement(fmt)
    return PerfRecord(
        format_name=fmt.name,
        dtype=str(fmt.dtype),
        seconds=t,
        gflops=gflops(fmt.nnz, t),
        m_rit_bytes=mem["M_rit"],
        bw_gbs=mem["M_rit"] / t / 1e9,
        nnz=fmt.nnz,
        mean_seconds=stats.mean,
        std_seconds=stats.std,
        p50_seconds=stats.p50,
        timed_iterations=stats.iterations,
    )


def run_suite(
    coo: COOMatrix,
    geom: ParallelBeamGeometry,
    format_names: list[str],
    *,
    dtype=np.float32,
    params: CSCVParams | None = None,
    params_by_format: dict[str, CSCVParams] | None = None,
    iterations: int = 50,
    max_seconds: float = 3.0,
) -> list[PerfRecord]:
    """Measure every named format on one matrix.

    ``params_by_format`` overrides the CSCV parameter triple per format
    name (Table III uses different triples for CSCV-Z and CSCV-M).
    """
    records = []
    cast = coo if coo.vals.dtype == np.dtype(dtype) else coo.astype(dtype)
    for name in format_names:
        p = (params_by_format or {}).get(name, params)
        fmt = build_format(name, cast, geom=geom, params=p)
        records.append(
            measure_format(fmt, iterations=iterations, max_seconds=max_seconds)
        )
    return records
