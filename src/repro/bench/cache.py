"""Operator-cache bench: cold build vs warm memory-mapped load.

The operator cache turns the expensive geometry -> projector -> CSCV
pipeline into a one-time cost: the first :func:`repro.api.operator` call
builds and persists the arrays, every later call reconstructs the format
from ``np.load(..., mmap_mode="r")`` views without copying.  This bench
measures both paths against an isolated cache root and checks that the
warm operator is *bitwise identical* to the cold one (same spmv and spmm
output bits), which is the property the cache's correctness rests on.

Run via ``python -m repro bench cache``.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from repro.core.cache import OperatorCache
from repro.core.params import CSCVParams
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.tables import Table

DEFAULT_FORMATS = ("cscv-z", "cscv-m")


@dataclass
class CacheBenchRecord:
    """Cold-vs-warm timing for one format at one problem size."""

    format_name: str
    size: int
    cold_seconds: float
    warm_seconds: float
    entry_bytes: int
    spmv_identical: bool
    spmm_identical: bool

    @property
    def speedup(self) -> float:
        """Cold build time over warm mmap-load time."""
        return self.cold_seconds / self.warm_seconds if self.warm_seconds else 0.0


def _build(size: int, name: str, dtype, params, cache: OperatorCache):
    from repro.api import operator

    return operator(size, fmt=name, dtype=dtype, params=params, cache_obj=cache)


def run_cache_bench(
    *,
    size: int = 256,
    format_names=DEFAULT_FORMATS,
    dtype=np.float32,
    params: CSCVParams | None = None,
    warm_repeats: int = 3,
    root: str | None = None,
) -> list[CacheBenchRecord]:
    """Measure cold build vs warm load per format on a ``size``^2 CT matrix.

    Uses a throwaway cache root (unless ``root`` is given) so "cold" is
    genuinely cold, and every format's cold time includes its own
    projector trace; warm time is the best of ``warm_repeats`` reloads.
    """
    tmp = root or tempfile.mkdtemp(prefix="repro-cache-bench-")
    cache = OperatorCache(root=tmp, enabled=True)
    records: list[CacheBenchRecord] = []
    try:
        for name in format_names:
            with span("bench.cache", format=name, size=size) as sp:
                t0 = time.perf_counter()
                cold = _build(size, name, dtype, params, cache)
                cold_s = time.perf_counter() - t0
                warm_s = float("inf")
                warm = None
                for _ in range(max(1, warm_repeats)):
                    t0 = time.perf_counter()
                    warm = _build(size, name, dtype, params, cache)
                    warm_s = min(warm_s, time.perf_counter() - t0)
                sp.set(cold_ms=cold_s * 1e3, warm_ms=warm_s * 1e3)
            rng = np.random.default_rng(0)
            x = rng.random(cold.shape[1]).astype(cold.dtype)
            X = np.ascontiguousarray(rng.random((cold.shape[1], 4)), dtype=cold.dtype)
            spmv_ok = bool(np.array_equal(cold.forward(x), warm.forward(x)))
            spmm_ok = bool(np.array_equal(cold.fmt.spmm(X), warm.fmt.spmm(X)))
            entry_bytes = sum(
                e.nbytes for e in cache.entries() if e.format == name
            )
            rec = CacheBenchRecord(
                format_name=name,
                size=size,
                cold_seconds=cold_s,
                warm_seconds=warm_s,
                entry_bytes=entry_bytes,
                spmv_identical=spmv_ok,
                spmm_identical=spmm_ok,
            )
            obs_metrics.gauge(
                "bench.cache.speedup", "warm-load-over-cold-build speedup"
            ).set(rec.speedup)
            records.append(rec)
    finally:
        if root is None:
            shutil.rmtree(tmp, ignore_errors=True)
    return records


def render(records: list[CacheBenchRecord], *, title: str = "") -> str:
    """One row per format: build vs load, on-disk size, bit-identity."""
    t = Table(
        headers=["format", "cold build ms", "warm load ms", "speedup",
                 "entry MB", "spmv bits", "spmm bits"],
        fmt=".2f",
        title=title,
    )
    for r in records:
        t.add_row(
            r.format_name,
            r.cold_seconds * 1e3,
            r.warm_seconds * 1e3,
            f"{r.speedup:.1f}x",
            r.entry_bytes / 1e6,
            "identical" if r.spmv_identical else "DIFFER",
            "identical" if r.spmm_identical else "DIFFER",
        )
    return t.render()
