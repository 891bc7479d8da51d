"""Parallel cold-build pipeline: C-kernel equivalence + determinism.

Covers the two layers of the parallel build:

* the view-range C projector kernels must emit the same matrix as the
  per-view NumPy projectors for every projector, parity of image size,
  and view count (including multi-chunk sweeps);
* ``build_cscv`` must produce bitwise-identical arrays — and therefore
  identical cache entries, file by file — for any worker count.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro import config
from repro.core.builder import CSCVData, build_cscv
from repro.core.params import CSCVParams
from repro.errors import ValidationError
from repro.geometry.fan_beam import FanBeamGeometry
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.geometry.projector_fan import fan_strip_matrix
from repro.geometry.projector_pixel import pixel_driven_matrix
from repro.geometry.projector_siddon import siddon_matrix
from repro.geometry.projector_strip import strip_area_matrix
from repro.kernels import dispatch
from repro.sparse.coo import COOMatrix

_PROJECTORS = {
    "pixel": ("pixel_footprint_views", pixel_driven_matrix, False),
    "strip": ("strip_footprint_views", strip_area_matrix, False),
    "siddon": ("siddon_trace_views", siddon_matrix, False),
    "fan": ("fan_strip_views", fan_strip_matrix, True),
}


def _build_coo(name: str, size: int, views: int) -> COOMatrix:
    _, matrix_fn, is_fan = _PROJECTORS[name]
    geom = (FanBeamGeometry if is_fan else ParallelBeamGeometry).for_image(
        size, views
    )
    rows, cols, vals = matrix_fn(geom, dtype=np.float64)
    return COOMatrix.from_coo(geom.shape, rows, cols, vals, dtype=np.float64)


class TestCKernelEquivalence:
    """C view-range kernels vs the per-view NumPy projectors."""

    @pytest.mark.parametrize("name", sorted(_PROJECTORS))
    @pytest.mark.parametrize("size", [16, 17])
    @pytest.mark.parametrize("views", [1, 7, 64])
    def test_c_matches_numpy(self, name, size, views):
        kernel, _, _ = _PROJECTORS[name]
        if dispatch.get(kernel, np.float64) is None:
            pytest.skip("compiled backend unavailable")
        prev = config.runtime.backend
        try:
            config.runtime.backend = "c"
            c = _build_coo(name, size, views)
            config.runtime.backend = "numpy"
            py = _build_coo(name, size, views)
        finally:
            config.runtime.backend = prev
        # canonical COO: identical sparsity pattern, near-identical values
        assert c.nnz == py.nnz
        np.testing.assert_array_equal(c.rows, py.rows)
        np.testing.assert_array_equal(c.cols, py.cols)
        np.testing.assert_allclose(c.vals, py.vals, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_sweep_worker_count_invariant(self, workers):
        """The emitted COO stream never depends on the sweep chunking."""
        geom = ParallelBeamGeometry.for_image(24, 31)
        base = strip_area_matrix(geom, dtype=np.float64, workers=1)
        got = strip_area_matrix(geom, dtype=np.float64, workers=workers)
        for a, b in zip(base, got):
            np.testing.assert_array_equal(a, b)


class TestSiddonScaleGate:
    def test_numpy_only_above_cap_raises_validation_error(self, monkeypatch):
        monkeypatch.setattr(
            "repro.geometry.projector_siddon._NUMPY_PIXEL_CAP", 64
        )
        prev = config.runtime.backend
        try:
            config.runtime.backend = "numpy"
            geom = ParallelBeamGeometry.for_image(16, 4)  # 256 px > cap
            with pytest.raises(ValidationError, match="REPRO_BACKEND"):
                siddon_matrix(geom)
        finally:
            config.runtime.backend = prev

    def test_compiled_backend_lifts_cap(self, monkeypatch):
        if dispatch.get("siddon_trace_views", np.float64) is None:
            pytest.skip("compiled backend unavailable")
        monkeypatch.setattr(
            "repro.geometry.projector_siddon._NUMPY_PIXEL_CAP", 64
        )
        geom = ParallelBeamGeometry.for_image(16, 4)
        rows, _, _ = siddon_matrix(geom)
        assert rows.size > 0


class TestBuildDeterminism:
    """build_cscv output is bitwise-identical for any worker count."""

    def _arrays(self, data: CSCVData) -> dict[str, np.ndarray]:
        return {
            f.name: getattr(data, f.name)
            for f in dataclasses.fields(CSCVData)
            if isinstance(getattr(data, f.name), np.ndarray)
        }

    @pytest.mark.parametrize("reference_mode", ["ioblr", "btb"])
    def test_bitwise_identical_across_workers(self, fine_ct, reference_mode):
        coo, geom = fine_ct
        params = CSCVParams(16, 16, 2)
        base = build_cscv(
            coo.rows, coo.cols, coo.vals, geom, params, np.float32,
            reference_mode=reference_mode, workers=1,
        )
        ref = self._arrays(base)
        for workers in (2, 8):
            data = build_cscv(
                coo.rows, coo.cols, coo.vals, geom, params, np.float32,
                reference_mode=reference_mode, workers=workers,
            )
            got = self._arrays(data)
            assert got.keys() == ref.keys()
            for name, arr in got.items():
                assert arr.dtype == ref[name].dtype, name
                np.testing.assert_array_equal(arr, ref[name], err_msg=name)

    def test_env_knob_feeds_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUILD_WORKERS", "3")
        assert config.env_build_workers() == 3
        monkeypatch.setenv("REPRO_BUILD_WORKERS", "0")
        with pytest.raises(ValueError):
            config.env_build_workers()

    def test_cache_entries_identical_across_workers(self, tmp_path):
        """Same cache key AND same per-file sha256 for every worker count."""
        from repro.api import operator
        from repro.core.cache import OperatorCache

        manifests = {}
        for workers in (1, 2, 8):
            cache = OperatorCache(root=tmp_path / f"w{workers}", enabled=True)
            operator(
                24, fmt="cscv-z", params=CSCVParams(8, 8, 2),
                dtype=np.float32, cache_obj=cache, build_workers=workers,
            )
            entries = {}
            for entry_dir in sorted((cache.root / "entries").iterdir()):
                meta = json.loads((entry_dir / "entry.json").read_text())
                entries[meta["key"]] = {
                    name: info["sha256"]
                    for name, info in meta["files"].items()
                }
            manifests[workers] = entries
        assert manifests[1] == manifests[2] == manifests[8]
        assert manifests[1]  # at least the coo + cscv-z entries exist


class TestSharedPoolResize:
    def test_pool_shrinks_when_ceiling_drops(self):
        from repro.utils.pool import SharedPool

        limit = {"n": 4}
        pool = SharedPool("test-shrink", lambda: limit["n"])
        try:
            pool.get(4)
            assert pool.size == 4
            limit["n"] = 1
            pool.get(1)  # ceiling lowered at runtime -> recreate smaller
            assert pool.size == 1
        finally:
            pool.shutdown()
