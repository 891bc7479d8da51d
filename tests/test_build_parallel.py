"""Parallel cold-build pipeline: C-kernel equivalence + determinism.

Covers the layers of the parallel build:

* the view-range C projector kernels must emit the same matrix as the
  per-view NumPy projectors for every projector, parity of image size,
  and view count (including multi-chunk sweeps);
* the view-group trace behind ``build_ct_matrix`` and every non-CSCV
  operator must equal the coalesced whole sweep, bitwise;
* the per-view-group build — from the geometry or from a COO — must
  produce the arrays of the whole-matrix pack, bitwise, for any worker
  count, and therefore identical cache entries, file by file;
* a cold build's traced peak stays a small multiple of its output.
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


#: One view, and 37 views: five groups of 8, the last one ragged.
_TRACE_GEOMS = {"one-view": (17, 1), "ragged-37": (16, 37)}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("geom_name", sorted(_TRACE_GEOMS))
@pytest.mark.parametrize("projector", ["strip", "pixel", "siddon"])
def test_build_ct_matrix_equals_serial_sweep(projector, geom_name, dtype,
                                             workers, monkeypatch):
    """Concatenated per-group coalesces equal one coalesce of the whole
    serial sweep, array for array, for any build worker count."""
    from repro.api import build_ct_matrix
    from repro.geometry import PROJECTORS

    monkeypatch.setattr(config.runtime, "build_workers", workers)
    geom = ParallelBeamGeometry.for_image(*_TRACE_GEOMS[geom_name])
    got, _ = build_ct_matrix(geom.image_size, geom=geom, projector=projector,
                             dtype=dtype)
    ref = COOMatrix.from_coo(
        geom.shape, *PROJECTORS[projector](geom, dtype=dtype), dtype=dtype
    )
    for name in ("rows", "cols", "vals"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


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


#: CSCV and non-CSCV formats whose cold entries must not depend on workers.
_ENTRY_FORMATS = ("cscv-z", "csr", "ell", "coo", "csc")


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
        from repro.resilience import faults

        manifests = {}
        for workers in (1, 2, 8):
            cache = OperatorCache(root=tmp_path / f"w{workers}", enabled=True)
            # a fault profile's failed file writes would leave no entry
            with faults.disabled():
                for fmt in _ENTRY_FORMATS:
                    operator(
                        24, fmt=fmt, params=CSCVParams(8, 8, 2),
                        dtype=np.float32, cache_obj=cache,
                        build_workers=workers,
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
        assert len(manifests[1]) == len(_ENTRY_FORMATS)  # no shared sweep


def _whole_matrix_pack(coo, geom, params, dtype, reference_mode) -> dict:
    """Every nonzero packed as one partition: one global classify, one
    global key range, one sort — the layout the groups must reproduce."""
    from repro.core import builder

    shared = builder._shared_inputs(geom, params, np.dtype(dtype),
                                    reference_mode)
    part = builder._pack_group(0, coo.rows, coo.cols, coo.vals, shared)
    return builder._merge_parts([part])


#: Geometries: an ordinary scan and the degenerate ones (one view; a view
#: count that is not a multiple of s_vvec = 4; an odd 33² image).
_GROUP_GEOMS = {
    "24x12": (24, 12),
    "one-view": (17, 1),
    "ragged-13": (24, 13),
    "odd-33": (33, None),
}
_GROUP_PARAMS = CSCVParams(4, 8, 2)


class TestGroupBuild:
    """The per-view-group build equals the whole-matrix pack."""

    @pytest.fixture(scope="class", params=[
        (proj, geom, mode, np.dtype(dt))
        for proj in ("strip", "pixel", "siddon")
        for geom in sorted(_GROUP_GEOMS)
        for mode in ("ioblr", "btb")
        for dt in (np.float32, np.float64)
    ], ids=lambda p: f"{p[0]}-{p[1]}-{p[2]}-{p[3].name}")
    def case(self, request):
        from repro.api import build_ct_matrix

        proj, name, mode, dtype = request.param
        geom = ParallelBeamGeometry.for_image(*_GROUP_GEOMS[name])
        coo, _ = build_ct_matrix(geom.image_size, geom=geom,
                                 projector=proj, dtype=dtype)
        ref = _whole_matrix_pack(coo, geom, _GROUP_PARAMS, dtype, mode)
        return proj, geom, mode, dtype, coo, ref

    @staticmethod
    def _assert_same(data, ref):
        from repro.core.io import _ARRAYS

        assert data.nnz == ref["packed"].size
        for name in _ARRAYS:
            got = getattr(data, name)
            assert got.dtype == ref[name].dtype, name
            np.testing.assert_array_equal(got, ref[name], err_msg=name)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_traced_groups_equal_whole_matrix_pack(self, case, workers):
        from repro.core.format_z import CSCVZMatrix

        proj, geom, mode, dtype, _, ref = case
        fmt = CSCVZMatrix.from_ct(
            None, geom, _GROUP_PARAMS, dtype=dtype, projector=proj,
            reference_mode=mode, build_workers=workers,
        )
        self._assert_same(fmt.data, ref)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_coo_groups_equal_whole_matrix_pack(self, case, workers):
        _, geom, mode, dtype, coo, ref = case
        data = build_cscv(coo.rows, coo.cols, coo.vals, geom, _GROUP_PARAMS,
                          dtype, reference_mode=mode, workers=workers)
        self._assert_same(data, ref)


def test_unsorted_triplets_pack_like_the_coo():
    geom = ParallelBeamGeometry.for_image(24, 13)
    rows, cols, vals = strip_area_matrix(geom)
    coo = COOMatrix.from_coo(geom.shape, rows, cols, vals)
    ref = build_cscv(coo.rows, coo.cols, coo.vals, geom, _GROUP_PARAMS)
    shuffled = np.random.default_rng(0).permutation(coo.nnz)
    got = build_cscv(coo.rows[shuffled], coo.cols[shuffled],
                     coo.vals[shuffled], geom, _GROUP_PARAMS)
    TestGroupBuild._assert_same(got, {
        f.name: getattr(ref, f.name) for f in dataclasses.fields(CSCVData)
    })


def test_unknown_projector_is_a_validation_error():
    from repro.core.format_z import CSCVZMatrix

    with pytest.raises(ValidationError, match="projector"):
        CSCVZMatrix.from_ct(None, ParallelBeamGeometry.for_image(16),
                            projector="fan")


def test_cold_build_peak_is_a_small_multiple_of_the_output():
    """Traced peak of a cold 128² build: the output plus one view group's
    working set, not the several global copies of the matrix a
    whole-matrix build holds (about 11x the output at 128²)."""
    import tracemalloc

    from repro.api import operator
    from repro.core.io import _ARRAYS

    tracemalloc.start()
    try:
        op = operator(128, cache=False, build_workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = sum(getattr(op.fmt.data, name).nbytes for name in _ARRAYS)
    assert peak < 4 * out, (peak, out)


def test_bench_build_rejects_a_changed_digest(monkeypatch):
    """The bench (and ``repro bench build``, exit 1) fails when a worker
    count changes the arrays' sha256."""
    from repro.bench import build as bench_build
    from repro.cli import main

    digests = iter(["a" * 64, "b" * 64])
    monkeypatch.setattr(bench_build, "cscv_sha256", lambda data: next(digests))
    with pytest.raises(ValidationError, match="sha256"):
        bench_build.run_build_bench(size=16, projectors=("strip",),
                                    worker_counts=(1, 2))
    digests = iter(["a" * 64, "b" * 64])
    assert main(["bench", "build", "--size", "16", "--projectors", "strip",
                 "--workers", "1,2"]) == 1


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
