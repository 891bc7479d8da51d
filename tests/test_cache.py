"""Persistent operator cache + repro.api.operator() facade tests."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.api import SkippedFormat, build_ct_matrix, build_format, operator
from repro.core.cache import OperatorCache, geometry_signature, operator_key
from repro.core.format_m import CSCVMMatrix
from repro.core.format_z import CSCVZMatrix
from repro.core.params import CSCVParams
from repro.errors import FormatError, ValidationError
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.sparse.coo import COOMatrix

SIZE = 16


@pytest.fixture()
def geom():
    return ParallelBeamGeometry.for_image(SIZE)


@pytest.fixture()
def cache(tmp_path):
    return OperatorCache(root=tmp_path / "opcache", enabled=True)


def _key(geom, **over):
    kw = dict(geom=geom, fmt="cscv-z", projector="strip", dtype=np.float32,
              params=CSCVParams(8, 8, 1))
    kw.update(over)
    return operator_key(**kw)


# ---------------------------------------------------------------------- #
# keys


class TestOperatorKey:
    def test_stable_across_instances(self, geom):
        g2 = ParallelBeamGeometry.for_image(SIZE)
        assert _key(geom) == _key(g2)
        assert len(_key(geom)) == 32 and set(_key(geom)) <= set("0123456789abcdef")

    def test_stable_across_processes(self, geom):
        code = (
            "import numpy as np;"
            "from repro.core.cache import operator_key;"
            "from repro.core.params import CSCVParams;"
            "from repro.geometry.parallel_beam import ParallelBeamGeometry;"
            f"g = ParallelBeamGeometry.for_image({SIZE});"
            "print(operator_key(geom=g, fmt='cscv-z', projector='strip',"
            " dtype=np.float32, params=CSCVParams(8, 8, 1)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == _key(geom)

    def test_any_input_changes_key(self, geom):
        base = _key(geom)
        assert _key(geom, fmt="cscv-m") != base
        assert _key(geom, projector="pixel") != base
        assert _key(geom, dtype=np.float64) != base
        assert _key(geom, params=CSCVParams(8, 8, 2)) != base
        assert _key(geom, params=None) != base
        assert _key(geom, reference_mode="btb") != base
        assert _key(geom, kind="coo") != base
        assert _key(geom, extra={"x": 1}) != base
        assert _key(ParallelBeamGeometry.for_image(SIZE + 2)) != base
        assert _key(ParallelBeamGeometry.for_image(SIZE, num_views=7)) != base

    def test_abi_bump_changes_key(self, geom, monkeypatch):
        import repro.kernels as kernels

        base = _key(geom)
        monkeypatch.setattr(kernels, "KERNELS_ABI_VERSION",
                            kernels.KERNELS_ABI_VERSION + 1)
        assert _key(geom) != base

    def test_geometry_signature_exact_floats(self, geom):
        sig = geometry_signature(geom)
        assert sig["class"] == "ParallelBeamGeometry"
        # floats are hex-encoded: two nearby values cannot collapse
        a = ParallelBeamGeometry(image_size=8, num_bins=12, num_views=4,
                                 delta_angle_deg=1.0)
        b = ParallelBeamGeometry(image_size=8, num_bins=12, num_views=4,
                                 delta_angle_deg=1.0 + 1e-15)
        assert geometry_signature(a) != geometry_signature(b)


# ---------------------------------------------------------------------- #
# store / load / counters


class TestStoreLoad:
    def test_miss_build_hit_counters(self, geom, cache):
        op1 = operator(geom, fmt="cscv-z", cache_obj=cache)
        st = cache.stats()
        assert st["misses"] >= 1 and st["stores"] == 1  # the cscv-z entry
        assert st["hits"] == 0
        op2 = operator(geom, fmt="cscv-z", cache_obj=cache)
        st = cache.stats()
        assert st["hits"] == 1
        x = np.linspace(0, 1, op1.shape[1], dtype=np.float32)
        np.testing.assert_array_equal(op1.forward(x), op2.forward(x))

    def test_bitwise_identical_spmv_spmm(self, geom, cache, rng):
        for fmt in ("cscv-z", "cscv-m"):
            fresh = operator(geom, fmt=fmt, cache=False)
            warm_src = operator(geom, fmt=fmt, cache_obj=cache)  # populates
            warm = operator(geom, fmt=fmt, cache_obj=cache)      # mmap load
            x = rng.random(fresh.shape[1]).astype(np.float32)
            X = np.ascontiguousarray(rng.random((fresh.shape[1], 3)),
                                     dtype=np.float32)
            np.testing.assert_array_equal(fresh.forward(x), warm.forward(x))
            np.testing.assert_array_equal(warm_src.forward(x), warm.forward(x))
            np.testing.assert_array_equal(fresh.fmt.spmm(X), warm.fmt.spmm(X))
            np.testing.assert_array_equal(fresh.adjoint(fresh.forward(x)),
                                          warm.adjoint(warm.forward(x)))

    def test_loaded_arrays_are_memory_mapped(self, geom, cache):
        operator(geom, fmt="cscv-z", cache_obj=cache)
        warm = operator(geom, fmt="cscv-z", cache_obj=cache)
        assert isinstance(warm.fmt.data.values, np.memmap)
        assert not warm.fmt.data.values.flags.writeable

    def test_disabled_cache_never_touches_disk(self, geom, tmp_path):
        c = OperatorCache(root=tmp_path / "off", enabled=False)
        fmt, cached = c.get_or_build(
            "deadbeef", CSCVZMatrix,
            lambda: operator(geom, cache=False).fmt,
        )
        assert not cached and not (tmp_path / "off").exists()
        assert c.load("deadbeef", CSCVZMatrix) is None

    def test_store_load_coo_roundtrip(self, geom, cache):
        coo, _ = build_ct_matrix(SIZE, geom=geom, dtype=np.float32)
        key = operator_key(geom=geom, fmt="coo", projector="strip",
                           dtype=np.float32, kind="coo")
        cache.store(key, coo)
        back = cache.load(key, COOMatrix)
        assert back is not None and back.shape == coo.shape
        x = np.linspace(0, 1, coo.shape[1], dtype=np.float32)
        np.testing.assert_array_equal(coo.spmv(x), back.spmv(x))

    def test_json_roundtrip(self, cache):
        assert cache.load_json("a" * 32) is None
        cache.store_json("a" * 32, {"answer": 42})
        assert cache.load_json("a" * 32) == {"answer": 42}

    def test_wrong_kind_rejected(self):
        with pytest.raises(FormatError):
            CSCVMMatrix.from_cache_state({"kind": "coo"}, {})
        with pytest.raises(FormatError):
            COOMatrix.from_cache_state({"kind": "cscv"}, {})


# ---------------------------------------------------------------------- #
# corruption / eviction / LRU


class TestCorruptionAndEviction:
    def test_corrupt_values_evicted_and_rebuilt(self, geom, cache):
        op = operator(geom, fmt="cscv-z", cache_obj=cache)
        key = _key(geom, params=CSCVParams())
        entry = cache._entry_path(key)
        assert entry.is_dir()
        vals = entry / "values.npy"
        raw = bytearray(vals.read_bytes())
        raw[-1] ^= 0xFF
        vals.write_bytes(bytes(raw))
        op2 = operator(geom, fmt="cscv-z", cache_obj=cache)  # rebuilds
        st = cache.stats()
        assert st["corrupt"] >= 1 and st["evictions"] >= 1
        x = np.linspace(0, 1, op.shape[1], dtype=np.float32)
        np.testing.assert_array_equal(op.forward(x), op2.forward(x))

    def test_missing_array_file_is_a_miss(self, geom, cache):
        operator(geom, fmt="cscv-z", cache_obj=cache)
        key = _key(geom, params=CSCVParams())
        (cache._entry_path(key) / "values.npy").unlink()
        assert cache.load(key, CSCVZMatrix) is None
        assert not cache._entry_path(key).exists()  # evicted

    def test_schema_mismatch_is_a_miss(self, geom, cache):
        operator(geom, fmt="cscv-z", cache_obj=cache)
        key = _key(geom, params=CSCVParams())
        ej = cache._entry_path(key) / "entry.json"
        entry = json.loads(ej.read_text())
        entry["schema"] = 999
        ej.write_text(json.dumps(entry))
        assert cache.load(key, CSCVZMatrix) is None

    def test_lru_prune_respects_protect(self, geom, cache):
        coo, _ = build_ct_matrix(SIZE, geom=geom, dtype=np.float32)
        keys = [f"{i:032x}" for i in range(3)]
        for k in keys:
            cache.store(k, coo)
            time.sleep(0.01)  # distinct stamp mtimes
        per_entry = cache.total_bytes() // 3
        cache.max_bytes = per_entry * 2
        evicted = cache.prune(protect={keys[0]})
        left = {e.key for e in cache.entries()}
        assert keys[0] in left            # protected despite being LRU
        assert evicted and evicted[0] == keys[1]

    def test_store_prunes_to_budget(self, geom, tmp_path):
        coo, _ = build_ct_matrix(SIZE, geom=geom, dtype=np.float32)
        c = OperatorCache(root=tmp_path / "tiny", enabled=True, max_bytes=1)
        c.store("b" * 32, coo)
        time.sleep(0.01)
        c.store("c" * 32, coo)
        left = {e.key for e in c.entries()}
        assert left == {"c" * 32}  # newest survives, LRU evicted

    def test_clear(self, geom, cache):
        operator(geom, fmt="cscv-z", cache_obj=cache)
        assert cache.clear() == 1
        assert cache.entries() == [] and cache.total_bytes() == 0


# ---------------------------------------------------------------------- #
# structural holes: each would send a C kernel out of bounds


HOLES = {
    "vxg_masks-half": lambda d: {"vxg_masks": d.vxg_masks[: d.vxg_masks.size // 2]},
    "ymap-past-m": lambda d: {"ymap": np.where(d.ymap >= 0, d.ymap + 10**6, -1)
                              .astype(d.ymap.dtype)},
    "vxg_col-past-n": lambda d: {"vxg_col": d.vxg_col + np.int32(10**6)},
}

#: The per-CSCVE copy of the CSCV-M stream that older files carry.
OLD_ARRAYS = ("e_col", "e_start", "voff", "masks", "blk_e_ptr")


class TestLoaderHoles:
    @pytest.mark.parametrize("hole", sorted(HOLES))
    def test_load_cscv_rejects(self, geom, tmp_path, hole):
        from repro.core.io import load_cscv, save_cscv

        data = operator(geom, fmt="cscv-z", cache=False).fmt.data
        path = tmp_path / "m.npz"
        save_cscv(path, data)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        arrays.update(HOLES[hole](data))
        np.savez_compressed(path, **arrays)
        with pytest.raises(FormatError):
            load_cscv(path)

    @pytest.mark.parametrize("hole", sorted(HOLES))
    def test_unverified_cache_entry_is_evicted_and_rebuilt(self, geom,
                                                           tmp_path, hole):
        # verify=False: no checksum catches the edit, the validator must
        cache = OperatorCache(root=tmp_path / "opcache", enabled=True,
                              verify=False)
        op = operator(geom, fmt="cscv-m", cache_obj=cache)
        entry = cache._entry_path(_key(geom, fmt="cscv-m", params=CSCVParams()))
        for name, arr in HOLES[hole](op.fmt.data).items():
            np.save(entry / f"{name}.npy", arr)
        op2 = operator(geom, fmt="cscv-m", cache_obj=cache)
        st = cache.stats()
        assert st["corrupt"] == 1 and st["evictions"] == 1
        x = np.linspace(0, 1, op.shape[1], dtype=np.float32)
        np.testing.assert_array_equal(op.forward(x), op2.forward(x))

    def test_files_with_the_old_per_cscve_arrays_still_load(self, geom, cache,
                                                           tmp_path):
        from repro.core.cache import _sha256_file
        from repro.core.io import load_cscv, save_cscv

        op = operator(geom, fmt="cscv-m", cache_obj=cache)
        old = {name: np.arange(5, dtype=np.int64) for name in OLD_ARRAYS}
        path = tmp_path / "old.npz"
        save_cscv(path, op.fmt.data)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        np.savez_compressed(path, **arrays, **old)
        entry = cache._entry_path(_key(geom, fmt="cscv-m", params=CSCVParams()))
        meta = json.loads((entry / "entry.json").read_text())
        for name, arr in old.items():
            f = entry / f"{name}.npy"
            np.save(f, arr)
            meta["files"][name] = {"sha256": _sha256_file(f),
                                   "nbytes": f.stat().st_size}
        (entry / "entry.json").write_text(json.dumps(meta))

        x = np.linspace(0, 1, op.shape[1], dtype=np.float32)
        want = op.forward(x)
        warm = operator(geom, fmt="cscv-m", cache_obj=cache)
        assert cache.stats()["corrupt"] == 0 and cache.stats()["hits"] == 1
        np.testing.assert_array_equal(warm.forward(x), want)
        np.testing.assert_array_equal(CSCVMMatrix(load_cscv(path)).spmv(x), want)


# ---------------------------------------------------------------------- #
# locking / concurrency


class TestLocking:
    def test_concurrent_bumps_are_all_counted(self, cache):
        """N threads x M bumps of the lifetime counters give exactly N*M."""
        import threading

        threads, bumps = 4, 40
        start = threading.Barrier(threads)

        def bump():
            start.wait()
            for _ in range(bumps):
                cache._bump("hits")

        workers = [threading.Thread(target=bump) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert cache.lifetime_stats()["hits"] == threads * bumps

    def test_concurrent_bumps_from_two_processes_are_all_counted(self, cache):
        """Two processes sharing a root, 200 bumps each, count 400."""
        go = cache.root.parent / "go"
        code = (
            "import pathlib, sys, time;"
            "from repro.core.cache import OperatorCache;"
            f"c = OperatorCache(root={str(cache.root)!r}, enabled=True);"
            f"go = pathlib.Path({str(go)!r});"
            "sys.stdout.write('ready\\n'); sys.stdout.flush();"
            "[time.sleep(0.001) for _ in iter(go.exists, True)];"
            "[c._bump('hits') for _ in range(200)]"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        procs = [
            subprocess.Popen([sys.executable, "-c", code], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
            for _ in range(2)
        ]
        for p in procs:  # both imported: start them together
            assert p.stdout.readline() == "ready\n", p.stderr.read()
        go.touch()
        outs = [p.communicate(timeout=120) for p in procs]
        assert all(p.returncode == 0 for p in procs), outs
        assert cache.lifetime_stats()["hits"] == 400

    def test_lock_is_exclusive_and_released(self, cache):
        with cache._lock("k1"):
            assert cache._lock_path("k1").exists()
        assert not cache._lock_path("k1").exists()

    def test_stale_lock_broken(self, cache):
        path = cache._lock_path("k2")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("0")
        old = time.time() - 3600
        os.utime(path, (old, old))
        t0 = time.monotonic()
        with cache._lock("k2", timeout=5.0):
            pass
        assert time.monotonic() - t0 < 2.0  # broke the stale lock, no wait

    def test_foreign_lock_taken_over_after_timeout(self, cache):
        path = cache._lock_path("k3")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("0")  # lock held by a process that stops refreshing
        t0 = time.monotonic()
        with cache._lock("k3", timeout=0.3):
            pass  # presumed-dead holder: lock broken and acquired
        assert 0.2 < time.monotonic() - t0 < 5.0
        assert not path.exists()  # ours after takeover: released

    def test_live_lock_times_out_and_proceeds(self, cache):
        path = cache._lock_path("k4")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("0")
        future = time.time() + 1000  # holder keeps refreshing: never stale
        os.utime(path, (future, future))
        t0 = time.monotonic()
        with cache._lock("k4", timeout=0.3):
            pass  # deadline reached: proceed unlocked (redundant build)
        assert 0.2 < time.monotonic() - t0 < 5.0
        assert path.exists()  # not ours: left in place

    def test_concurrent_warm_two_processes(self, tmp_path):
        root = tmp_path / "shared"
        code = (
            "import numpy as np;"
            "import repro;"
            "from repro.core.cache import OperatorCache;"
            f"c = OperatorCache(root={str(root)!r}, enabled=True);"
            f"op = repro.operator({SIZE}, cache_obj=c);"
            "x = np.linspace(0, 1, op.shape[1], dtype=np.float32);"
            "print(repr(float(op.forward(x).sum())))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        procs = [
            subprocess.Popen([sys.executable, "-c", code], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=120) for p in procs]
        assert all(p.returncode == 0 for p in procs), outs
        assert outs[0][0] == outs[1][0]  # identical operator either way
        c = OperatorCache(root=root, enabled=True)
        assert {e.format for e in c.entries()} == {"cscv-z"}
        assert not (root / "locks").exists() or not any(
            (root / "locks").iterdir()
        )


# ---------------------------------------------------------------------- #
# facade


class TestOperatorFacade:
    def test_defaults(self, cache):
        op = operator(SIZE, cache_obj=cache)
        assert op.fmt.name == "cscv-z" and op.dtype == np.float32
        n = SIZE * SIZE
        assert op.shape[1] == n

    def test_geometry_and_num_views(self, cache):
        op = operator(SIZE, num_views=8, cache_obj=cache)
        g = ParallelBeamGeometry.for_image(SIZE, num_views=8)
        assert op.shape == g.shape
        with pytest.raises(ValidationError):
            operator(g, num_views=8)
        with pytest.raises(ValidationError):
            operator(3.14)

    def test_bad_names_are_validation_errors(self):
        with pytest.raises(ValidationError):
            operator(SIZE, fmt="nope", cache=False)
        with pytest.raises(ValidationError):
            operator(SIZE, projector="fan", cache=False)

    def test_non_cscv_formats(self, cache):
        op = operator(SIZE, fmt="csr", cache_obj=cache)
        op2 = operator(SIZE, fmt="csr", cache_obj=cache)
        x = np.linspace(0, 1, op.shape[1], dtype=np.float32)
        np.testing.assert_array_equal(op.forward(x), op2.forward(x))
        assert cache.stats()["hits"] >= 1

    def test_non_cscv_formats_store_one_entry_each(self, geom, cache):
        operator(geom, fmt="csr", cache_obj=cache)
        assert cache.stats()["stores"] == 1  # the csr entry, no coo sweep
        operator(geom, fmt="ell", cache_obj=cache)
        assert cache.stats()["stores"] == 2  # ell traces for itself
        assert sorted(e.format for e in cache.entries()) == ["csr", "ell"]
        coo_key = operator_key(geom=geom, fmt="coo", projector="strip",
                               dtype=np.float32, kind="coo")
        assert not cache._entry_path(coo_key).exists()

    @pytest.mark.parametrize("fmt", ["cscv-z", "cscv-m"])
    def test_cold_cscv_operator_writes_one_entry_and_no_coo(self, geom, cache,
                                                           fmt):
        operator(geom, fmt=fmt, cache_obj=cache)
        entries = cache.entries()
        assert [(e.format, e.kind) for e in entries] == [(fmt, "cscv")]
        assert cache.stats()["stores"] == 1
        coo_key = operator_key(geom=geom, fmt="coo", projector="strip",
                               dtype=np.float32, kind="coo")
        assert not cache._entry_path(coo_key).exists()
        # a later CSR build of the same geometry stores only its own entry
        operator(geom, fmt="csr", cache_obj=cache)
        assert {e.format for e in cache.entries()} == {"csr", fmt}

    def test_build_ct_matrix_backward_compat(self, geom):
        coo, g = build_ct_matrix(SIZE, geom=geom)
        assert g is geom and coo.shape == geom.shape
        assert coo.vals.dtype == np.float64  # legacy default preserved
        coo32, g32 = build_ct_matrix(SIZE, dtype=np.float32)
        assert coo32.vals.dtype == np.float32 and g32.shape == geom.shape

    def test_build_format_backward_compat(self, geom):
        coo, _ = build_ct_matrix(SIZE, geom=geom, dtype=np.float32)
        fmt = build_format("cscv-z", coo, geom=geom, params=CSCVParams(8, 8, 1))
        assert fmt.params.s_vvec == 8
        with pytest.raises(ValidationError):
            build_format("cscv-z", coo)

    def test_skipped_format_is_falsy_with_reason(self):
        s = SkippedFormat(reason="needs geom=")
        assert not s and "geom" in s.reason


class TestSortOnce:
    """A conversion sorts the whole matrix at most once: triplets that are
    already canonical are copied, and column-major formats sort only the
    transpose.  Tracing sorts each view group's raw triplets; with four
    groups none of those sorts is of the matrix's size."""

    @pytest.fixture()
    def geom(self):
        return ParallelBeamGeometry.for_image(SIZE, num_views=32)

    @pytest.fixture()
    def argsorts(self, monkeypatch):
        """The size of every ``np.argsort`` call from here on."""
        sizes = []
        real = np.argsort

        def counting(a, *args, **kwargs):
            sizes.append(np.size(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        return sizes

    @pytest.mark.parametrize("fmt, sorts", [("csr", 0), ("ell", 0),
                                            ("csc", 1), ("vhcc", 1)])
    def test_cold_operator(self, geom, argsorts, fmt, sorts):
        op = operator(geom, fmt=fmt, cache=False)
        assert argsorts.count(op.fmt.nnz) == sorts

    def test_warm_csr_load(self, geom, cache, argsorts):
        operator(geom, fmt="csr", cache_obj=cache)
        argsorts.clear()
        op = operator(geom, fmt="csr", cache_obj=cache)
        assert cache.stats()["hits"] == 1
        assert argsorts.count(op.fmt.nnz) == 0

    @pytest.mark.parametrize("fmt", ["cscv-z", "cscv-m"])
    def test_to_csc_of_a_cscv_operator(self, geom, argsorts, fmt):
        op = operator(geom, fmt=fmt, cache=False)
        argsorts.clear()
        assert argsorts.count(op.to_csc().nnz) == 1


# ---------------------------------------------------------------------- #
# io: atomic save + dir layout


class TestIOPersistence:
    def test_save_cscv_atomic_on_failure(self, geom, tmp_path, monkeypatch):
        from repro.core import io as cio

        fmt = operator(geom, cache=False).fmt
        target = tmp_path / "m.npz"
        cio.save_cscv(target, fmt.data)
        good = target.read_bytes()

        def boom(*a, **kw):
            raise OSError("disk full")

        monkeypatch.setattr(cio.np, "savez_compressed", boom)
        with pytest.raises(OSError):
            cio.save_cscv(target, fmt.data)
        assert target.read_bytes() == good  # old file untouched
        assert list(tmp_path.glob("*.tmp*")) == []  # no droppings


# ---------------------------------------------------------------------- #
# autotune persistence


class TestAutotunePersistence:
    def test_model_result_cached(self, geom, cache, monkeypatch):
        import repro.core.autotune as at
        import repro.core.cache as cc

        monkeypatch.setattr(cc, "default_cache", lambda: cache)
        monkeypatch.setattr(at, "parameter_sweep",
                            _counting(at.parameter_sweep))
        coo, _ = build_ct_matrix(SIZE, geom=geom, dtype=np.float32)
        kwargs = dict(scorer="model", s_vvec_grid=(4, 8), s_imgb_grid=(8,),
                      s_vxg_grid=(1,))
        a = at.autotune_parameters(coo, geom, **kwargs)
        b = at.autotune_parameters(coo, geom, **kwargs)
        assert at.parameter_sweep.calls == 1  # second run came from cache
        assert a.best_z == b.best_z and a.best_m == b.best_m
        assert len(b.points) == len(a.points)
        c = at.autotune_parameters(coo, geom, cache=False, **kwargs)
        assert at.parameter_sweep.calls == 2
        assert c.best_z == a.best_z


def _counting(fn):
    def wrapper(*a, **kw):
        wrapper.calls += 1
        return fn(*a, **kw)

    wrapper.calls = 0
    return wrapper
