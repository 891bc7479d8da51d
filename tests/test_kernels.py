"""Tests for the kernel build/dispatch layer."""

import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro import config
from repro.api import build_ct_matrix
from repro.kernels import dispatch
from repro.kernels.cbindings import load_library
from repro.kernels.cbuild import library_path


def c_available() -> bool:
    return library_path() is not None


class TestDispatch:
    def test_numpy_backend_returns_none(self):
        prev = config.runtime.backend
        config.runtime.backend = "numpy"
        try:
            assert dispatch.get("csr_spmv", np.float64) is None
            assert dispatch.backend_in_use() == "numpy"
        finally:
            config.runtime.backend = prev

    @pytest.mark.skipif(not c_available(), reason="no C compiler")
    def test_auto_backend_serves_kernels(self):
        prev = config.runtime.backend
        config.runtime.backend = "auto"
        try:
            assert dispatch.get("csr_spmv", np.float32) is not None
            assert dispatch.get("cscv_z_spmm", np.float64) is not None
            assert dispatch.backend_in_use() == "c"
        finally:
            config.runtime.backend = prev

    @pytest.mark.skipif(not c_available(), reason="no C compiler")
    def test_unknown_kernel_falls_back(self):
        prev = config.runtime.backend
        config.runtime.backend = "auto"
        try:
            assert dispatch.get("definitely_not_a_kernel", np.float64) is None
        finally:
            config.runtime.backend = prev

    def test_omp_threads_positive(self):
        assert dispatch.omp_threads() >= 1


@pytest.mark.skipif(not c_available(), reason="no C compiler")
class TestLibrary:
    def test_abi_version(self):
        lib = load_library()
        assert lib is not None
        assert lib.abi_version >= 1

    def test_unsupported_dtype_rejected(self):
        from repro.errors import KernelError

        lib = load_library()
        with pytest.raises(KernelError):
            lib.get("csr_spmv", np.int32)

    def test_kernel_callable_cached(self):
        lib = load_library()
        a = lib.get("csr_spmv", np.float64)
        b = lib.get("csr_spmv", np.float64)
        assert a is b


@pytest.mark.skipif(not c_available(), reason="no C compiler")
class TestCKernelsDirect:
    """Drive the raw C kernels against NumPy references."""

    def test_csr_kernel(self, rng):
        m, n, nnz = 9, 7, 30
        rows = np.sort(rng.integers(0, m, nnz))
        cols = rng.integers(0, n, nnz).astype(np.int32)
        vals = rng.standard_normal(nnz)
        row_ptr = np.zeros(m + 1, dtype=np.int32)
        np.add.at(row_ptr[1:], rows, 1)
        np.cumsum(row_ptr, out=row_ptr)
        x = rng.standard_normal(n)
        y = np.zeros(m)
        fn = load_library().get("csr_spmv", np.float64)
        fn(m, row_ptr, cols, vals, x, y)
        dense = np.zeros((m, n))
        np.add.at(dense, (rows, cols), vals)
        np.testing.assert_allclose(y, dense @ x, rtol=1e-12)

    def test_csc_kernel_zeroes_output(self, rng):
        n, m = 4, 5
        col_ptr = np.array([0, 1, 1, 2, 2], dtype=np.int32)
        row_idx = np.array([0, 3], dtype=np.int32)
        vals = np.array([2.0, -1.0])
        x = np.ones(n)
        y = np.full(m, 99.0)  # must be overwritten, not accumulated
        fn = load_library().get("csc_spmv", np.float64)
        fn(m, n, col_ptr, row_idx, vals, x, y)
        np.testing.assert_allclose(y, [2.0, 0, 0, -1.0, 0])


class TestBuildFallback:
    def test_forced_c_without_library_raises(self, monkeypatch):
        from repro.errors import KernelError
        from repro.kernels import cbindings

        prev = config.runtime.backend
        config.runtime.backend = "c"
        monkeypatch.setattr(cbindings, "load_library", lambda: None)
        try:
            with pytest.raises(KernelError):
                dispatch.get("csr_spmv", np.float64)
        finally:
            config.runtime.backend = prev

    def test_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "weird")
        with pytest.raises(ValueError):
            config.env_backend()

    def test_env_threads(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "3")
        assert config.env_threads() == 3
        monkeypatch.setenv("REPRO_THREADS", "0")
        with pytest.raises(ValueError):
            config.env_threads()


#: A stand-in compiler: creates the file named after ``-o``, or fails.
_FAKE_CC = """#!/bin/sh
while [ $# -gt 0 ]; do
  if [ "$1" = -o ]; then : > "$2"; exit 0; fi
  shift
done
exit 1
"""


@pytest.mark.skipif(not Path("/bin/sh").exists(), reason="needs /bin/sh")
class TestLibraryCache:
    """``build_library`` keeps the current source's libraries only."""

    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        cache = tmp_path / "kernels"
        cache.mkdir()
        monkeypatch.setattr(config, "cache_dir", lambda: str(cache))
        return cache

    def test_build_prunes_other_sources_and_keeps_current(
        self, cache, tmp_path, monkeypatch
    ):
        from repro.kernels import cbuild

        fake_cc = tmp_path / "fake-cc"
        fake_cc.write_text(_FAKE_CC)
        fake_cc.chmod(0o755)
        monkeypatch.setenv("REPRO_CC", str(fake_cc))
        tag = cbuild._source_tag(cbuild._SRC.read_bytes())
        stale = [cache / "libreprokernels-0123456789abcdef.so",
                 cache / "libreprokernels-000000000000-0123456789abcdef.so"]
        other_flags = cache / f"libreprokernels-{tag}-0123456789abcdef.so"
        for lib in (*stale, other_flags):
            lib.write_bytes(b"")

        built = Path(cbuild.build_library())
        assert built.parent == cache and built.is_file()
        assert built.name.startswith(f"libreprokernels-{tag}-")
        assert other_flags.is_file()
        assert not any(lib.exists() for lib in stale)
        assert not list(cache.glob("*.tmp"))

    def test_failed_compile_leaves_no_temporary_file(self, cache,
                                                     monkeypatch):
        from repro.errors import KernelError
        from repro.kernels import cbuild

        monkeypatch.setenv("REPRO_CC", "false")
        with pytest.raises(KernelError):
            cbuild.build_library()
        assert not list(cache.glob("*.so")) and not list(cache.glob("*.tmp"))


@pytest.fixture(scope="module")
def portable_library(tmp_path_factory):
    """The kernels built for the generic target of the compiler (no
    ``-march=native``, so no AVX-512 and no ``HAVE_VEXPAND``): the
    scalar CSCV bodies, soft-vexpand included."""
    from repro.kernels import cbuild
    from repro.kernels.cbindings import KernelLibrary

    out = tmp_path_factory.mktemp("portable-kernels") / "libportable.so"
    for cc in cbuild._compilers():
        for flags in cbuild._FLAG_SETS:
            flags = [f for f in flags if f != "-march=native"]
            cmd = [cc, *flags, str(cbuild._SRC), "-lm", "-o", str(out)]
            try:
                proc = subprocess.run(cmd, capture_output=True, timeout=120)
            except (OSError, subprocess.TimeoutExpired):
                continue
            if proc.returncode == 0:
                return KernelLibrary(str(out))
    pytest.skip("no C compiler builds the portable kernels")


@pytest.mark.skipif(not c_available(), reason="no C compiler")
@pytest.mark.parametrize("params", [(8, 16, 2), (12, 8, 2)],
                         ids=lambda p: "x".join(map(str, p)))
@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=lambda d: np.dtype(d).name)
def test_portable_cscv_bodies_equal_native(portable_library, dtype, params):
    """The four CSCV drivers of the portable build are bitwise the native
    build's for k in {1, 3, 8}: on an AVX-512 host this pits the scalar
    1-wide bodies (soft-vexpand, the per-VxG dot) against the vector
    ones."""
    from repro.core.format_z import CSCVZMatrix
    from repro.core.params import CSCVParams
    from repro.core.spmv import ROUTES, _c_args

    coo, geom = build_ct_matrix(64, dtype=dtype)
    data = CSCVZMatrix.from_ct(coo, geom, CSCVParams(*params)).data
    native = load_library()
    rng = np.random.default_rng(13)
    for (adjoint, variant), kernel in sorted(ROUTES.items()):
        m, n = data.shape
        size_in, size_out = (m, n) if adjoint else (n, m)
        for k in (1, 3, 8):
            X = (rng.random((size_in, k)) - 0.5).astype(dtype)
            X.reshape(-1)[rng.integers(0, X.size, X.size // 20)] = -0.0
            outs = []
            for lib in (native, portable_library):
                Y = np.zeros((size_out, k), dtype)
                lib.get(kernel, dtype)(*_c_args(variant, adjoint, data, X, Y, 2))
                outs.append(Y.view(np.uint32 if Y.dtype == np.float32 else np.uint64))
            np.testing.assert_array_equal(outs[1], outs[0],
                                          err_msg=f"{kernel} k={k}")
