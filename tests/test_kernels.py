"""Tests for the kernel build/dispatch layer."""

import numpy as np
import pytest

from repro import config
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
