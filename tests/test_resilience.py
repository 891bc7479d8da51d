"""Chaos suite: fault injection, numerical guards, watchdog, degradation.

Every test installs its own fault plan via ``faults.inject`` (which
*replaces* the active plan), so the suite is deterministic even when the
whole CI job runs under ``REPRO_FAULTS=chaos``.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import config, obs
from repro.api import build_ct_matrix, operator, reconstruct
from repro.cli import main as cli_main
from repro.core.cache import OperatorCache
from repro.core.format_z import CSCVZMatrix
from repro.errors import (
    FormatError,
    NumericalError,
    SolverError,
    ValidationError,
)
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.geometry.phantom import disk_phantom, shepp_logan
from repro.recon import ProjectionOperator
from repro.resilience import faults
from repro.resilience.faults import PROFILES, FaultInjected, parse_plan
from repro.resilience.guards import check as guard_check
from repro.resilience.guards import enabled_for
from repro.resilience.retry import backoff_delays, call_with_retries
from repro.resilience.watchdog import ResidualWatchdog, resolve_watchdog
from repro.sparse.csr import CSRMatrix
from repro.utils.pool import SharedPool, run_resilient

SIZE = 16


@pytest.fixture(autouse=True)
def _no_ambient_faults():
    """Neutralise any CI-wide fault plan; each test injects its own."""
    prev = config.runtime.faults
    faults.configure("")
    yield
    faults.configure(prev)


@pytest.fixture(autouse=True)
def _guard_off():
    prev = config.runtime.guard
    config.runtime.guard = "off"
    yield
    config.runtime.guard = prev


@pytest.fixture
def metrics():
    obs.registry.reset()
    yield obs.registry
    obs.registry.reset()


@pytest.fixture
def geom():
    return ParallelBeamGeometry.for_image(SIZE)


@pytest.fixture
def cache(tmp_path):
    return OperatorCache(root=tmp_path / "opcache", enabled=True)


@pytest.fixture(scope="module")
def problem():
    geom = ParallelBeamGeometry.for_image(SIZE, num_views=32)
    coo, geom = build_ct_matrix(SIZE, geom=geom)
    truth = disk_phantom(SIZE, radius_frac=0.5).ravel()
    csr = CSRMatrix.from_coo_matrix(coo)
    op = ProjectionOperator(csr)
    sino = op.forward(truth)
    return csr, geom, op, truth, sino


def _counter(reg, name):
    inst = reg.get(name)
    return 0.0 if inst is None else inst.value


# ---------------------------------------------------------------------- #
# plan parsing / firing semantics


class TestFaultPlans:
    def test_parse_rules_and_options(self):
        plan = parse_plan("a.b:raise,c.*:corrupt:p=0.25:every=2:times=3:after=1")
        assert len(plan.rules) == 2
        r = plan.rules[1]
        assert (r.pattern, r.action) == ("c.*", "corrupt")
        assert (r.p, r.every, r.times, r.after) == (0.25, 2, 3, 1)

    def test_profiles_expand(self):
        plan = parse_plan("chaos")
        assert len(plan.rules) == 6
        patterns = {r.pattern for r in plan.rules}
        assert {"journal.append", "ckpt.store"} <= patterns
        assert faults.PROFILES["kernel-chaos"].startswith("kernel.build")

    @pytest.mark.parametrize("bad", [
        "nocolon", "a.b:raise:oops", "a.b:raise:p=2", "a.b:raise:every=0",
        "a.b:raise:wat=1",
    ])
    def test_malformed_rules_raise(self, bad):
        with pytest.raises(ValueError):
            parse_plan(bad)

    def test_empty_plan_never_fires(self):
        assert parse_plan("").rules == []
        assert faults.fire("anything") is None

    def test_every_after_times(self):
        with faults.inject("s:raise:every=2:after=1:times=2"):
            fired = []
            for _ in range(10):
                try:
                    faults.fire("s")
                    fired.append(False)
                except FaultInjected:
                    fired.append(True)
            # matches 3, 5 fire ((m - after) % every == 0), then exhausted
            assert fired == [False, False, True, False, True] + [False] * 5

    def test_probability_is_seeded_deterministic(self):
        def pattern(spec):
            out = []
            with faults.inject(spec):
                for _ in range(40):
                    try:
                        faults.fire("s")
                        out.append(0)
                    except FaultInjected:
                        out.append(1)
            return out

        a = pattern("seed=7,s:raise:p=0.5")
        b = pattern("seed=7,s:raise:p=0.5")
        c = pattern("seed=8,s:raise:p=0.5")
        assert a == b
        assert a != c
        assert 0 < sum(a) < 40

    def test_first_matching_rule_owns_the_site(self):
        with faults.inject("a.*:raise:every=2,a.b:raise"):
            # the wildcard rule matches first; the exact rule never runs
            assert faults.fire("a.b") is None
            with pytest.raises(FaultInjected):
                faults.fire("a.b")

    def test_directive_actions_are_returned_not_raised(self):
        with faults.inject("cache.load.read:corrupt"):
            assert faults.fire("cache.load.read") == "corrupt"

    def test_inject_replaces_and_restores(self):
        faults.configure(PROFILES["chaos"])
        try:
            with faults.inject("only.this:raise"):
                # the chaos rules are gone inside the scope
                assert faults.fire("cache.lock") is None
                assert faults.active_spec() == "only.this:raise"
            assert faults.active_spec() == PROFILES["chaos"]
        finally:
            faults.reset()

    def test_disabled_window(self):
        with faults.inject("s:raise"):
            with faults.disabled():
                assert faults.fire("s") is None
            with pytest.raises(FaultInjected):
                faults.fire("s")

    def test_firings_are_counted(self, metrics):
        with faults.inject("s:raise:times=2"):
            for _ in range(2):
                with pytest.raises(FaultInjected):
                    faults.fire("s")
        assert _counter(metrics, "faults.injected.s") == 2
        assert _counter(metrics, "faults.injected.total") == 2

    def test_corrupt_array_nan_inf_and_noop(self):
        arr = np.ones(4, dtype=np.float32)
        assert faults.corrupt_array("s", arr) is arr  # no plan: no copy
        with faults.inject("s:nan"):
            out = faults.corrupt_array("s", arr)
            assert np.isnan(out[0]) and arr[0] == 1.0
        with faults.inject("s:inf"):
            assert np.isinf(faults.corrupt_array("s", arr)[0])


# ---------------------------------------------------------------------- #
# retry / backoff primitives


class TestRetryPrimitives:
    def test_backoff_is_capped_and_jittered(self):
        gen = backoff_delays(base=0.1, cap=0.4, jitter=0.5, seed=3)
        delays = [next(gen) for _ in range(6)]
        for k, d in enumerate(delays):
            nominal = min(0.4, 0.1 * 2 ** k)
            assert 0.5 * nominal <= d <= 1.5 * nominal

    def test_backoff_seeded_reproducible(self):
        a = backoff_delays(base=0.1, cap=1.0, seed=5)
        b = backoff_delays(base=0.1, cap=1.0, seed=5)
        assert [next(a) for _ in range(5)] == [next(b) for _ in range(5)]

    def test_call_with_retries_recovers_and_counts(self, metrics):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        assert call_with_retries(flaky, site="t", attempts=3) == "ok"
        assert _counter(metrics, "retry.t.attempts") == 2

    def test_call_with_retries_final_failure_propagates(self):
        with pytest.raises(OSError):
            call_with_retries(lambda: (_ for _ in ()).throw(OSError("x")),
                              site="t", attempts=2)
        with pytest.raises(ValueError):
            call_with_retries(lambda: 1, site="t", attempts=0)

    def test_call_with_retries_sleeps_between_attempts(self):
        naps = []
        with pytest.raises(OSError):
            call_with_retries(
                lambda: (_ for _ in ()).throw(OSError("x")),
                site="t", attempts=3, base=0.01, sleep=naps.append,
            )
        assert len(naps) == 2 and all(n > 0 for n in naps)


# ---------------------------------------------------------------------- #
# pool degradation


class TestPoolDegradation:
    @pytest.fixture
    def pool(self):
        p = SharedPool("test-resilience", lambda: 2)
        yield p
        p.shutdown()

    def test_clean_run_matches_map(self, pool, metrics):
        out = run_resilient(pool, lambda i: i * i, range(6), 2, label="t")
        assert out == [i * i for i in range(6)]
        assert _counter(metrics, "retry.pool.task.t.attempts") == 0

    def test_every_task_crashing_degrades_to_serial(self, pool, metrics):
        with faults.inject("pool.task.t:raise"):
            out = run_resilient(pool, lambda i: i + 1, range(4), 2, label="t")
        assert out == [1, 2, 3, 4]
        assert _counter(metrics, "retry.pool.task.t.attempts") == 4
        assert _counter(metrics, "retry.pool.task.t.serial_fallbacks") == 4

    def test_intermittent_crashes_recover_bitwise(self, pool, metrics):
        with faults.inject("pool.task.t:raise:every=2"):
            out = run_resilient(pool, lambda i: i * 3, range(8), 2, label="t")
        assert out == [i * 3 for i in range(8)]
        assert _counter(metrics, "retry.pool.task.t.attempts") >= 1

    def test_real_deterministic_bug_still_propagates(self, pool):
        def bad(i):
            raise ValueError("genuine bug")

        with pytest.raises(ValueError, match="genuine bug"):
            run_resilient(pool, bad, range(2), 2, label="t")


# ---------------------------------------------------------------------- #
# cache faults


class TestCacheFaults:
    def test_corrupt_load_evicts_and_rebuilds(self, geom, cache):
        op1 = operator(geom, fmt="cscv-z", cache_obj=cache)
        with faults.inject("cache.load.read:corrupt:times=1"):
            op2 = operator(geom, fmt="cscv-z", cache_obj=cache)
        st = cache.stats()
        assert st["corrupt"] >= 1 and st["evictions"] >= 1
        x = np.linspace(0, 1, op1.shape[1], dtype=np.float32)
        np.testing.assert_array_equal(op1.forward(x), op2.forward(x))

    def test_short_read_is_a_miss(self, geom, cache):
        op = operator(geom, fmt="cscv-z", cache_obj=cache)
        with faults.inject("cache.load.read:short-read:times=1"):
            op2 = operator(geom, fmt="cscv-z", cache_obj=cache)
        assert cache.stats()["corrupt"] >= 1
        x = np.linspace(0, 1, op.shape[1], dtype=np.float32)
        np.testing.assert_array_equal(op.forward(x), op2.forward(x))

    def test_enospc_store_degrades_to_uncached(self, geom, cache):
        with faults.inject("cache.store.write:enospc"):
            op = operator(geom, fmt="cscv-z", cache_obj=cache)
        assert int(cache.lifetime_stats().get("store_errors", 0)) >= 1
        clean = operator(geom, fmt="cscv-z", cache=False)
        x = np.linspace(0, 1, op.shape[1], dtype=np.float32)
        np.testing.assert_array_equal(op.forward(x), clean.forward(x))

    def test_lock_timeout_proceeds_unlocked(self, cache, metrics):
        with faults.inject("cache.lock:timeout"):
            with cache._lock("k9"):
                assert not cache._lock_path("k9").exists()
        assert _counter(metrics, "cache.lock_timeouts") == 1

    def test_truncated_array_file_is_a_miss_and_evicted(self, geom, cache):
        operator(geom, fmt="cscv-z", cache_obj=cache)
        entries = [e for e in cache.entries() if e.format == "cscv-z"]
        assert entries
        entry = cache._entry_path(entries[0].key)
        vals = entry / "values.npy"
        vals.write_bytes(vals.read_bytes()[: max(1, vals.stat().st_size // 2)])
        assert cache.load(entries[0].key, CSCVZMatrix) is None
        assert not entry.exists()
        assert cache.stats()["corrupt"] >= 1


# ---------------------------------------------------------------------- #
# kernel build / load degradation (satellite)


@pytest.fixture
def kernel_state():
    """Clean kernel module state; restore after the test."""
    from repro.kernels import cbindings, cbuild

    cbindings.reset_load_state()
    yield
    cbindings.reset_load_state()
    cbuild.reset_cache_state()


@pytest.fixture
def compiled_lib():
    """Path to a real compiled library, or skip when no toolchain."""
    from repro.kernels import cbuild

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        path = cbuild.library_path()
    if path is None:
        pytest.skip("no working C toolchain in this environment")
    return path


class TestKernelDispatchDegradation:
    def test_missing_library_falls_back_with_one_warning(
        self, compiled_lib, kernel_state, metrics, monkeypatch
    ):
        from repro.kernels import cbindings, dispatch

        monkeypatch.setattr(config.runtime, "backend", "auto")
        with faults.inject("kernel.load:missing:times=1"):
            with pytest.warns(RuntimeWarning, match="missing"):
                assert cbindings.load_library() is None
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a second warning would fail
                assert cbindings.load_library() is None
                assert dispatch.get("csr_spmv", np.float64) is None
                assert dispatch.backend_in_use() == "numpy"
        assert _counter(metrics, "kernel.load.failures") == 1
        assert _counter(metrics, "dispatch.fallback.csr_spmv") == 2

    def test_corrupt_library_falls_back_with_one_warning(
        self, compiled_lib, kernel_state, metrics, monkeypatch
    ):
        from repro.kernels import cbindings, dispatch

        monkeypatch.setattr(config.runtime, "backend", "auto")
        with faults.inject("kernel.load:corrupt:times=1"):
            with pytest.warns(RuntimeWarning, match="unloadable"):
                assert cbindings.load_library() is None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert dispatch.get("csr_spmv", np.float32) is None
        assert _counter(metrics, "kernel.load.failures") == 1
        assert _counter(metrics, "dispatch.fallback.csr_spmv") == 1

    def test_numpy_fallback_is_numerically_unaffected(
        self, compiled_lib, kernel_state, problem, monkeypatch
    ):
        csr, _, op, truth, _ = problem
        monkeypatch.setattr(config.runtime, "backend", "auto")
        clean = op.forward(truth)
        from repro.kernels import cbindings

        cbindings.reset_load_state()
        with faults.inject("kernel.load:missing:times=1"):
            with pytest.warns(RuntimeWarning):
                cbindings.load_library()
            degraded = op.forward(truth)
        np.testing.assert_allclose(degraded, clean, rtol=1e-12)

    def test_forced_c_backend_raises_instead_of_degrading(
        self, compiled_lib, kernel_state, monkeypatch
    ):
        from repro.errors import KernelError
        from repro.kernels import dispatch

        monkeypatch.setattr(config.runtime, "backend", "c")
        with faults.inject("kernel.load:missing:times=1"):
            with pytest.warns(RuntimeWarning):
                with pytest.raises(KernelError, match="REPRO_BACKEND=c"):
                    dispatch.get("csr_spmv", np.float64)


class TestCompileFailureMarker:
    def test_injected_build_failure_writes_persistent_marker(
        self, kernel_state, tmp_path, metrics, monkeypatch
    ):
        from repro.kernels import cbuild

        monkeypatch.setattr(config, "cache_dir", lambda: str(tmp_path))
        cbuild.reset_cache_state()
        with faults.inject("kernel.build:fail"):
            with pytest.warns(RuntimeWarning, match="unavailable"):
                assert cbuild.library_path() is None
        marker = cbuild.failure_marker_path()
        assert marker.is_file()
        assert "fault injected" in marker.read_text()

        # a "new process": the marker short-circuits the compile attempt
        cbuild.reset_cache_state()
        with pytest.warns(RuntimeWarning, match="previous compile failed"):
            assert cbuild.library_path() is None
        assert _counter(metrics, "kernel.build.marker_skips") == 1
        assert not list(tmp_path.glob("*.so"))  # no compiler was invoked

    def test_explicit_build_retries_and_clears_marker(
        self, compiled_lib, kernel_state, tmp_path, monkeypatch
    ):
        from repro.kernels import cbuild

        monkeypatch.setattr(config, "cache_dir", lambda: str(tmp_path))
        cbuild.reset_cache_state()
        with faults.inject("kernel.build:fail"):
            with pytest.warns(RuntimeWarning):
                assert cbuild.library_path() is None
        assert cbuild.failure_marker_path().is_file()
        path = cbuild.build_library()  # `repro kernels build` path
        assert Path(path).is_file()
        assert not cbuild.failure_marker_path().is_file()
        cbuild.reset_cache_state()
        assert cbuild.library_path() == path


# ---------------------------------------------------------------------- #
# numerical guards


class TestGuards:
    def test_levels_gate_kinds(self):
        config.runtime.guard = "off"
        assert not enabled_for("input") and not enabled_for("output")
        config.runtime.guard = "inputs"
        assert enabled_for("input") and not enabled_for("output")
        config.runtime.guard = "full"
        assert enabled_for("input") and enabled_for("output")

    def test_off_passes_nan_through(self):
        bad = np.array([1.0, np.nan])
        assert guard_check(bad, "x", where="t") is bad

    def test_inputs_level_names_array_and_boundary(self, metrics):
        config.runtime.guard = "inputs"
        with pytest.raises(NumericalError, match="sinogram at t .*1 non-finite"):
            guard_check(np.array([np.inf, 1.0]), "sinogram", where="t")
        assert _counter(metrics, "guard.nonfinite.t") == 1
        assert _counter(metrics, "guard.checks") == 1
        # output kind is not screened at this level
        guard_check(np.array([np.nan]), "y", where="t", kind="output")

    def test_full_level_screens_outputs(self):
        config.runtime.guard = "full"
        with pytest.raises(NumericalError):
            guard_check(np.array([np.nan]), "A x", where="t", kind="output")

    def test_solver_rejects_nan_sinogram(self, problem):
        _, _, op, _, sino = problem
        bad = np.array(sino, copy=True)
        bad[0] = np.nan
        config.runtime.guard = "inputs"
        for solver in (
            lambda: reconstruct(op, bad, solver="sirt", iterations=2).image,
            lambda: reconstruct(op, bad, solver="cgls", iterations=2).image,
            lambda: reconstruct(op, bad, solver="art", iterations=2).image,
        ):
            with pytest.raises(NumericalError, match="sinogram"):
                solver()
        config.runtime.guard = "off"
        reconstruct(op, bad, solver="sirt", iterations=1)  # unguarded: no raise

    def test_poisoned_operator_input_caught_at_boundary(self, problem):
        _, _, op, truth, sino = problem
        config.runtime.guard = "inputs"
        with faults.inject("operator.input.forward:nan"):
            with pytest.raises(NumericalError, match="operator.forward"):
                op.forward(truth)
        with faults.inject("operator.input.adjoint:inf"):
            with pytest.raises(NumericalError, match="operator.adjoint"):
                op.adjoint(sino)
        # with guards off the poison flows through silently
        config.runtime.guard = "off"
        with faults.inject("operator.input.forward:nan"):
            assert np.isnan(op.forward(truth)).any()


# ---------------------------------------------------------------------- #
# residual watchdog


class TestWatchdogUnit:
    def test_improving_run_is_ok_and_tracks_best(self):
        wd = ResidualWatchdog(solver="t", relax=1.0)
        for k, r in enumerate([3.0, 2.0, 1.0]):
            assert wd.observe(k, r, np.full(2, float(k))) == "ok"
        assert wd.best_residual == 1.0
        np.testing.assert_array_equal(wd.best_x, [2.0, 2.0])

    def test_growth_needs_patience_consecutive(self):
        wd = ResidualWatchdog(solver="t", relax=1.0, patience=3)
        wd.observe(0, 1.0, np.zeros(1))
        assert wd.observe(1, 3.0, np.zeros(1)) == "ok"
        assert wd.observe(2, 3.0, np.zeros(1)) == "ok"
        assert wd.observe(3, 1.5, np.zeros(1)) == "ok"  # streak resets
        assert wd.observe(4, 3.0, np.zeros(1)) == "ok"
        assert wd.observe(5, 3.0, np.zeros(1)) == "ok"
        assert wd.observe(6, 3.0, np.zeros(1)) == "restart"
        assert wd.restarts == 1 and wd.relax == 0.5

    def test_nonfinite_residual_restarts_immediately(self, metrics):
        wd = ResidualWatchdog(solver="t", relax=2.0)
        wd.observe(0, 1.0, np.zeros(1))
        assert wd.observe(1, float("nan"), np.zeros(1)) == "restart"
        assert _counter(metrics, "guard.watchdog.restarts") == 1

    def test_budget_exhaustion_raises_with_history(self, metrics):
        wd = ResidualWatchdog(solver="t", relax=1.0, max_restarts=1)
        wd.observe(0, 1.0, np.zeros(1))
        assert wd.observe(1, float("inf"), np.zeros(1)) == "restart"
        with pytest.raises(SolverError) as ei:
            wd.observe(2, float("inf"), np.zeros(1))
        assert ei.value.history[-1]["action"] == "fail"
        assert any(h.get("action") == "restart" for h in ei.value.history)
        assert _counter(metrics, "guard.watchdog.failures") == 1

    def test_relax_floor(self):
        wd = ResidualWatchdog(solver="t", relax=1e-3, min_relax=1e-3,
                              max_restarts=5)
        wd.observe(0, 1.0, np.zeros(1))
        wd.observe(1, float("nan"), np.zeros(1))
        assert wd.relax == 1e-3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ResidualWatchdog(solver="t", patience=0)
        with pytest.raises(ValueError):
            ResidualWatchdog(solver="t", growth_factor=1.0)
        with pytest.raises(ValueError):
            ResidualWatchdog(solver="t", backoff=1.0)

    def test_resolve_watchdog(self):
        assert resolve_watchdog(None, solver="t") is None
        assert resolve_watchdog(False, solver="t") is None
        wd = resolve_watchdog(True, solver="t", relax=1.5)
        assert isinstance(wd, ResidualWatchdog) and wd.relax == 1.5
        mine = ResidualWatchdog(solver="t")
        assert resolve_watchdog(mine, solver="t", relax=0.7) is mine
        assert mine.relax == 0.7


class TestWatchdogInSolvers:
    def _rnorm(self, op, sino, x):
        return float(np.linalg.norm(sino - op.forward(x)))

    def test_sirt_overrelaxed_recovers(self, problem):
        _, _, op, truth, sino = problem
        x_un = reconstruct(op, sino, solver="sirt", iterations=40, relax=3.8,
                           nonneg=False).image
        wd = ResidualWatchdog(solver="sirt")
        x_g = reconstruct(op, sino, solver="sirt", iterations=40, relax=3.8,
                          nonneg=False, watchdog=wd).image
        r_un = self._rnorm(op, sino, x_un)
        r_g = self._rnorm(op, sino, x_g)
        assert wd.restarts >= 1
        assert np.isfinite(r_g)
        assert r_g < float(np.linalg.norm(sino))  # actually reconstructs
        assert (not np.isfinite(r_un)) or r_g < r_un

    def test_os_sart_overrelaxed_recovers(self, problem):
        _, geom, op, _, sino = problem
        wd = ResidualWatchdog(solver="os_sart")
        x_g = reconstruct(op, sino, solver="os-sart", geom=geom, num_subsets=4,
                          iterations=10, relax=3.8, nonneg=False,
                          watchdog=wd).image
        assert wd.restarts >= 1
        r_g = self._rnorm(op, sino, x_g)
        assert np.isfinite(r_g) and r_g < float(np.linalg.norm(sino))

    def test_art_watchdog_is_inert_on_convergent_run(self, problem):
        _, _, op, _, sino = problem
        a = reconstruct(op, sino, solver="art", iterations=8, relax=0.9).image
        wd = ResidualWatchdog(solver="art")
        b = reconstruct(op, sino, solver="art", iterations=8, relax=0.9,
                        watchdog=wd).image
        np.testing.assert_array_equal(a, b)
        assert wd.restarts == 0

    def test_sirt_watchdog_is_inert_on_convergent_run(self, problem):
        _, _, op, _, sino = problem
        a = reconstruct(op, sino, solver="sirt", iterations=8).image
        b = reconstruct(op, sino, solver="sirt", iterations=8, watchdog=True).image
        np.testing.assert_array_equal(a, b)

    def test_cgls_restart_reinitialises_recurrence(self, problem):
        _, _, op, _, sino = problem

        class ForceOneRestart(ResidualWatchdog):
            def observe(self, iteration, residual, x):
                out = super().observe(iteration, residual, x)
                if iteration == 2 and self.restarts == 0:
                    self.restarts += 1
                    return "restart"
                return out

        wd = ForceOneRestart(solver="cgls")
        x = reconstruct(op, sino, solver="cgls", iterations=25, watchdog=wd).image
        assert wd.restarts == 1
        assert self._rnorm(op, sino, x) < 0.1 * float(np.linalg.norm(sino))

    @pytest.mark.parametrize("solver", ["sirt", "art", "os_sart", "cgls", "icd"])
    def test_restart_equals_fresh_run_from_best_iterate(self, solver):
        # a restart at iteration 3 discards that sweep and runs the rest
        # of the budget from the best iterate with relax backed off: it
        # must be bitwise the fresh run from that iterate
        geom = ParallelBeamGeometry.for_image(24, num_views=36)
        op = operator(geom, cache=False)
        sino = op.forward(shepp_logan(24).ravel().astype(op.dtype))
        solve = {
            "sirt": lambda **kw: reconstruct(op, sino, solver="sirt", **kw).image,
            "art": lambda **kw: reconstruct(op, sino, solver="art", **kw).image,
            "os_sart": lambda **kw: reconstruct(
                op, sino, solver="os-sart", geom=geom, num_subsets=4, **kw).image,
            "cgls": lambda **kw: reconstruct(op, sino, solver="cgls", **kw).image,
            "icd": lambda **kw: reconstruct(op, sino, solver="icd", **kw).image,
        }[solver]

        class RestartAt3(ResidualWatchdog):
            def observe(self, iteration, residual, x):
                if iteration == 3:
                    self.snapshot = np.array(self.best_x, copy=True)
                    return self._diverged(iteration, residual)
                return super().observe(iteration, residual, x)

        relax = {} if solver in ("cgls", "icd") else {"relax": 1.0}
        wd = RestartAt3(solver=solver)
        guarded = solve(iterations=10, watchdog=wd, **relax)
        assert wd.restarts == 1
        backed_off = {k: v * wd.backoff for k, v in relax.items()}
        fresh = solve(iterations=6, x0=wd.snapshot.reshape(-1), **backed_off)
        assert guarded.dtype == fresh.dtype
        assert np.array_equal(guarded, fresh)

    def test_sirt_exhausted_budget_raises_solver_error(self, problem):
        _, _, op, _, sino = problem
        wd = ResidualWatchdog(solver="sirt", max_restarts=0)
        with pytest.raises(SolverError) as ei:
            reconstruct(op, sino, solver="sirt", iterations=60, relax=3.9,
                        nonneg=False, watchdog=wd)
        assert ei.value.history  # post-mortem data travels with the error

    def test_relax_validation_bounds(self, problem):
        _, _, op, _, sino = problem
        with pytest.raises(ValidationError):
            reconstruct(op, sino, solver="sirt", relax=4.5)
        with pytest.raises(ValidationError):
            reconstruct(op, sino, solver="art", relax=2.0)  # ART keeps (0, 2)


# ---------------------------------------------------------------------- #
# chaos end-to-end: reconstructions stay bitwise under injected faults


class TestChaosEndToEnd:
    def _reconstruct(self, cache_root):
        geom = ParallelBeamGeometry.for_image(SIZE, num_views=24)
        cache = OperatorCache(root=cache_root, enabled=True)
        truth = shepp_logan(SIZE).ravel().astype(np.float32)
        # build twice: the second call exercises the load path
        operator(geom, fmt="cscv-z", cache_obj=cache)
        op = operator(geom, fmt="cscv-z", cache_obj=cache)
        sino = op.forward(truth)
        return reconstruct(op, sino, solver="sirt", iterations=6).image

    def test_chaos_profile_is_bitwise_safe(self, tmp_path):
        with faults.disabled():
            clean = self._reconstruct(tmp_path / "clean")
        with faults.inject(PROFILES["chaos"]):
            chaotic = self._reconstruct(tmp_path / "chaos")
        np.testing.assert_array_equal(clean, chaotic)

    def test_chaos_profile_actually_fires(self, tmp_path, metrics):
        with faults.inject(PROFILES["chaos"]):
            self._reconstruct(tmp_path / "observed")
        assert _counter(metrics, "faults.injected.total") >= 1


# ---------------------------------------------------------------------- #
# CLI error handling (satellite)


class TestCLIErrorHandling:
    def test_repro_error_exits_nonzero_with_one_line(self, capsys):
        assert cli_main(["spmv", "--dataset", "no-such-dataset"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValidationError:")
        assert len(err.strip().splitlines()) == 1

    def test_debug_flag_reraises(self):
        with pytest.raises(ValidationError):
            cli_main(["--debug", "spmv", "--dataset", "no-such-dataset"])

    def test_invalid_relax_is_one_line(self, capsys):
        assert cli_main(["reconstruct", "--size", "16", "--iterations", "2",
                         "--relax", "9", "--no-cache"]) == 1
        assert "error: ValidationError" in capsys.readouterr().err

    def test_reconstruct_watchdog_smoke(self, capsys):
        assert cli_main(["reconstruct", "--size", "16", "--solver", "sirt",
                         "--iterations", "8", "--relax", "3.5",
                         "--watchdog", "--no-cache"]) == 0
        assert "relative error" in capsys.readouterr().out

    def test_info_reports_resilience_state(self, capsys):
        assert cli_main(["info"]) == 0
        out = capsys.readouterr().out
        assert "guards" in out and "fault plan" in out

    def test_kernels_status(self, capsys):
        assert cli_main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "failure marker" in out
