"""Tests for perf accounting (repro.obs.perf), the live metrics runtime
(repro.obs.runtime) and the benchmark trajectory harness
(repro.bench.trajectory)."""

from __future__ import annotations

import json
import time
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from repro import config, obs
from repro.bench import trajectory
from repro.obs import perf
from repro.obs import runtime as obs_runtime


@pytest.fixture
def clean_metrics():
    obs.registry.reset()
    yield obs.registry
    obs.registry.reset()


@pytest.fixture
def perf_off():
    """Guarantee accounting state is restored after the test."""
    prev = perf.active
    yield
    perf.active = prev


@pytest.fixture
def stream_cache(tmp_path, monkeypatch):
    """Isolate the per-host STREAM cache (disk + in-process)."""
    monkeypatch.setattr(config, "cache_root", lambda: str(tmp_path))
    prev = perf._stream_gbs
    perf._reset_stream_cache()
    yield tmp_path
    perf._stream_gbs = prev


@pytest.fixture
def cscv_data(small_ct_f32):
    from repro.core.builder import build_cscv
    from repro.core.params import CSCVParams

    coo, geom = small_ct_f32
    return build_cscv(coo.rows, coo.cols, coo.vals, geom, CSCVParams(8, 16, 2))


# ---------------------------------------------------------------------- #
# bytes-moved models


def _cscv(data, variant):
    from repro.core.format_m import CSCVMMatrix
    from repro.core.format_z import CSCVZMatrix

    return (CSCVZMatrix if variant == "z" else CSCVMMatrix)(data)


class TestBytesModels:
    def test_cscv_z_layout_accounting(self, cscv_data):
        m, n = cscv_data.shape
        item = cscv_data.dtype.itemsize
        b = perf.format_bytes(_cscv(cscv_data, "z"))
        assert b["written"] == m * item
        assert b["total"] == b["read"] + b["written"]
        # the padded value stream alone dominates nnz * itemsize
        assert b["read"] >= cscv_data.nnz * item + n * item

    def test_cscv_m_removes_padding(self, cscv_data):
        z = perf.format_bytes(_cscv(cscv_data, "z"))
        mm = perf.format_bytes(_cscv(cscv_data, "m"))
        # M pays masks + voffs but drops the padding zeros; on a padded
        # matrix the value-stream saving is the paper's whole point
        d = cscv_data
        padding = d.values.nbytes - d.packed.nbytes
        assert padding > 0
        assert mm["read"] < z["read"] + d.vxg_voff.nbytes
        assert mm["read"] - z["read"] == (d.vxg_voff.nbytes
                                          + d.vxg_masks.nbytes - padding)
        assert mm["written"] == z["written"]

    def test_batch_width_scales_vectors_only(self, cscv_data):
        b1 = perf.format_bytes(_cscv(cscv_data, "z"), 1)
        b8 = perf.format_bytes(_cscv(cscv_data, "z"), 8)
        m, n = cscv_data.shape
        item = cscv_data.dtype.itemsize
        assert b8["written"] == 8 * b1["written"]
        assert b8["read"] - b1["read"] == pytest.approx(7 * n * item)

    def test_format_bytes_matches_m_rit(self, small_ct_f32):
        from repro.sparse.csr import CSRMatrix
        from repro.sparse.stats import memory_requirement

        coo, _ = small_ct_f32
        fmt = CSRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals)
        b = perf.format_bytes(fmt)
        assert b["total"] == pytest.approx(memory_requirement(fmt)["M_rit"])


# ---------------------------------------------------------------------- #
# dispatch recording


class TestRecordDispatch:
    def test_emits_tagged_histograms_and_counters(self, clean_metrics,
                                                  stream_cache):
        perf.record_dispatch("spmv", "z", "c", seconds=1e-3,
                             bytes_read=1e6, bytes_written=1e5, nnz=1000)
        h = obs.registry.get("spmv.achieved_gbs.z.c")
        assert h.count == 1
        assert h.mean == pytest.approx(1.1e6 / 1e-3 / 1e9)
        assert obs.registry.get("spmv.nnz_per_s.z").count == 1
        assert obs.registry.get("perf.bytes_read").value == 1e6
        assert obs.registry.get("perf.bytes_written").value == 1e5

    def test_stream_fraction_skipped_until_calibrated(self, clean_metrics,
                                                      stream_cache):
        perf.record_dispatch("spmv", "z", "c", seconds=1e-3,
                             bytes_read=1e6, bytes_written=0, nnz=10)
        assert "spmv.stream_fraction.z" not in obs.registry.names()
        assert obs.registry.get("perf.stream_bw.unavailable").value == 1

    def test_stream_fraction_with_cached_bandwidth(self, clean_metrics,
                                                   stream_cache):
        perf._stream_gbs[1] = 10.0
        perf.record_dispatch("spmv", "z", "c", seconds=1e-3,
                             bytes_read=1e7, bytes_written=0, nnz=10)
        frac = obs.registry.get("spmv.stream_fraction.z")
        assert frac.count == 1
        assert frac.mean == pytest.approx((1e7 / 1e-3 / 1e9) / 10.0)

    def test_nonpositive_seconds_is_dropped(self, clean_metrics, stream_cache):
        perf.record_dispatch("spmv", "z", "c", seconds=0.0,
                             bytes_read=1e6, bytes_written=0, nnz=10)
        assert not obs.registry.names()

    def test_record_format_uses_layout_bytes(self, clean_metrics,
                                             stream_cache, cscv_data):
        fmt = _cscv(cscv_data, "m")
        perf.record_format("spmm", fmt, "flat", 1e-3, k=4)
        h = obs.registry.get("spmm.achieved_gbs.m.flat")
        expect = perf.format_bytes(fmt, 4)["total"] / 1e-3 / 1e9
        assert h.mean == pytest.approx(expect)

    def test_record_build(self, clean_metrics):
        perf.record_build(seconds=0.5, bytes_written=5e8, nnz=1_000_000)
        assert obs.registry.get("build.achieved_gbs").mean == pytest.approx(1.0)
        assert obs.registry.get("build.nnz_per_s").mean == pytest.approx(2e6)


class TestOffByDefault:
    def test_accounting_is_off_by_default(self):
        # a fresh interpreter, not this suite's (other tests legitimately
        # toggle tracing, which drags perf accounting along)
        import subprocess
        import sys

        subprocess.run(
            [sys.executable, "-c",
             "from repro.obs import perf; assert perf.active is False"],
            check=True,
        )

    def test_dispatch_sites_stay_silent_when_off(self, clean_metrics,
                                                 perf_off, small_ct_f32):
        from repro.core.format_z import CSCVZMatrix

        perf.disable()
        coo, geom = small_ct_f32
        a = CSCVZMatrix.from_ct(coo, geom)
        x = np.ones(coo.shape[1], dtype=np.float32)
        y = np.zeros(coo.shape[0], dtype=np.float32)
        a.spmv_into(x, y)
        assert not [n for n in obs.registry.names()
                    if "achieved_gbs" in n or "stream_fraction" in n]

    def test_dispatch_sites_record_when_on(self, clean_metrics, perf_off,
                                           stream_cache, small_ct_f32):
        from repro.core.format_z import CSCVZMatrix

        perf.enable()
        coo, geom = small_ct_f32
        a = CSCVZMatrix.from_ct(coo, geom)
        x = np.ones(coo.shape[1], dtype=np.float32)
        y = np.zeros(coo.shape[0], dtype=np.float32)
        a.spmv_into(x, y)
        names = [n for n in obs.registry.names()
                 if n.startswith("spmv.achieved_gbs.z.")]
        assert names and obs.registry.get(names[0]).count == 1

    @pytest.mark.parametrize("variant", ["z", "m"])
    @pytest.mark.parametrize("k", [None, 3])
    def test_adjoint_records_one_dispatch(self, clean_metrics, perf_off,
                                          stream_cache, cscv_data, variant, k):
        from repro.core.format_m import CSCVMMatrix
        from repro.core.format_z import CSCVZMatrix

        perf.enable()
        cls = CSCVZMatrix if variant == "z" else CSCVMMatrix
        a = cls(cscv_data)
        m, n = a.shape
        if k is None:
            op, width = "tspmv", 1
            a.transpose_spmv(np.ones(m, dtype=a.dtype))
        else:
            op, width = "tspmm", k
            a.transpose_spmm(np.ones((m, k), dtype=a.dtype))
        names = [x for x in obs.registry.names()
                 if x.startswith(f"{op}.achieved_gbs.{variant}.")]
        assert len(names) == 1 and obs.registry.get(names[0]).count == 1
        assert obs.registry.get(f"{op}.nnz_per_s.{variant}").count == 1
        # adjoint byte model: the matrix stream, k*m vector reads, k*n writes
        fwd = perf.format_bytes(a, width)
        item = a.dtype.itemsize
        written = obs.registry.get("perf.bytes_written").value
        read = obs.registry.get("perf.bytes_read").value
        assert written == width * n * item
        assert read == fwd["read"] - width * n * item + width * m * item


class TestConvergenceMeter:
    def test_slope_and_tolerance(self, clean_metrics):
        meter = perf.ConvergenceMeter("sirt", y_norm=10.0, rtol=1e-2)
        residuals = [1.0, 0.5, 0.25, 0.05]
        for k, r in enumerate(residuals):
            meter.observe(k, r, seconds=1e-3)
        slope = obs.registry.get("sirt.residual_slope").value
        assert slope < 0  # converging
        # r/y_norm = 0.005 < 1e-2 first at k=3 -> iters_to_tol = 4
        assert obs.registry.get("sirt.iters_to_tol").value == 4
        assert obs.registry.get("sirt.iter_seconds").count == 4

    def test_no_seconds_means_no_histogram(self, clean_metrics):
        meter = perf.ConvergenceMeter("cgls")
        meter.observe(0, 1.0)
        meter.observe(1, 0.9)
        assert "cgls.iter_seconds" not in obs.registry.names()
        assert "cgls.residual_slope" in obs.registry.names()


# ---------------------------------------------------------------------- #
# STREAM bandwidth cache


class TestStreamBandwidthCache:
    def test_hot_path_never_measures(self, stream_cache):
        assert perf.stream_bandwidth() is None

    def test_measure_persists_and_reloads(self, stream_cache):
        gbs = perf.stream_bandwidth(measure=True, size_mb=8)
        assert gbs and gbs > 0
        path = stream_cache / "stream_bw.json"
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload[f"{perf.host_fingerprint()}/t1"]["gbs"] == pytest.approx(gbs)
        # a fresh process (simulated by dropping the in-process cache)
        # reads the disk cache instead of re-measuring
        perf._reset_stream_cache()
        assert perf.stream_bandwidth() == pytest.approx(gbs)

    def test_cached_per_thread_count(self, stream_cache, monkeypatch):
        measured = {1: 8.0, 2: 15.0}
        monkeypatch.setattr(perf, "measure_stream_bandwidth",
                            lambda size_mb, threads: measured[threads])
        assert perf.stream_bandwidth(measure=True, threads=1) == 8.0
        assert perf.stream_bandwidth(measure=True, threads=2) == 15.0
        perf._reset_stream_cache()  # a fresh process reads the disk cache
        assert perf.stream_bandwidth(threads=2) == 15.0
        assert perf.stream_bandwidth(threads=1) == 8.0
        assert perf.stream_bandwidth(threads=4) is None

    def test_threaded_measurement_runs(self):
        assert perf.measure_stream_bandwidth(size_mb=8, repeats=2,
                                             threads=2) > 0

    def test_corrupt_disk_cache_is_ignored(self, stream_cache):
        (stream_cache / "stream_bw.json").write_text("{not json")
        assert perf.stream_bandwidth() is None


# ---------------------------------------------------------------------- #
# live metrics runtime


class TestMetricsRuntime:
    def _get(self, port, path):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=5
        ) as resp:
            return resp.status, resp.read().decode("utf-8")

    def test_http_exporter_serves_live_registry(self, clean_metrics, perf_off,
                                                stream_cache, small_ct_f32):
        from repro.core.format_z import CSCVZMatrix

        port = obs_runtime.start(port=0)
        try:
            assert port and obs_runtime.is_active()
            assert perf.is_active()  # runtime start enables accounting
            coo, geom = small_ct_f32
            a = CSCVZMatrix.from_ct(coo, geom)
            x = np.ones(coo.shape[1], dtype=np.float32)
            y = np.zeros(coo.shape[0], dtype=np.float32)
            a.spmv_into(x, y)
            status, body = self._get(port, "/metrics")
            assert status == 200
            assert "repro_spmv_achieved_gbs" in body
            status, body = self._get(port, "/healthz")
            assert status == 200 and json.loads(body) == {"status": "ok"}
            with pytest.raises(urllib.error.HTTPError):
                self._get(port, "/nope")
        finally:
            obs_runtime.stop()
        assert not obs_runtime.is_active()
        assert not perf.is_active()  # tracer off -> accounting off again

    def test_start_is_idempotent(self, perf_off):
        p1 = obs_runtime.start(port=0)
        p2 = obs_runtime.start(port=0)
        try:
            assert p1 == p2 == obs_runtime.server_port()
        finally:
            obs_runtime.stop()

    def test_flusher_appends_jsonl_and_final_flush(self, clean_metrics,
                                                   tmp_path):
        obs.counter("t.flush").inc(3)
        path = tmp_path / "metrics.jsonl"
        f = obs_runtime.MetricsFlusher(str(path), interval=0.05)
        time.sleep(0.2)
        f.stop()  # also flushes a final line
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert len(lines) >= 2
        assert all("ts" in d and d["metrics"]["t.flush"]["value"] == 3
                   for d in lines)

    def test_flusher_skips_empty_registry(self, clean_metrics, tmp_path):
        path = tmp_path / "empty.jsonl"
        f = obs_runtime.MetricsFlusher(str(path), interval=60.0)
        f.stop()
        assert not path.exists()

    def test_flusher_rejects_bad_interval(self, tmp_path):
        with pytest.raises(ValueError):
            obs_runtime.MetricsFlusher(str(tmp_path / "x.jsonl"), interval=0)

    def test_status_reports_runtime_fields(self):
        st = obs.status()
        assert {"perf_accounting", "metrics_runtime", "metrics_port"} <= set(st)

    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS_PORT", raising=False)
        assert config.env_metrics_port() is None
        monkeypatch.setenv("REPRO_METRICS_PORT", "off")
        assert config.env_metrics_port() is None
        monkeypatch.setenv("REPRO_METRICS_PORT", "0")
        assert config.env_metrics_port() == 0
        monkeypatch.setenv("REPRO_METRICS_PORT", "9464")
        assert config.env_metrics_port() == 9464
        monkeypatch.setenv("REPRO_METRICS_PORT", "70000")
        with pytest.raises(ValueError):
            config.env_metrics_port()
        monkeypatch.delenv("REPRO_METRICS_FLUSH", raising=False)
        monkeypatch.delenv("REPRO_METRICS_FLUSH_SEC", raising=False)
        assert config.env_metrics_flush() == (None, config.DEFAULT_METRICS_FLUSH_SEC)
        monkeypatch.setenv("REPRO_METRICS_FLUSH", "/tmp/m.jsonl")
        monkeypatch.setenv("REPRO_METRICS_FLUSH_SEC", "2.5")
        assert config.env_metrics_flush() == ("/tmp/m.jsonl", 2.5)
        monkeypatch.setenv("REPRO_METRICS_FLUSH_SEC", "0")
        with pytest.raises(ValueError):
            config.env_metrics_flush()


# ---------------------------------------------------------------------- #
# trajectory harness


def _point(seconds_by_case, *, noise=0.02, rev="abc1234"):
    return {
        "schema": trajectory.TRAJECTORY_SCHEMA,
        "git_rev": rev,
        "abi": 5,
        "backend": "c",
        "quick": True,
        "host": {"fingerprint": "h", "cpu_count": 1, "stream_gbs": 8.0},
        "cases": [
            {"case": name, "kind": "spmv", "format": "csr", "size": 32,
             "batch": 1, "seconds": s, "mean_seconds": s,
             "noise": noise, "gflops": 1.0, "achieved_gbs": 1.0,
             "r_em": 0.1, "nnz": 100}
            for name, s in seconds_by_case.items()
        ],
    }


class TestTrajectory:
    def test_append_and_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "traj.json")
        assert trajectory.load_trajectory(path)["points"] == []
        trajectory.append_point(_point({"a": 1.0}), path)
        trajectory.append_point(_point({"a": 1.1}, rev="def5678"), path)
        payload = trajectory.load_trajectory(path)
        assert len(payload["points"]) == 2
        assert payload["points"][1]["git_rev"] == "def5678"

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"bench": "build"}')
        with pytest.raises(ValueError):
            trajectory.load_trajectory(str(path))

    def test_compare_detects_2x_slowdown(self):
        old = _point({"spmv/csr/32": 1.0, "spmm/csr/32": 1.0})
        new = _point({"spmv/csr/32": 2.0, "spmm/csr/32": 1.02})
        by_case = {r["case"]: r for r in trajectory.compare_points(old, new)}
        assert by_case["spmv/csr/32"]["status"] == "regression"
        assert by_case["spmm/csr/32"]["status"] == "ok"

    def test_slack_cap_keeps_2x_visible_on_noisy_hosts(self):
        # 107% run-to-run noise was observed on 1-core CI VMs; the cap
        # must still flag a genuine 2x slowdown
        old = _point({"a": 1.0}, noise=1.07)
        new = _point({"a": 2.0}, noise=1.07)
        (r,) = trajectory.compare_points(old, new)
        assert r["slack"] == trajectory.MAX_SLACK == 0.90
        assert r["status"] == "regression"

    def test_noise_widens_slack(self):
        old = _point({"a": 1.0}, noise=0.10)
        new = _point({"a": 1.3}, noise=0.10)
        (r,) = trajectory.compare_points(old, new)
        # 4 * 10% = 40% slack: a 1.3x ratio is noise, not regression
        assert r["slack"] == pytest.approx(0.40)
        assert r["status"] == "ok"

    def test_improvement_and_membership_statuses(self):
        old = _point({"a": 1.0, "gone": 1.0})
        new = _point({"a": 0.4, "fresh": 1.0})
        by_case = {r["case"]: r for r in trajectory.compare_points(old, new)}
        assert by_case["a"]["status"] == "improved"
        assert by_case["gone"]["status"] == "missing"
        assert by_case["fresh"]["status"] == "new"

    def test_render_helpers(self):
        old = _point({"a": 1.0})
        new = _point({"a": 2.0})
        assert "a" in trajectory.render_point(old)
        out = trajectory.render_compare(trajectory.compare_points(old, new))
        assert "regression" in out

    def test_compare_cli_exit_codes(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        trajectory.append_point(_point({"a": 1.0}))
        assert main(["bench", "compare"]) == 2  # needs two points
        trajectory.append_point(_point({"a": 2.0}, rev="def5678"))
        assert main(["bench", "compare"]) == 1
        assert main(["bench", "compare", "--report-only"]) == 0
        err = capsys.readouterr().err
        assert "regression" in err


# ---------------------------------------------------------------------- #
# the pinned suite itself, at a tiny size


def _tracer_state():
    return obs.tracer.enabled, len(obs.tracer.finished())


@pytest.fixture(scope="module")
def suite():
    """One ``run_trajectory`` point at 16^2 (STREAM bandwidth stubbed to
    10 GB/s per thread), with the tracer's state before and after the run."""
    prev = perf._stream_gbs
    perf._stream_gbs = {t: 10.0 * t for t in {1, int(config.runtime.threads)}}
    try:
        before = _tracer_state()
        point = trajectory.run_trajectory(sizes=(16,))
        yield SimpleNamespace(point=point, tracer=(before, _tracer_state()))
    finally:
        perf._stream_gbs = prev


def _cscv_case_count():
    from repro.core.spmv import ROUTES

    return 3 * len(ROUTES)


class TestTrajectorySuite:
    PRODUCT_KINDS = ("spmv", "spmm", "tspmv", "tspmm")

    def test_cases_are_routes_rows_times_widths(self, suite):
        from repro.core.spmv import ROUTES

        t = config.runtime.threads
        expected = set()
        assert len(ROUTES) == 4
        for (adjoint, variant) in ROUTES:
            for tag in ("1d", "n1", "n8"):
                expected.add(f"{'adj' if adjoint else 'fwd'}/cscv-{variant}"
                             f"/16/{tag}/t{t}")
        expected |= {f"fwd/csr/16/1d/t{t}", f"fwd/csr/16/n8/t{t}",
                     "build/strip/16", "cache-warm/cscv-z/16",
                     "solve/sirt/16"}
        names = [c["case"] for c in suite.point["cases"]]
        assert len(names) == len(set(names))
        assert set(names) == expected

    def test_every_product_case_has_r_em_and_threads(self, suite):
        products = [c for c in suite.point["cases"]
                    if c["kind"] in self.PRODUCT_KINDS]
        assert len(products) == _cscv_case_count() + 2
        for c in products:
            assert c["r_em"] is not None and c["r_em"] > 0, c["case"]
            assert c["case"].endswith(f"/t{c['threads']}")
            # judged against the stubbed bandwidth of its own thread count
            assert c["r_em"] == pytest.approx(
                c["achieved_gbs"] / (10.0 * c["threads"]))

    def test_solve_split_sums_to_iteration_time(self, suite):
        (solve,) = [c for c in suite.point["cases"] if c["kind"] == "solve"]
        split = (solve["forward_s"], solve["adjoint_s"], solve["update_s"])
        assert all(x >= 0 for x in split)
        assert min(solve["forward_s"], solve["adjoint_s"]) > 0
        assert sum(split) == pytest.approx(solve["seconds"])
        assert solve["iterations"] == trajectory.SOLVE_ITERATIONS

    def test_traced_solve_restores_the_tracer(self, suite):
        before, after = suite.tracer
        assert before == after

    def test_self_compare_flags_nothing(self, suite):
        results = trajectory.compare_points(suite.point, suite.point)
        assert {r["status"] for r in results} == {"ok"}

    def test_cscv_case_bytes_equal_the_dispatch_telemetry(
            self, suite, clean_metrics, perf_off):
        from repro.api import operator
        from repro.core import spmv

        perf.enable()
        cscv = [c for c in suite.point["cases"]
                if c["format"].startswith("cscv-")
                and c["kind"] in self.PRODUCT_KINDS]
        assert len(cscv) == _cscv_case_count()
        for c in cscv:
            fmt = operator(16, fmt=c["format"], dtype=np.float32).fmt
            adjoint = c["kind"].startswith("t")
            m, n = fmt.shape
            shape = (m if adjoint else n,)
            if c["kind"].endswith("mm"):
                shape += (c["batch"],)
            obs.registry.reset()
            spmv.product(fmt, np.ones(shape, dtype=np.float32), adjoint=adjoint)
            moved = (obs.registry.get("perf.bytes_read").value
                     + obs.registry.get("perf.bytes_written").value)
            assert moved == c["bytes"], c["case"]
