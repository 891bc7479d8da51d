"""Tests for the observability layer (repro.obs) and its integrations."""

from __future__ import annotations

import io
import json
import time

import numpy as np
import pytest

from repro import config, obs
from repro.obs.metrics import MetricsRegistry
from repro.utils.timing import TimingStats, min_time, time_stats


@pytest.fixture
def traced():
    """Enable tracing with clean state; restore everything afterwards."""
    prev_trace = config.runtime.trace
    obs.reset()
    obs.enable()
    yield obs.tracer
    obs.disable()
    obs.reset()
    config.runtime.trace = prev_trace


@pytest.fixture
def clean_metrics():
    obs.registry.reset()
    yield obs.registry
    obs.registry.reset()


# ---------------------------------------------------------------------- #
# spans


class TestSpans:
    def test_nesting_parent_links_and_depth(self, traced):
        with obs.span("outer"):
            with obs.span("mid"):
                with obs.span("inner"):
                    pass
        by_name = {s.name: s for s in traced.finished()}
        assert by_name["outer"].parent == -1 and by_name["outer"].depth == 0
        assert by_name["mid"].parent == by_name["outer"].id
        assert by_name["inner"].parent == by_name["mid"].id
        assert by_name["inner"].depth == 2

    def test_timing_monotonic_and_contained(self, traced):
        with obs.span("outer"):
            time.sleep(0.001)
            with obs.span("inner"):
                time.sleep(0.002)
            time.sleep(0.001)
        outer = traced.find("outer")[0]
        inner = traced.find("inner")[0]
        assert inner.seconds >= 0.002
        assert outer.seconds >= inner.seconds
        assert outer.start <= inner.start and inner.end <= outer.end

    def test_attrs_at_open_and_via_set(self, traced):
        with obs.span("s", nnz=7) as s:
            s.set(bytes=13)
        rec = traced.find("s")[0]
        assert rec.attrs == {"nnz": 7, "bytes": 13}

    def test_completion_order_is_children_first(self, traced):
        with obs.span("a"):
            with obs.span("b"):
                pass
        assert [s.name for s in traced.finished()] == ["b", "a"]

    def test_disabled_span_is_noop(self):
        obs.disable()
        n0 = len(obs.tracer.finished())
        with obs.span("nope") as s:
            s.set(x=1)  # must not raise
        assert len(obs.tracer.finished()) == n0

    def test_exception_still_closes_span(self, traced):
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
        rec = traced.find("boom")[0]
        assert rec.end >= rec.start

    def test_total_aggregates(self, traced):
        for _ in range(3):
            with obs.span("rep"):
                pass
        assert len(traced.find("rep")) == 3
        assert traced.total("rep") >= 0.0


# ---------------------------------------------------------------------- #
# metrics


class TestMetrics:
    def test_counter_accumulates(self, clean_metrics):
        c = obs.counter("t.calls")
        c.inc()
        c.inc(2.5)
        assert obs.counter("t.calls").value == 3.5

    def test_counter_rejects_negative(self, clean_metrics):
        with pytest.raises(ValueError):
            obs.counter("t.neg").inc(-1)

    def test_gauge_set_and_inc(self, clean_metrics):
        g = obs.gauge("t.g")
        g.set(4.0)
        g.inc(0.5)
        assert g.value == 4.5

    def test_histogram_buckets_sum_count(self, clean_metrics):
        h = obs.histogram("t.h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["counts"] == [1, 1, 1, 1]
        assert snap["count"] == 4 and snap["sum"] == pytest.approx(105.0)
        assert snap["min"] == 0.5 and snap["max"] == 100.0
        assert h.mean == pytest.approx(105.0 / 4)

    def test_kind_collision_raises(self, clean_metrics):
        obs.counter("t.same")
        with pytest.raises(TypeError):
            obs.gauge("t.same")

    def test_registry_disable_makes_mutations_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("x")
        c.inc()
        reg.gauge("y").set(9)
        reg.histogram("z").observe(1.0)
        assert c.value == 0.0
        assert reg.gauge("y").value == 0.0
        assert reg.histogram("z").count == 0

    def test_snapshot_is_plain_data(self, clean_metrics):
        obs.counter("t.c").inc()
        obs.histogram("t.h").observe(0.2)
        snap = obs.registry.snapshot()
        json.dumps(snap)  # must be serialisable
        assert snap["t.c"]["type"] == "counter"

    def test_snapshot_safe_under_concurrent_registration(self, clean_metrics):
        """snapshot() must hold the registry lock for its whole iteration."""
        import threading

        errors = []

        def churn():
            # keep the registry small but guarantee fresh-name inserts
            # are landing while snapshots iterate
            for i in range(4000):
                obs.counter(f"race.c{i % 500}").inc()

        def snap():
            try:
                for _ in range(100):
                    json.dumps(obs.registry.snapshot())
            except RuntimeError as exc:  # "dict changed size ..."
                errors.append(exc)

        churner = threading.Thread(target=churn)
        snapper = threading.Thread(target=snap)
        churner.start()
        snapper.start()
        churner.join()
        snapper.join()
        assert not errors

    def test_histogram_quantiles_in_snapshot(self, clean_metrics):
        h = obs.histogram("t.q", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0, 8.0):
            h.observe(v)
        snap = h.snapshot()
        assert set(snap["quantiles"]) == {"p50", "p90", "p99"}
        # estimates interpolate inside buckets but must stay clamped to
        # the observed range and be monotone in q
        q50, q90, q99 = (snap["quantiles"][k] for k in ("p50", "p90", "p99"))
        assert 0.5 <= q50 <= q90 <= q99 <= 8.0
        assert h.quantile(0.01) >= 0.5  # clamped to the observed min

    def test_histogram_custom_quantiles(self, clean_metrics):
        h = obs.histogram("t.q2", buckets=(10.0,), quantiles=(0.25, 0.75))
        h.observe(5.0)
        assert set(h.snapshot()["quantiles"]) == {"p25", "p75"}

    def test_histogram_rejects_bad_quantiles(self, clean_metrics):
        with pytest.raises(ValueError):
            obs.histogram("t.q3", quantiles=(0.0,))
        with pytest.raises(ValueError):
            obs.histogram("t.q4", quantiles=(1.5,))

    def test_empty_histogram_quantiles_are_none(self, clean_metrics):
        h = obs.histogram("t.q5")
        assert h.quantile(0.9) is None
        assert all(v is None for v in h.snapshot()["quantiles"].values())


# ---------------------------------------------------------------------- #
# exporters


class TestExporters:
    def test_jsonl_roundtrip(self, traced, tmp_path):
        with obs.span("outer", nnz=11):
            with obs.span("inner"):
                pass
        path = tmp_path / "trace.jsonl"
        n = obs.dump_jsonl(traced.finished(), str(path))
        assert n == 2
        back = obs.load_jsonl(str(path))
        orig = traced.finished()
        assert [s.name for s in back] == [s.name for s in orig]
        assert [s.parent for s in back] == [s.parent for s in orig]
        assert back[1].attrs == {"nnz": 11}
        assert back[0].seconds == pytest.approx(orig[0].seconds)

    def test_jsonl_numpy_attrs_serialise(self, traced):
        with obs.span("np", nnz=np.int64(5), rate=np.float32(0.5), arr=np.arange(2)):
            pass
        buf = io.StringIO()
        obs.dump_jsonl(traced.finished(), buf)
        d = json.loads(buf.getvalue())
        assert d["attrs"]["nnz"] == 5
        assert isinstance(d["attrs"]["arr"], str)

    def test_dump_trace_uses_config_path(self, traced, tmp_path, monkeypatch):
        target = tmp_path / "t.jsonl"
        monkeypatch.setattr(config.runtime, "trace_path", str(target))
        with obs.span("x"):
            pass
        assert obs.dump_trace() == str(target)
        assert target.exists()

    def test_prometheus_text_shapes(self, clean_metrics):
        obs.counter("spmv.calls.z.c").inc(3)
        obs.gauge("sirt.residual").set(0.25)
        obs.histogram("h", buckets=(1.0,)).observe(0.5)
        text = obs.prometheus_text(obs.registry)
        assert "# TYPE repro_spmv_calls_z_c counter" in text
        assert "repro_spmv_calls_z_c 3.0" in text
        assert "repro_sirt_residual 0.25" in text
        assert 'repro_h_bucket{le="+Inf"} 1' in text
        assert "repro_h_count 1" in text

    def test_prometheus_quantile_lines(self, clean_metrics):
        h = obs.histogram("lat", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        text = obs.prometheus_text(obs.registry)
        assert 'repro_lat{quantile="0.5"}' in text
        assert 'repro_lat{quantile="0.99"}' in text

    def test_stage_summary_has_exact_quantile_columns(self, traced):
        from repro.obs.export import stage_summary

        for _ in range(5):
            with obs.span("stage.a"):
                pass
        out = stage_summary(traced.finished())
        assert "p90 ms" in out and "p99 ms" in out and "stage.a" in out

    def test_tree_report_and_summary(self, traced):
        with obs.span("build.cscv"):
            with obs.span("build.ioblr"):
                pass
        tree = obs.trace_report()
        assert "build.cscv" in tree and "build.ioblr" in tree
        agg = obs.trace_report(aggregate=True)
        assert "build.ioblr" in agg and "calls" in agg

    def test_empty_reports(self, traced):
        assert "no spans" in obs.trace_report()
        assert "no spans" in obs.trace_report(aggregate=True)


# ---------------------------------------------------------------------- #
# pipeline integration


class TestPipelineSpans:
    def test_build_emits_stage_spans(self, traced, small_ct_f32):
        from repro.core.builder import build_cscv
        from repro.core.params import CSCVParams

        coo, geom = small_ct_f32
        build_cscv(coo.rows, coo.cols, coo.vals, geom, CSCVParams(8, 16, 2))
        names = {s.name for s in traced.finished()}
        assert {"build.cscv", "build.trajectory", "build.ioblr",
                "build.pack", "build.cscve", "build.vxg", "build.ymap",
                "build.merge"} <= names
        root = traced.find("build.cscv")[0]
        pack = traced.find("build.pack")[0]
        assert root.attrs["nnz"] == coo.nnz
        assert pack.parent == root.id and pack.attrs["workers"] >= 1
        # trajectory/ioblr nest under the root; packing stages under pack
        for s in traced.finished():
            if s.name in ("build.trajectory", "build.ioblr"):
                assert s.parent == root.id
            elif s.name in ("build.cscve", "build.vxg", "build.ymap",
                            "build.merge"):
                assert s.parent == pack.id

    def test_spmv_spans_and_counters(self, traced, clean_metrics, small_ct_f32, backend):
        from repro.core.format_z import CSCVZMatrix

        coo, geom = small_ct_f32
        a = CSCVZMatrix.from_ct(coo, geom)
        x = np.ones(coo.shape[1], dtype=np.float32)
        y = np.zeros(coo.shape[0], dtype=np.float32)
        a.spmv_into(x, y)
        spans = obs.tracer.find("spmv.z")
        assert len(spans) == 1
        assert spans[0].attrs["backend"] in ("c", "flat", "threaded")
        calls = [n for n in obs.registry.names() if n.startswith("spmv.calls.z.")]
        assert calls and obs.registry.get(calls[0]).value == 1

    def test_dispatch_fallback_counter(self, clean_metrics):
        from repro.kernels import dispatch

        prev = config.runtime.backend
        config.runtime.backend = "numpy"
        try:
            assert dispatch.get("csr_spmv", np.float64) is None
        finally:
            config.runtime.backend = prev
        assert obs.registry.get("dispatch.fallback.csr_spmv").value >= 1

    def test_solver_iteration_spans_and_residual_gauge(self, traced, clean_metrics,
                                                       small_ct_f32):
        from repro.recon import ProjectionOperator, sirt_reconstruct
        from repro.sparse.csr import CSRMatrix

        coo, geom = small_ct_f32
        op = ProjectionOperator(CSRMatrix.from_coo_matrix(coo))
        sino = op.forward(np.ones(coo.shape[1], dtype=np.float32))
        sirt_reconstruct(op, sino, iterations=3)
        iters = obs.tracer.find("sirt.iter")
        assert len(iters) == 3
        assert [s.attrs["k"] for s in iters] == [0, 1, 2]
        assert all("residual" in s.attrs for s in iters)
        assert obs.registry.get("sirt.iterations").value == 3
        assert obs.registry.get("sirt.residual").value >= 0.0

    def test_build_metrics_recorded(self, clean_metrics, small_ct_f32):
        from repro.core.builder import build_cscv
        from repro.core.params import CSCVParams

        coo, geom = small_ct_f32
        data = build_cscv(coo.rows, coo.cols, coo.vals, geom, CSCVParams(8, 16, 2))
        assert obs.registry.get("build.calls").value == 1
        assert obs.registry.get("build.r_nnze").count == 1
        fill = obs.registry.get("build.vxg_fill").value
        assert fill == pytest.approx(data.nnz / data.stored_slots)


# ---------------------------------------------------------------------- #
# cross-thread trace propagation


class TestTracePropagation:
    def test_current_context_and_attach(self, traced):
        assert obs.tracer.current_context() is None
        with obs.span("outer"):
            ctx = obs.tracer.current_context()
            assert ctx is not None
        with obs.tracer.attach(ctx):
            with obs.span("adopted"):
                pass
        with obs.tracer.attach(None):  # no-op attach
            with obs.span("rootish"):
                pass
        outer = traced.find("outer")[0]
        adopted = traced.find("adopted")[0]
        assert adopted.parent == outer.id
        assert adopted.depth == outer.depth + 1
        assert traced.find("rootish")[0].parent == -1

    def test_pool_worker_spans_parent_under_submitter(self, traced):
        from repro.utils.pool import SharedPool, run_resilient

        pool = SharedPool("test-trace-prop", lambda: 2)

        def work(i):
            with obs.span("worker.task", item=i):
                return i * 2

        try:
            with obs.span("fanout"):
                out = run_resilient(pool, work, range(4), 2, label="traceprop")
        finally:
            pool.shutdown()
        assert out == [0, 2, 4, 6]
        root = traced.find("fanout")[0]
        tasks = traced.find("worker.task")
        assert len(tasks) == 4
        assert all(t.parent == root.id and t.depth == 1 for t in tasks)

    def test_serial_degradation_keeps_parenting(self, traced, clean_metrics):
        """Workers that crash degrade to the caller thread, whose span
        stack still holds the submitting span — parenting must survive."""
        from repro.resilience import faults
        from repro.utils.pool import SharedPool, run_resilient

        pool = SharedPool("test-trace-serial", lambda: 2)

        def work(i):
            with obs.span("worker.task", item=i):
                return i + 1

        try:
            with faults.inject("pool.task.traceser:raise"):
                with obs.span("fanout"):
                    out = run_resilient(pool, work, range(3), 2,
                                        label="traceser")
        finally:
            pool.shutdown()
        assert out == [1, 2, 3]
        root = traced.find("fanout")[0]
        tasks = traced.find("worker.task")
        assert len(tasks) == 3
        assert all(t.parent == root.id and t.depth == 1 for t in tasks)


# ---------------------------------------------------------------------- #
# overhead + timing protocol


class TestOverheadAndTiming:
    def test_disabled_span_overhead_is_small(self):
        """Disabled span() must be branch-cheap (no allocation, no record)."""
        obs.disable()

        def plain():
            return sum(range(200))

        def instrumented():
            with obs.span("x"):
                return sum(range(200))

        t_plain = min_time(plain, iterations=300, warmup=20, max_seconds=1.0)
        t_inst = min_time(instrumented, iterations=300, warmup=20, max_seconds=1.0)
        # generous bound: the no-op context adds well under 100% to a
        # microsecond-scale body; on real SpMV bodies it's invisible
        assert t_inst < t_plain * 2.0 + 5e-6

    def test_time_stats_fields(self):
        st = time_stats(lambda: None, iterations=10, warmup=2, max_seconds=5.0)
        assert isinstance(st, TimingStats)
        assert st.iterations == 10 and st.warmup == 2
        assert st.min <= st.p50 <= st.mean + 3 * st.std + 1e-9
        assert st.std >= 0.0

    def test_min_time_matches_stats_protocol(self):
        assert min_time(lambda: None, iterations=5, warmup=0) >= 0.0

    def test_warmup_counts_against_budget(self):
        """A slow fn must not run the full warmup before the cap bites."""
        calls = []

        def slow():
            calls.append(1)
            time.sleep(0.03)

        time_stats(slow, iterations=100, warmup=50, max_seconds=0.05)
        # budget ~0.05s = ~2 calls of 0.03s; warmup alone would be 50
        assert len(calls) <= 5

    def test_at_least_one_timed_iteration(self):
        st = time_stats(lambda: time.sleep(0.02), iterations=100, warmup=3,
                        max_seconds=0.01)
        assert st.iterations >= 1

    def test_call_slower_than_budget_gets_three_samples(self):
        st = time_stats(lambda: time.sleep(0.02), iterations=100, warmup=3,
                        max_seconds=0.01)
        assert st.iterations == 3 and st.warmup == 1
        st = time_stats(lambda: time.sleep(0.02), iterations=2, warmup=0,
                        max_seconds=0.01)
        assert st.iterations == 2


# ---------------------------------------------------------------------- #
# harness + CLI integration


class TestHarnessAndCLI:
    def test_perf_record_stats_fields(self, small_ct_f32):
        from repro.bench.harness import measure_format
        from repro.sparse.csr import CSRMatrix

        coo, geom = small_ct_f32
        rec = measure_format(CSRMatrix.from_coo_matrix(coo), iterations=3)
        assert rec.mean_seconds >= rec.seconds > 0
        assert rec.p50_seconds >= rec.seconds
        assert rec.timed_iterations >= 1
        assert rec.noise >= 0.0

    def test_info_reports_obs_state(self, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "tracing" in out and "metrics" in out and "profiling" in out

    def test_trace_cli_renders_file(self, traced, tmp_path, capsys):
        from repro.cli import main

        with obs.span("build.cscv"):
            with obs.span("build.vxg"):
                pass
        path = tmp_path / "t.jsonl"
        obs.dump_jsonl(traced.finished(), str(path))
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "build.cscv" in out and "build.vxg" in out
        assert main(["trace", str(path), "--aggregate"]) == 0
        assert "calls" in capsys.readouterr().out

    def test_metrics_cli(self, clean_metrics, capsys):
        from repro.cli import main

        obs.counter("t.cli").inc()
        assert main(["metrics"]) == 0
        assert "repro_t_cli 1.0" in capsys.readouterr().out

    def test_cli_dumps_trace_with_env(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        target = tmp_path / "cli-trace.jsonl"
        monkeypatch.setattr(config.runtime, "trace", True)
        monkeypatch.setattr(config.runtime, "trace_path", str(target))
        prev_enabled = obs.tracer.enabled
        obs.reset()
        try:
            # --no-cache: the assertion below wants the build spans, which
            # a warm operator-cache hit would legitimately skip
            assert main(["reconstruct", "--solver", "sirt", "--size", "16",
                         "--iterations", "2", "--no-cache"]) == 0
        finally:
            obs.tracer.enabled = prev_enabled
            if not prev_enabled:
                from repro.obs import perf
                perf.disable()
        assert target.exists()
        names = {s.name for s in obs.load_jsonl(str(target))}
        assert "build.cscv" in names and "sirt.iter" in names
        obs.reset()


class TestProfileHooks:
    def test_disabled_profile_is_noop(self):
        from repro.obs import profile

        profile.disable()
        with profile.profiled("x"):
            pass  # must not start cProfile

    def test_enabled_profile_dumps_stats(self, tmp_path):
        from repro.obs import profile

        out = tmp_path / "p.pstats"
        profile.enable(str(out))
        try:
            with profile.profiled("region"):
                sum(range(1000))
        finally:
            profile.disable()
        assert out.exists()

    def test_env_parse(self, monkeypatch):
        from repro.obs import profile

        monkeypatch.setenv("REPRO_PROFILE", "0")
        assert profile.env_profile() == (False, None)
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert profile.env_profile() == (True, None)
        monkeypatch.setenv("REPRO_PROFILE", "/tmp/x.pstats")
        assert profile.env_profile() == (True, "/tmp/x.pstats")


class TestEnvGates:
    def test_env_trace_parse(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert config.env_trace() == (False, None)
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert config.env_trace() == (False, None)
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert config.env_trace() == (True, None)
        monkeypatch.setenv("REPRO_TRACE", "/tmp/out.jsonl")
        assert config.env_trace() == (True, "/tmp/out.jsonl")

    def test_status_keys(self):
        st = obs.status()
        assert {"tracing", "trace_path", "spans_recorded", "metrics",
                "metrics_registered", "profiling"} <= set(st)
