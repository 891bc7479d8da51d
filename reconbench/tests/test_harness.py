"""Tests of the reconstruction benchmark's harness.

Run from the repository root::

    PYTHONPATH=src python -m pytest reconbench/tests

The last tests run the whole benchmark in ``--smoke`` mode (32^2, 2 s
per workload) and take about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import harness as hz  # noqa: E402

# ---------------------------------------------------------------------- #
# percentile rule


def test_no_tail_percentile_below_eleven_samples():
    assert hz.tail_percentile(range(10)) is None
    assert hz.tail_percentile([]) is None


def test_tail_percentile_keeps_ten_samples_beyond():
    assert hz.tail_percentile(range(11)) == (pytest.approx(100 / 11), 0.0)
    pct, value = hz.tail_percentile(range(100))
    assert pct == 90.0 and value == 89.0
    pct, value = hz.tail_percentile(range(1000))
    assert pct == 99.0 and value == 989.0
    for n in (11, 37, 250):
        values = list(np.random.default_rng(n).normal(size=n))
        _, value = hz.tail_percentile(values)
        assert sum(v > value for v in values) == 10


def test_quartiles_match_statistics_module():
    q1, q2, q3 = hz.quartiles([5, 1, 4, 2, 3])
    assert (q1, q2, q3) == (1.5, 3.0, 4.5)
    assert hz.quartiles([7.0]) == (7.0, 7.0, 7.0)


# ---------------------------------------------------------------------- #
# seed determinism


def test_same_seed_same_payloads_and_tenants():
    clean = np.linspace(0.0, 1.0, 64, dtype=np.float32)
    a = [hz.noisy_slice(clean, 7, i, 0.01) for i in range(5)]
    b = [hz.noisy_slice(clean, 7, i, 0.01) for i in reversed(range(5))][::-1]
    assert all(hz.bitwise_equal(x, y) for x, y in zip(a, b))
    assert [hz.tenant_tag(7, i, 4) for i in range(20)] == \
        [hz.tenant_tag(7, i, 4) for i in range(20)]
    stack = hz.noisy_stack(clean, 7, 3, 2, 0.01)
    assert hz.bitwise_equal(stack[:, 1], a[4])


def test_other_seed_other_payloads():
    clean = np.linspace(0.0, 1.0, 64, dtype=np.float32)
    assert not hz.bitwise_equal(hz.noisy_slice(clean, 1, 0, 0.01),
                                hz.noisy_slice(clean, 2, 0, 0.01))
    assert [hz.tenant_tag(1, i, 4) for i in range(50)] != \
        [hz.tenant_tag(2, i, 4) for i in range(50)]


def test_noise_is_one_percent_of_the_signal_spread():
    clean = np.sin(np.linspace(0, 20, 100_000)).astype(np.float32)
    noise = hz.noisy_slice(clean, 0, 0, 0.01).astype(np.float64) - clean
    assert noise.std() == pytest.approx(0.01 * clean.std(), rel=0.02)


# ---------------------------------------------------------------------- #
# spans, self time and unattributed time


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_and_unattributed_on_nested_spans():
    clock = FakeClock()
    tracer = hz.Tracer(clock=clock)

    def leaf():
        clock.t += 2.0

    def middle():
        clock.t += 1.0
        traced_leaf()
        traced_leaf()
        clock.t += 0.5

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.set_rid("solve-0")
    traced_middle()          # 0.0 .. 5.5
    clock.t += 1.0           # gap: nothing traced
    traced_leaf()            # 6.5 .. 8.5

    spans = tracer.spans
    assert [s.name for s in spans] == ["middle", "leaf", "leaf", "leaf"]
    assert spans[1].parent is spans[0] and spans[3].parent is None
    assert {s.rid for s in spans} == {"solve-0"}
    assert hz.self_time(spans, "middle") == pytest.approx(1.5)
    assert hz.self_time(spans, "leaf") == pytest.approx(6.0)
    total_self = sum(s.self_s for s in spans)
    assert hz.covered_s(spans, 0.0, 8.5) == pytest.approx(total_self)
    assert hz.unattributed_frac(spans, 0.0, 8.5) == pytest.approx(1.0 / 8.5)
    assert hz.unattributed_frac(spans, 0.0, 10.0) == pytest.approx(2.5 / 10.0)


def test_overlapping_roots_on_two_threads_count_once():
    spans = [hz.Span("a", 0.0, None, 1, thread=1), hz.Span("b", 1.0, None, 2, thread=2)]
    spans[0].end, spans[1].end = 2.0, 3.0
    assert hz.covered_s(spans, 0.0, 4.0) == pytest.approx(3.0)


def test_missing_rid_takes_the_next_span_on_its_thread():
    spans = [hz.Span("spill", 0.0, None, None, thread=9),
             hz.Span("append", 1.0, None, "job-1", thread=9),
             hz.Span("other", 0.5, None, None, thread=8)]
    hz.fill_missing_rids(spans)
    assert spans[0].rid == "job-1" and spans[2].rid is None


def test_install_wraps_and_restores_methods():
    class Base:
        def run(self, x):
            return x + 1

        @classmethod
        def make(cls, x):
            return cls(), x

    class Child(Base):
        pass

    tracer = hz.Tracer()
    restore = tracer.install([
        (Child, "run", "run", {"note": lambda a, kw: a[1]}),
        (Child, "make", "make", {}),
    ])
    assert Child().run(41) == 42 and Base().run(1) == 2
    obj, x = Child.make(3)
    assert isinstance(obj, Child) and x == 3
    assert [(s.name, s.note) for s in tracer.spans] == [("run", 41), ("make", None)]
    restore()
    assert "run" not in vars(Child) and "make" not in vars(Child)
    Child().run(0)
    assert len(tracer.spans) == 2


# ---------------------------------------------------------------------- #
# closed-loop accounting


def test_only_completed_work_counts_from_first_request_to_last_completion():
    units = [
        hz.Unit(0.0, 4.0, 8, True),
        hz.Unit(4.0, 8.0, 8, True),
        hz.Unit(8.0, None, 8, False),       # raised: attempted, not counted
        hz.Unit(8.5, 13.0, 8, True),        # sent before the stop at 10 s
        hz.Unit(9.0, 12.0, 8, False),       # finished but failed
    ]
    loop = hz.summarize_loop(units)
    assert (loop.attempted, loop.completed, loop.failed) == (5, 3, 2)
    assert loop.slices == 24
    assert loop.window_s == pytest.approx(13.0)   # overshoot past 10 s included


def test_loop_with_nothing_completed():
    loop = hz.summarize_loop([hz.Unit(0.0, None, 1, False)])
    assert loop.completed == 0 and loop.failed == 1 and loop.window_s == 0.0


# ---------------------------------------------------------------------- #
# checks


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_checker_fails_on_a_one_ulp_perturbed_image(dtype):
    image = np.random.default_rng(0).random(256).astype(dtype)
    assert hz.bitwise_equal(image, image.copy())
    bumped = hz.perturb_ulp(image)
    assert not hz.bitwise_equal(bumped, image)
    assert np.count_nonzero(bumped != image) == 1
    assert np.allclose(bumped, image, rtol=0, atol=np.spacing(image.max()))


def test_bitwise_equal_distinguishes_dtype_shape_and_signed_zero():
    a = np.zeros(4, dtype=np.float32)
    assert not hz.bitwise_equal(a, a.astype(np.float64))
    assert not hz.bitwise_equal(a, a.reshape(2, 2))
    assert not hz.bitwise_equal(a, -a)


# ---------------------------------------------------------------------- #
# compare verdicts


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert compare.verdict(parent, [12.0, 12.1, 11.9, 12.2, 12.05], "higher", 0.1)[0] \
        == "improved"
    assert compare.verdict(parent, [10.02, 9.98, 10.0, 10.1, 9.9], "higher", 0.1)[0] \
        == "no-worse"
    assert compare.verdict(parent, [8.0, 8.1, 7.9, 8.05, 7.95], "higher", 0.1)[0] \
        == "regressed"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0]
    assert compare.verdict(noisy, [9.0, 11.0, 7.0, 13.0, 10.0], "lower", 0.1)[0] \
        == "unresolved"


# ---------------------------------------------------------------------- #
# the whole benchmark, small


def run_bench(*extra):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", *extra],
        capture_output=True, text=True, timeout=900,
    )


def benchmark_spec() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_smoke_pass_of_all_four_workloads():
    proc = run_bench("--seed", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    spec = benchmark_spec()
    expected = {f"{w['name']}/{m['name']}" for w in spec["workloads"]
                for m in spec["end_to_end"]}
    assert set(result["metrics"]) == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_reports_every_per_layer_metric():
    proc = run_bench("--workload", "serve-solo-64", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in benchmark_spec()["per_layer"]}
    assert result["metrics"]["api.operator_calls"]["value"] == 1.0
    assert result["metrics"]["serve.batch_width_mean"]["value"] == 1.0


def test_smoke_exits_non_zero_on_a_perturbed_result():
    proc = run_bench("--perturb")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    bitwise = [line for line in proc.stdout.splitlines()
               if "column0_equals_solo" in line or "job_equals_library" in line]
    assert len(bitwise) == 5 and all("FAILED" in line for line in bitwise)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "reconbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "reconbench/run.py", "--workload", "slice-256", "--seed", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
