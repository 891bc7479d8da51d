"""Tests for repro.utils timing and table rendering."""

import numpy as np
import pytest

from repro.utils.tables import Table, render_grid
from repro.utils.timing import Timer, gflops, min_time


class TestTimer:
    def test_lap_accumulates(self):
        t = Timer()
        with t.lap("a"):
            pass
        with t.lap("a"):
            pass
        assert t.laps["a"] >= 0.0
        assert t.total() == pytest.approx(sum(t.laps.values()))

    def test_multiple_names(self):
        t = Timer()
        with t.lap("x"):
            pass
        with t.lap("y"):
            pass
        assert set(t.laps) == {"x", "y"}


class TestMinTime:
    def test_returns_positive(self):
        assert min_time(lambda: sum(range(100)), iterations=3, warmup=1) > 0.0

    def test_respects_budget(self):
        import time

        calls = []

        def slow():
            calls.append(1)
            time.sleep(0.02)

        min_time(slow, iterations=100, warmup=0, max_seconds=0.05)
        assert len(calls) < 100

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            min_time(lambda: None, iterations=0)

    def test_gflops(self):
        assert gflops(5_000_000, 0.01) == pytest.approx(1.0)

    def test_gflops_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gflops(1, 0.0)


class TestTable:
    def test_render_contains_cells(self):
        t = Table(headers=["a", "b"], title="T")
        t.add_row("x", 1.5)
        out = t.render()
        assert "T" in out and "x" in out and "1.5" in out

    def test_row_length_checked(self):
        t = Table(headers=["a", "b"])
        with pytest.raises(ValueError):
            t.add_row("only-one")

    def test_mark_extremes(self):
        t = Table(headers=["n", "v"], fmt=".1f")
        t.add_row("x", 1.0).add_row("y", 3.0).add_row("z", 2.0)
        t.mark_extremes(1)
        out = t.render()
        assert "3.0*" in out and "2.0~" in out

    def test_none_rendered_as_dash(self):
        t = Table(headers=["a"])
        t.add_row(None)
        assert "-" in t.render()


class TestRenderGrid:
    def test_shape_and_labels(self):
        out = render_grid(np.arange(6).reshape(2, 3), row_labels=["r0", "r1"])
        assert "r0" in out and "r1" in out

    def test_heatmap_glyphs(self):
        out = render_grid(np.array([[0.0, 100.0]]), heat=True, fmt=".0f")
        assert "@" in out  # max cell gets the darkest glyph

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            render_grid(np.arange(3))

    def test_nan_rendered_as_dash(self):
        out = render_grid(np.array([[np.nan, 1.0]]))
        assert "-" in out
