"""Shared fixtures for the table/figure benchmarks.

Each bench file regenerates one table or figure of the paper (printed to
stdout; run with ``-s`` to see them) and times its representative kernel
through pytest-benchmark.  The fixtures below build each matrix once per
pytest run; nothing is cached on disk, so every run traces them afresh.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.datasets import get_dataset


@pytest.fixture(scope="session")
def quick_matrix():
    """The small clinical dataset in float32 (shared across bench files)."""
    return get_dataset("clinical-small").load(dtype=np.float32)


@pytest.fixture(scope="session")
def mid_matrix():
    """The mid clinical dataset in float32."""
    return get_dataset("clinical-mid").load(dtype=np.float32)


def emit(report: str) -> None:
    """Print a regenerated table/figure under a visible rule."""
    print("\n" + "=" * 72)
    print(report)
    print("=" * 72)
