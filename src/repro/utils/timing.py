"""Timing utilities implementing the paper's measurement protocol.

Section V-C: *"Performance is measured by the minimum SpMV execution time
recorded with at least 100 SpMV iterations"* — the minimum is robust to
one-off overheads (thread fork/join, allocation, frequency ramp-up).
:func:`min_time` implements exactly that; :class:`Timer` is a small
context-manager stopwatch used by the pipeline-stage breakdown (Fig 7).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Timer:
    """Context-manager stopwatch accumulating named laps.

    Example
    -------
    >>> t = Timer()
    >>> with t.lap("convert"):
    ...     pass
    >>> "convert" in t.laps
    True
    """

    laps: dict[str, float] = field(default_factory=dict)

    class _Lap:
        def __init__(self, timer: "Timer", name: str):
            self._timer = timer
            self._name = name
            self._start = 0.0

        def __enter__(self):
            self._start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            elapsed = time.perf_counter() - self._start
            self._timer.laps[self._name] = self._timer.laps.get(self._name, 0.0) + elapsed
            return False

    def lap(self, name: str) -> "Timer._Lap":
        """Return a context manager that accumulates elapsed time under *name*."""
        return Timer._Lap(self, name)

    def total(self) -> float:
        """Sum of all recorded laps in seconds."""
        return sum(self.laps.values())


@dataclass(frozen=True)
class TimingStats:
    """Distribution of per-call wall-clock times from :func:`time_stats`.

    ``min`` stays the paper's headline number; ``mean``/``std``/``p50``
    expose run-to-run noise so benchmark tables can show both.
    """

    min: float
    mean: float
    std: float
    p50: float
    iterations: int
    warmup: int

    @classmethod
    def from_samples(cls, samples: list[float], warmup: int) -> "TimingStats":
        n = len(samples)
        if n == 0:
            raise ValueError("need at least one timed sample")
        mean = sum(samples) / n
        var = sum((s - mean) ** 2 for s in samples) / n
        ordered = sorted(samples)
        mid = n // 2
        p50 = ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
        return cls(
            min=ordered[0], mean=mean, std=var ** 0.5, p50=p50,
            iterations=n, warmup=warmup,
        )


#: Timed calls :func:`time_stats` always makes (when *iterations* allows),
#: whatever the budget: one sample has no spread to report.
MIN_SAMPLES = 3


def time_stats(
    fn: Callable[[], object],
    *,
    iterations: int = 100,
    warmup: int = 3,
    max_seconds: float = 5.0,
) -> TimingStats:
    """Timing distribution of *fn* under the paper's min-of-N protocol.

    Parameters
    ----------
    fn : callable
        The operation to time (no arguments; capture state in a closure).
    iterations : int
        Target number of timed iterations (the paper uses >= 100).
    warmup : int
        Untimed warm-up calls (cache/JIT/page-fault warming).  Warmup
        wall-clock counts against *max_seconds* — a huge problem can't
        blow the budget before the first timed iteration.
    max_seconds : float
        Stop early once this much total wall-clock (warmup included) has
        elapsed, so huge problems don't hold the harness hostage — but
        only after ``min(3, iterations)`` timed iterations, so even a
        call slower than the budget reports its run-to-run noise.

    Returns
    -------
    TimingStats
        min / mean / std / p50 of the per-call times, with the number of
        timed iterations and warmup calls actually performed.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    spent = 0.0
    warmed = 0
    for _ in range(max(0, warmup)):
        start = time.perf_counter()
        fn()
        spent += time.perf_counter() - start
        warmed += 1
        if spent >= max_seconds:
            break
    samples = []
    for _ in range(iterations):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        samples.append(elapsed)
        spent += elapsed
        if spent >= max_seconds and len(samples) >= MIN_SAMPLES:
            break
    return TimingStats.from_samples(samples, warmed)


def min_time(
    fn: Callable[[], object],
    *,
    iterations: int = 100,
    warmup: int = 3,
    max_seconds: float = 5.0,
) -> float:
    """Minimum wall-clock execution time of *fn* over repeated calls.

    Thin wrapper over :func:`time_stats` (same protocol and budget
    semantics) returning just the paper's headline minimum.
    """
    return time_stats(
        fn, iterations=iterations, warmup=warmup, max_seconds=max_seconds
    ).min


def gflops(nnz: int, seconds: float) -> float:
    """SpMV floating-point rate per the paper: ``F = 2*nnz / T`` in GFLOP/s."""
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    return 2.0 * nnz / seconds / 1e9
