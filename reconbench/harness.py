"""Pure helpers shared by the reconstruction benchmark's processes.

Nothing here imports :mod:`repro`: the orchestrator (``run.py``), the
workload process (``workload.py``), ``compare.py`` and the tests all use
these pieces, and only the workload process talks to the program.

* statistics: medians, quartiles and the tail-percentile rule;
* seeded inputs: per-slice noise and tenant tags derived from ``--seed``;
* closed-loop accounting: which work counts and over which window;
* tracing: span wrappers around public functions, self time and the
  share of the wall no span covers;
* checks: bitwise image comparison and the one-ulp perturbation used to
  prove the checks can fail.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------- #
# statistics


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if not values:
        return 0.0, 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values, beyond: int = 10) -> tuple[float, float] | None:
    """Highest nearest-rank percentile with at least *beyond* samples above it.

    Returns ``(percentile, value)``, or ``None`` when fewer than
    ``beyond + 1`` samples exist.  With n samples sorted ascending the
    value is ``v[n - beyond - 1]`` and the percentile ``100 (n - beyond) / n``:
    100 samples give p90, 1000 give p99.
    """
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n < beyond + 1:
        return None
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


# ---------------------------------------------------------------------- #
# seeded inputs


def slice_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for slice *index* of a run, whatever order work is sent in."""
    return np.random.default_rng([int(seed), int(index)])


def noisy_slice(clean: np.ndarray, seed: int, index: int,
                noise_frac: float) -> np.ndarray:
    """*clean* plus Gaussian noise of ``noise_frac * std(clean)``."""
    sigma = noise_frac * float(clean.std() or 1.0)
    noise = slice_rng(seed, index).normal(0.0, sigma, clean.shape)
    return (clean + noise.astype(clean.dtype)).astype(clean.dtype)


def noisy_stack(clean: np.ndarray, seed: int, first: int, k: int,
                noise_frac: float) -> np.ndarray:
    """(m, k) stack of slices ``first .. first + k - 1``."""
    return np.stack(
        [noisy_slice(clean, seed, first + j, noise_frac) for j in range(k)],
        axis=1,
    )


def tenant_tag(seed: int, index: int, tenants: int) -> str:
    """Tenant of job *index*, drawn from its own seeded stream."""
    rng = np.random.default_rng([int(seed), int(index), 1])
    return f"tenant-{int(rng.integers(tenants))}"


# ---------------------------------------------------------------------- #
# closed-loop accounting


@dataclass(frozen=True)
class Unit:
    """One unit of work sent (a solve or a job), in one clock's seconds."""

    sent: float
    done: float | None      # None: never completed
    slices: int
    ok: bool


@dataclass(frozen=True)
class LoopSummary:
    attempted: int
    completed: int
    failed: int
    slices: int
    window_s: float


def summarize_loop(units: list[Unit]) -> LoopSummary:
    """Only completed, successful work counts, from the first request sent
    to the last completion.  Work sent before the stop and finished after
    it (the overshoot) counts in full, and the window stretches to cover it."""
    done = [u for u in units if u.ok and u.done is not None]
    if not done:
        return LoopSummary(len(units), 0, len(units), 0, 0.0)
    first = min(u.sent for u in units)
    last = max(u.done for u in done)
    return LoopSummary(
        attempted=len(units),
        completed=len(done),
        failed=len(units) - len(done),
        slices=sum(u.slices for u in done),
        window_s=last - first,
    )


# ---------------------------------------------------------------------- #
# tracing


class Span:
    """One call of a wrapped function."""

    __slots__ = ("name", "start", "end", "parent", "rid", "thread",
                 "child_s", "note")

    def __init__(self, name, start, parent, rid, thread, note=None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.thread = thread
        self.child_s = 0.0
        self.note = note

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time its child spans cover."""
        return self.duration - self.child_s


class Tracer:
    """Records a span per call of every function it wraps.

    Spans live in memory (:attr:`spans`) until :meth:`dump`.  The parent
    is the innermost open span of the same thread; the request id is the
    thread's current one (:meth:`set_rid`).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_rid(self, rid) -> None:
        self._local.rid = rid

    def last_span(self) -> Span | None:
        """The span most recently closed on this thread."""
        return getattr(self._local, "last", None)

    def wrap(self, name: str, fn, *, note=None, before=None):
        """*fn* recording one span per call.

        ``note(args, kwargs)`` stores call details on the span;
        ``before(args, kwargs)`` runs first (e.g. to set the request id).
        """
        spans = self.spans
        local = self._local
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = Span(
                name, clock(), parent, getattr(local, "rid", None),
                threading.get_ident(),
                note(args, kwargs) if note is not None else None,
            )
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                local.last = span

        return traced

    def install(self, targets):
        """Patch ``(owner, attribute, span name, options)`` targets.

        Returns a function that restores every original attribute.
        A classmethod is unwrapped and rewrapped; a method a class inherits
        is shadowed on that class only.
        """
        undo = []
        for owner, attr, name, opts in targets:
            own = attr in vars(owner)
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                patched = classmethod(self.wrap(name, original.__func__, **opts))
            else:
                patched = self.wrap(name, original, **opts)
            setattr(owner, attr, patched)
            undo.append((owner, attr, original, own))

        def restore():
            for owner, attr, original, own in reversed(undo):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

        return restore

    def dump(self, path) -> None:
        """Write every span as one JSON line (ids are list positions)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": index.get(id(s.parent)),
                    "rid": s.rid,
                    "thread": s.thread,
                }, default=str) + "\n")


def fill_missing_rids(spans: list[Span]) -> None:
    """Give a span with no request id the id of the next span on its
    thread (a payload spill runs before the record naming its job)."""
    by_thread: dict = {}
    for s in spans:
        by_thread.setdefault(s.thread, []).append(s)
    for seq in by_thread.values():
        seq.sort(key=lambda s: s.start)
        following = None
        for s in reversed(seq):
            if s.rid is None:
                s.rid = following
            following = s.rid


def in_window(spans, t0: float, t1: float) -> list[Span]:
    return [s for s in spans if t0 <= s.start <= t1]


def self_time(spans, name: str) -> float:
    return sum(s.self_s for s in spans if s.name == name)


def covered_s(spans, t0: float, t1: float) -> float:
    """Length of ``[t0, t1]`` covered by at least one root span.

    On one thread this equals the sum of every span's self time, since
    children lie inside their parents; across threads overlapping work
    is counted once.
    """
    intervals = sorted(
        (max(s.start, t0), min(s.end, t1))
        for s in spans if s.parent is None
    )
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def unattributed_frac(spans, t0: float, t1: float) -> float:
    """Share of the wall ``[t0, t1]`` that no span accounts for."""
    wall = t1 - t0
    return 1.0 - covered_s(spans, t0, t1) / wall if wall > 0 else 0.0


# ---------------------------------------------------------------------- #
# checks


def bitwise_equal(a, b) -> bool:
    """Same dtype, shape and bytes (so -0.0 != 0.0 and NaN == NaN)."""
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def perturb_ulp(image: np.ndarray) -> np.ndarray:
    """Copy of *image* with its first element moved by one ulp."""
    out = np.array(image, copy=True)
    flat = out.reshape(-1)
    flat[0] = np.nextafter(flat[0], np.inf, dtype=out.dtype)
    return out


def check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}
