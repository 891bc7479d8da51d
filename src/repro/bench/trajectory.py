"""Benchmark trajectory: the repo's one micro-benchmark ledger.

``repro bench trajectory`` runs a *pinned* suite at the paper's scale
(256², 19.1M nnz, an operator beyond the LLC) and appends a
schema-versioned point (host fingerprint, STREAM GB/s, git rev, kernels
ABI version, per-case seconds/GB/s/R_EM/noise) to the committed
``BENCH_trajectory.json``.  The suite is

* three cases per row of the CSCV dispatcher's
  :data:`~repro.core.spmv.ROUTES` table (CSCV-Z and CSCV-M, forward and
  adjoint): each kernel is timed on a vector, an ``(·, 1)`` and an
  ``(·, 8)`` stack, so the suite follows the table when rows change;
* the ``csr`` forward product on a vector and an ``(·, 8)`` stack, the
  paper's baseline;
* one cold build (``build/strip``), one warm cache load
  (``cache-warm/cscv-z``) and one 10-iteration single-slice SIRT solve
  (``solve/sirt``) split into forward, adjoint and update seconds.

Product case keys name the direction, format, size, layout (``1d``,
``n1``, ``n8``) and thread count, e.g. ``adj/cscv-z/256/n1/t2``.  Their
bytes come from :func:`repro.obs.perf.cscv_bytes`, the model the
dispatch telemetry records, so both report the same ``R_EM``.

``repro bench compare`` diffs two points of that file with noise-aware
thresholds: a case regresses when its new time exceeds the old by more
than ``max(25%, 4x the larger run-to-run noise)`` (capped at 90%, so a
2x slowdown always trips).  CI runs the pair in report-only mode to
surface drift without flaking on shared-runner noise.
"""

from __future__ import annotations

import json
import os
import subprocess
import time

import numpy as np

from repro.obs import perf as obs_perf
from repro.utils.tables import Table

__all__ = [
    "TRAJECTORY_SCHEMA",
    "DEFAULT_TRAJECTORY_PATH",
    "run_trajectory",
    "append_point",
    "load_trajectory",
    "compare_points",
    "render_point",
    "render_compare",
]

TRAJECTORY_SCHEMA = 1

DEFAULT_TRAJECTORY_PATH = "BENCH_trajectory.json"

#: The pinned suite: the stack width of the wide cases and the solve's
#: iteration count never change, so points stay comparable.
SUITE_WIDTH = 8
SOLVE_ITERATIONS = 10
QUICK_SIZES = (32,)
FULL_SIZES = (256,)

#: Operand layouts as (key tag, stack width or None): every ROUTES row
#: is timed on a vector, an (·, 1) and an (·, 8) stack.
VECTOR = ("1d", None)
NARROW = ("n1", 1)
WIDE = (f"n{SUITE_WIDTH}", SUITE_WIDTH)
LAYOUTS = (VECTOR, NARROW, WIDE)

#: Regression slack: at least this much headroom always ...
MIN_SLACK = 0.25
#: ... plus 4x the larger of the two points' relative noise, capped so a
#: genuine 2x slowdown can never hide inside the threshold.
MAX_SLACK = 0.90
NOISE_FACTOR = 4.0


def git_rev() -> str:
    """Short git revision of the working tree, or "unknown"."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def _case(name: str, kind: str, fmt_name: str, size: int, stats, *,
          nnz: int, traffic_bytes: float | None, batch: int = 1,
          stream_gbs: float | None, **extra) -> dict:
    """One suite case record from a :class:`TimingStats`-like object."""
    t = stats.min
    gbs = traffic_bytes / t / 1e9 if (traffic_bytes and t > 0) else None
    return {
        "case": name,
        "kind": kind,
        "format": fmt_name,
        "size": size,
        "batch": batch,
        "seconds": t,
        "mean_seconds": stats.mean,
        "noise": stats.std / stats.mean if stats.mean else 0.0,
        "gflops": 2.0 * nnz * batch / t / 1e9 if t > 0 else None,
        "bytes": traffic_bytes,
        "achieved_gbs": gbs,
        "r_em": gbs / stream_gbs if (gbs and stream_gbs) else None,
        "nnz": int(nnz),
        **extra,
    }


class _OneShot:
    """TimingStats stand-in for single-run cases (build, cache, solve)."""

    def __init__(self, seconds: float):
        self.min = self.mean = self.p50 = seconds
        self.std = 0.0
        self.iterations = 1


def _product_cases(size: int, timed, stream) -> list[dict]:
    """Every ROUTES row at each of its layouts, then the csr baseline;
    ``stream(threads)`` is the ``R_EM`` denominator for a thread count."""
    from repro import config
    from repro.api import operator
    from repro.core import spmv

    rng = np.random.default_rng(0)
    fmts: dict = {}
    cases = []
    for adjoint, variant in spmv.ROUTES:
        if variant not in fmts:
            fmts[variant] = operator(size, fmt=f"cscv-{variant}",
                                     dtype=np.float32).fmt
        fmt = fmts[variant]
        threads = int(fmt.threads or config.runtime.threads)
        m, n = fmt.shape
        size_in, size_out = (m, n) if adjoint else (n, m)
        for tag, width in LAYOUTS:
            tail = () if width is None else (width,)
            X = rng.random((size_in,) + tail, dtype=np.float32)
            out = np.empty((size_out,) + tail, dtype=np.float32)
            stats = timed(lambda: spmv.product(fmt, X, out, adjoint=adjoint))
            k = width or 1
            cases.append(_case(
                f"{'adj' if adjoint else 'fwd'}/{fmt.name}/{size}/{tag}/t{threads}",
                spmv.OPS[adjoint, width is not None][0], fmt.name, size,
                stats, nnz=fmt.nnz, batch=k,
                traffic_bytes=obs_perf.cscv_bytes(
                    fmt.data, variant, k, adjoint=adjoint)["total"],
                stream_gbs=stream(threads), threads=threads,
            ))
    fmts.clear()  # free the CSCV operators before the csr one loads

    csr = operator(size, fmt="csr", dtype=np.float32).fmt
    threads = int(config.runtime.threads)
    m, n = csr.shape
    for tag, width in (VECTOR, WIDE):
        tail = () if width is None else (width,)
        X = rng.random((n,) + tail, dtype=np.float32)
        out = np.empty((m,) + tail, dtype=np.float32)
        into = csr.spmv_into if width is None else csr.spmm_into
        stats = timed(lambda: into(X, out))
        k = width or 1
        cases.append(_case(
            f"fwd/csr/{size}/{tag}/t{threads}", "spmv" if width is None else "spmm",
            "csr", size, stats, nnz=csr.nnz, batch=k,
            traffic_bytes=obs_perf.format_bytes(csr, k)["total"],
            stream_gbs=stream(threads), threads=threads,
        ))
    return cases


def _traced(fn) -> list:
    """Spans recorded while *fn* runs; the tracer is left as it was."""
    from repro.obs.trace import tracer

    was_on, first = tracer.enabled, len(tracer.finished())
    tracer.enable()
    try:
        fn()
    finally:
        spans = tracer.finished()[first:]
        if not was_on:
            tracer.disable()
            del tracer.spans[first:]
    return spans


def _solve_split(spans) -> dict:
    """Iteration seconds of one traced SIRT solve, split by the
    dispatcher's product spans: ``forward_s`` + ``adjoint_s`` + ``update_s``."""
    from repro.core.spmv import OPS, ROUTES

    names = {adjoint: {f"{OPS[a, two_d][0]}.{v}" for a, v in ROUTES
                       for two_d in (False, True) if a == adjoint}
             for adjoint in (False, True)}
    iters = {s.id: s for s in spans if s.name == "sirt.iter"}
    inside = [s for s in spans if s.parent in iters]
    total = sum(s.seconds for s in iters.values())
    forward = sum(s.seconds for s in inside if s.name in names[False])
    adjoint = sum(s.seconds for s in inside if s.name in names[True])
    return {"seconds": total, "forward_s": forward, "adjoint_s": adjoint,
            "update_s": total - forward - adjoint, "iterations": len(iters)}


def _solve_case(size: int, repeats: int) -> dict:
    """``solve/sirt/<size>``: the best of *repeats* traced solves."""
    from repro import api
    from repro.geometry.phantom import shepp_logan

    op = api.operator(size)
    y = op.forward(shepp_logan(size).ravel().astype(op.dtype))
    best = min(
        (_solve_split(_traced(lambda: api.reconstruct(
            op, y, solver="sirt", iterations=SOLVE_ITERATIONS)))
         for _ in range(repeats)),
        key=lambda split: split["seconds"],
    )
    return _case(
        f"solve/sirt/{size}", "solve", op.fmt.name, size,
        _OneShot(best.pop("seconds")), nnz=0, traffic_bytes=None,
        stream_gbs=None, **best,
    )


def run_trajectory(*, quick: bool = False, sizes=None) -> dict:
    """Run the pinned suite; returns one schema-versioned trajectory point.

    Measures (and persists) the host's STREAM bandwidth on each thread
    count a case runs on, so every product case carries an ``r_em``
    against its own thread count and later dispatch accounting finds the
    cached denominator.
    """
    from repro.bench.build import run_build_bench
    from repro.bench.cache import run_cache_bench
    from repro.kernels import KERNELS_ABI_VERSION, dispatch
    from repro.utils.timing import time_stats

    sizes = tuple(sizes) if sizes else (QUICK_SIZES if quick else FULL_SIZES)
    iterations = 10 if quick else 30
    max_seconds = 0.5 if quick else 2.0
    repeats = 1 if quick else 2

    def stream(threads: int) -> float:
        return obs_perf.stream_bandwidth(
            measure=True, size_mb=64 if quick else 256, threads=threads)

    def timed(fn):
        return time_stats(fn, iterations=iterations, max_seconds=max_seconds)

    cases: list[dict] = []
    for size in sizes:
        cases.extend(_product_cases(size, timed, stream))

    size = sizes[0]
    for rec in run_build_bench(size=size, projectors=("strip",),
                               worker_counts=(1,), repeats=repeats):
        cases.append(_case(
            f"build/strip/{size}", "build", "cscv", size,
            _OneShot(rec.total_seconds), nnz=rec.nnz,
            traffic_bytes=None, stream_gbs=None,
        ))
    for rec in run_cache_bench(size=size, format_names=("cscv-z",),
                               warm_repeats=3):
        cases.append(_case(
            f"cache-warm/{rec.format_name}/{size}", "cache",
            rec.format_name, size, _OneShot(rec.warm_seconds),
            nnz=0, traffic_bytes=rec.entry_bytes, stream_gbs=stream(1),
        ))
    cases.append(_solve_case(size, repeats))

    return {
        "schema": TRAJECTORY_SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "fingerprint": obs_perf.host_fingerprint(),
            "cpu_count": os.cpu_count() or 1,
            "stream_gbs": stream(1),
            "stream_gbs_threads": {
                str(t): stream(t) for t in sorted(
                    {c["threads"] for c in cases if "threads" in c})},
        },
        "git_rev": git_rev(),
        "abi": KERNELS_ABI_VERSION,
        "backend": dispatch.backend_in_use(),
        "quick": bool(quick),
        "cases": cases,
    }


def load_trajectory(path: str = DEFAULT_TRAJECTORY_PATH) -> dict:
    """The trajectory file's payload; an empty skeleton if absent."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        return {"bench": "trajectory", "schema": TRAJECTORY_SCHEMA, "points": []}
    if not isinstance(payload, dict) or "points" not in payload:
        raise ValueError(f"{path} is not a trajectory file")
    return payload


def append_point(point: dict, path: str = DEFAULT_TRAJECTORY_PATH) -> dict:
    """Append *point* to the trajectory file (created if missing)."""
    payload = load_trajectory(path)
    payload["points"].append(point)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)
    return payload


def _slack(old: dict, new: dict) -> float:
    noise = max(old.get("noise") or 0.0, new.get("noise") or 0.0)
    return min(MAX_SLACK, max(MIN_SLACK, NOISE_FACTOR * noise))


def compare_points(old: dict, new: dict) -> list[dict]:
    """Case-by-case noise-aware diff of two trajectory points.

    Each result carries a ``status``: ``regression`` (new time above the
    slack threshold), ``improved`` (below the inverse threshold), ``ok``,
    ``new`` (case only in *new*) or ``missing`` (case only in *old*).
    """
    old_cases = {c["case"]: c for c in old["cases"]}
    new_cases = {c["case"]: c for c in new["cases"]}
    results = []
    for name in sorted(set(old_cases) | set(new_cases)):
        o, n = old_cases.get(name), new_cases.get(name)
        if o is None or n is None:
            results.append({
                "case": name, "status": "new" if o is None else "missing",
                "old_seconds": o["seconds"] if o else None,
                "new_seconds": n["seconds"] if n else None,
                "ratio": None, "slack": None,
            })
            continue
        slack = _slack(o, n)
        ratio = n["seconds"] / o["seconds"] if o["seconds"] else float("inf")
        if ratio > 1.0 + slack:
            status = "regression"
        elif ratio < 1.0 / (1.0 + slack):
            status = "improved"
        else:
            status = "ok"
        results.append({
            "case": name, "status": status,
            "old_seconds": o["seconds"], "new_seconds": n["seconds"],
            "ratio": ratio, "slack": slack,
        })
    return results


def render_point(point: dict, *, title: str = "") -> str:
    """Human table of one trajectory point."""
    t = Table(
        headers=["case", "ms", "noise", "GF/s", "GB/s", "R_EM"],
        title=title or (
            f"trajectory @ {point.get('git_rev', '?')} "
            f"({point.get('backend', '?')}, abi {point.get('abi', '?')})"
        ),
    )
    for c in point["cases"]:
        t.add_row(
            c["case"],
            f"{c['seconds'] * 1e3:.3f}",
            f"{c['noise']:.1%}",
            f"{c['gflops']:.2f}" if c.get("gflops") else "-",
            f"{c['achieved_gbs']:.2f}" if c.get("achieved_gbs") else "-",
            f"{c['r_em']:.3f}" if c.get("r_em") else "-",
        )
    return t.render()


def render_compare(results: list[dict], *, title: str = "") -> str:
    """Human table of a two-point comparison."""
    t = Table(
        headers=["case", "old ms", "new ms", "ratio", "slack", "status"],
        title=title or "trajectory comparison",
    )
    for r in results:
        t.add_row(
            r["case"],
            f"{r['old_seconds'] * 1e3:.3f}" if r["old_seconds"] else "-",
            f"{r['new_seconds'] * 1e3:.3f}" if r["new_seconds"] else "-",
            f"{r['ratio']:.2f}x" if r["ratio"] else "-",
            f"{r['slack']:.0%}" if r["slack"] else "-",
            r["status"],
        )
    return t.render()
