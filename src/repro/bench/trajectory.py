"""Benchmark trajectory: a pinned suite appended to a committed JSON file.

Every ROADMAP rung from here on (OpenMP driver, GPU backend, serving)
needs a baseline to be measured against; this module provides it.
``repro bench trajectory`` runs a *pinned* suite — SpMV and batched SpMM
per format across fixed sizes, one cold build, one warm cache load —
and appends a schema-versioned point (host fingerprint, STREAM GB/s,
git rev, kernels ABI version, per-case seconds/GB/s/R_EM/noise) to
``BENCH_trajectory.json``, which is committed to the repository.

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

#: The pinned suite: formats and the SpMM batch width never change, so
#: points stay comparable across the whole trajectory.
SUITE_FORMATS = ("csr", "cscv-z", "cscv-m")
SUITE_SPMM_BATCH = 8
QUICK_SIZES = (32,)
FULL_SIZES = (48, 64)

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
          stream_gbs: float | None) -> dict:
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
        "achieved_gbs": gbs,
        "r_em": gbs / stream_gbs if (gbs and stream_gbs) else None,
        "nnz": int(nnz),
    }


class _OneShot:
    """TimingStats stand-in for single-run cases (build, cache load)."""

    def __init__(self, seconds: float):
        self.min = self.mean = self.p50 = seconds
        self.std = 0.0
        self.iterations = 1


def run_trajectory(*, quick: bool = False, sizes=None) -> dict:
    """Run the pinned suite; returns one schema-versioned trajectory point.

    Measures (and persists) the host's STREAM bandwidth first, so every
    case carries an ``r_em`` and later dispatch accounting finds the
    cached denominator.
    """
    from repro.api import operator
    from repro.bench.build import run_build_bench
    from repro.bench.cache import run_cache_bench
    from repro.kernels import KERNELS_ABI_VERSION, dispatch
    from repro.utils.timing import time_stats

    sizes = tuple(sizes) if sizes else (QUICK_SIZES if quick else FULL_SIZES)
    iterations = 10 if quick else 30
    max_seconds = 0.5 if quick else 2.0
    stream_gbs = obs_perf.stream_bandwidth(
        measure=True, size_mb=64 if quick else 256
    )

    cases: list[dict] = []
    for size in sizes:
        for name in SUITE_FORMATS:
            fmt = operator(size, fmt=name, dtype=np.float32).fmt
            m, n = fmt.shape
            x = np.linspace(0.5, 1.5, n).astype(fmt.dtype)
            y = np.zeros(m, dtype=fmt.dtype)
            stats = time_stats(lambda: fmt.spmv_into(x, y),
                               iterations=iterations, max_seconds=max_seconds)
            cases.append(_case(
                f"spmv/{name}/{size}", "spmv", name, size, stats,
                nnz=fmt.nnz, traffic_bytes=obs_perf.format_bytes(fmt)["total"],
                stream_gbs=stream_gbs,
            ))
            k = SUITE_SPMM_BATCH
            rng = np.random.default_rng(0)
            X = np.ascontiguousarray(rng.random((n, k)), dtype=fmt.dtype)
            Y = np.zeros((m, k), dtype=fmt.dtype)
            stats = time_stats(lambda: fmt.spmm_into(X, Y),
                               iterations=iterations, max_seconds=max_seconds)
            cases.append(_case(
                f"spmm/{name}/{size}/k{k}", "spmm", name, size, stats,
                nnz=fmt.nnz, batch=k,
                traffic_bytes=obs_perf.format_bytes(fmt, k)["total"],
                stream_gbs=stream_gbs,
            ))

    build_size = sizes[0]
    build_recs = run_build_bench(
        size=build_size, projectors=("strip",), worker_counts=(1,),
        repeats=1 if quick else 2,
    )
    for rec in build_recs:
        cases.append(_case(
            f"build/strip/{build_size}", "build", "cscv", build_size,
            _OneShot(rec.total_seconds), nnz=rec.nnz,
            traffic_bytes=None, stream_gbs=stream_gbs,
        ))

    cache_recs = run_cache_bench(
        size=build_size, format_names=("cscv-z",), warm_repeats=3,
    )
    for rec in cache_recs:
        cases.append(_case(
            f"cache-warm/{rec.format_name}/{build_size}", "cache",
            rec.format_name, build_size, _OneShot(rec.warm_seconds),
            nnz=0, traffic_bytes=rec.entry_bytes, stream_gbs=stream_gbs,
        ))

    # serving layer: closed-loop jobs/s + latency per concurrency level
    from repro.bench.serve import run_serve_bench, serve_cases

    serve_recs = run_serve_bench(
        size=build_size,
        jobs_per_level=8 if quick else 16,
        concurrency_levels=(1, 8),
        iterations=5 if quick else 10,
        quick=quick,
    )
    cases.extend(serve_cases(serve_recs, size=build_size))

    return {
        "schema": TRAJECTORY_SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "fingerprint": obs_perf.host_fingerprint(),
            "cpu_count": os.cpu_count() or 1,
            "stream_gbs": stream_gbs,
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
