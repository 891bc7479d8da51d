"""Reconstruction-level benchmark of the repro library.

Runs named workloads end to end through the library's public entry points,
each in a fresh process under a pinned environment, checks the outputs and
prints every metric with its unit and sample count.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``, or with
``--trace`` its per-layer metrics).  Run from anywhere::

    python3 reconbench/run.py --workload slice-256 --seed 0
    python3 reconbench/run.py --seed 0                  # all four workloads
    python3 reconbench/run.py --workload serve-solo-64 --seed 0 --trace
    python3 reconbench/run.py --smoke                   # 32^2 for 2 s each

Results (with the run-validity record) go to ``.reconbench/results/``;
compare two sets with ``reconbench/compare.py``.  Exits non-zero when any
check fails, and with status 2 and no result when the program's source is
not next to the benchmark.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import harness as hz

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".reconbench"
KERNEL_ROOT = WORK / "kernel-cache"

#: Wall budget of one workload invocation, inside the 180 s limit.
INVOCATION_BUDGET_S = 175.0


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def llc_bytes() -> int:
    """Size of the highest-level data or unified cache, from sysfs."""
    best = (-1, 0)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = int((index / "level").read_text())
            raw = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(raw[-1:], 1)
        size = int(raw.rstrip("KMG")) * scale
        best = max(best, (level, size))
    return best[1]


def git_rev() -> str:
    """HEAD commit read from ``.git`` (the benchmark may run outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pinned_env(cond: dict, cache_root: Path) -> dict:
    """The variables every workload process runs under."""
    env = {key: str(nproc()) if value == "nproc" else value
           for key, value in cond["pinned_env"].items()}
    env["REPRO_CACHE_DIR"] = str(cache_root)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")   # the C compiler's temporary files
    return env


def child_env(cond: dict, cache_root: Path) -> dict:
    """The caller's environment without its REPRO_* and MALLOC_* variables,
    plus the pins."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "MALLOC_"))}
    env.update(pinned_env(cond, cache_root))
    return env


class Spawner:
    """Starts workload processes, each in its own run directory."""

    def __init__(self, cond: dict, keep: bool):
        self.cond = cond
        self.keep = keep
        self.count = 0

    def run(self, spec: dict, root: Path, timeout: float) -> dict:
        """Run one workload process; returns its result plus ``spawned``
        and, on failure, ``error``."""
        root.mkdir(parents=True, exist_ok=True)
        spec = dict(spec, out=str(root / "result.json"),
                    trace_path=str(root / "trace.jsonl"))
        (root / "spec.json").write_text(json.dumps(spec))
        cmd = [sys.executable, str(BENCH / "workload.py"), str(root / "spec.json")]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=child_env(self.cond, root), cwd=ROOT,
                                  stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return {"spawned": spawned, "error": f"timed out after {timeout:.0f} s"}
        if proc.returncode != 0:
            return {"spawned": spawned, "error": f"exit status {proc.returncode}"}
        try:
            result = load_json(root / "result.json")
        except (OSError, ValueError) as exc:
            return {"spawned": spawned, "error": f"no result: {exc}"}
        result["spawned"] = spawned
        return result

    def workload(self, name: str, spec: dict, deadline: float) -> dict:
        """A workload process in a fresh run root holding a copy of the
        compiled kernels; the root is deleted afterwards unless kept."""
        self.count += 1
        root = WORK / "runs" / f"{name}-{spec['mode']}-{os.getpid()}-{self.count}"
        kernels = KERNEL_ROOT / "kernels"
        if kernels.is_dir():
            shutil.copytree(kernels, root / "kernels")
        try:
            return self.run(spec, root, deadline - time.monotonic())
        finally:
            if not self.keep:
                shutil.rmtree(root, ignore_errors=True)


def prepare(spawner: Spawner) -> dict:
    """Compile the kernels once (untimed) and measure STREAM."""
    llc = llc_bytes()
    result = spawner.run({"mode": "prepare", "llc_bytes": llc}, KERNEL_ROOT,
                         timeout=600.0)
    if "error" in result:
        raise SystemExit(f"error: preparing the kernels failed: {result['error']}")
    result.update(llc_bytes=llc, nproc=nproc())
    return result


def e2e_metrics(setups: list, main: dict) -> tuple[dict, dict]:
    """End-to-end metric values and their sample counts."""
    attempted = main["attempted"]
    values = {
        "setup_s": hz.median(s["ready"] - s["spawned"] for s in setups),
        "setup_rss_mb": hz.median(s["setup_rss_mb"] for s in setups),
        "peak_rss_mb": hz.median(main["peak_rss_mb"]),
        "slices_per_s": main["slices"] / main["window_s"] if main["window_s"] else 0.0,
        "latency_p50_s": hz.median(main["latencies"]),
        "rel_residual": hz.median(main["rel_residuals"]),
        "success_frac": (attempted - main["failed"]) / attempted if attempted else 0.0,
    }
    counts = {
        "setup_s": len(setups),
        "setup_rss_mb": len(setups),
        "peak_rss_mb": len(main["peak_rss_mb"]),
        "slices_per_s": main["slices"],
        "latency_p50_s": len(main["latencies"]),
        "rel_residual": len(main["rel_residuals"]),
        "success_frac": attempted,
    }
    return values, counts


def run_workload(name: str, args, bench: dict, cond: dict, prep: dict,
                 spawner: Spawner) -> dict:
    """Every process of one workload; returns the result record."""
    wl = dict(cond["workloads"][name], name=name)
    if args.smoke:
        wl.update(size=cond["smoke"]["size"],
                  rel_residual_ceiling=cond["smoke"]["rel_residual_ceiling"])
    free_gb = shutil.disk_usage(WORK).free / (1 << 30)
    if free_gb < wl["free_disk_gb"]:
        raise SystemExit(f"error: {name} needs {wl['free_disk_gb']} GiB free disk, "
                         f"{free_gb:.1f} GiB available")
    deadline = time.monotonic() + INVOCATION_BUDGET_S
    base = {
        "workload": wl, "seed": args.seed, "seconds": args.seconds,
        "noise_frac": cond["noise_frac"], "backend": cond["backend"],
        "stream_gbs": prep["stream_gbs"], "llc_bytes": prep["llc_bytes"],
        "perturb": args.perturb,
    }
    runs: dict = {}
    if args.trace:
        runs["untraced"] = spawner.workload(name, dict(base, mode="run"), deadline)
        runs["traced"] = spawner.workload(name, dict(base, mode="run", trace=True), deadline)
    else:
        for r in range(cond["setup_repeats"] - 1):
            runs[f"setup{r}"] = spawner.workload(name, dict(base, mode="setup"), deadline)
        runs["main"] = spawner.workload(name, dict(base, mode="run"), deadline)

    errors = [f"{key}: {r['error']}" for key, r in runs.items() if "error" in r]
    mains = [r for key, r in runs.items() if not key.startswith("setup")]
    checks = [dict(c, run=key) for key, r in runs.items() for c in r.get("checks", [])]
    attempted = sum(r.get("attempted", 0) for r in mains)
    failed = sum(r.get("failed", 0) for r in mains)
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "perturb": args.perturb,
        "finished_at": datetime.datetime.now().isoformat(timespec="seconds"),
        "validity": {
            "nproc": prep["nproc"],
            "llc_bytes": prep["llc_bytes"],
            "stream_gbs": prep["stream_gbs"],
            "stream_buffer_bytes": prep["stream_buffer_bytes"],
            "git_rev": git_rev(),
            "backend": prep["backend"],
            "backend_expected": cond["backend"],
            "pinned_env": pinned_env(cond, Path("<run root>")),
            "not_exercised": cond["not_exercised"],
            "r_em": "computed: repro.obs.perf.format_bytes per call / STREAM GB/s",
        },
        "conditions": wl,
        "errors": errors,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "correct": not errors and bool(checks) and all(c["ok"] for c in checks)
        and prep["backend"] == cond["backend"],
        "metrics": {},
    }
    if errors:
        return record

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace:
        untraced, traced = runs["untraced"], runs["traced"]
        layers = dict(traced["per_layer"])
        unit_s = lambda r: r["window_s"] / r["slices"] if r["slices"] else 0.0  # noqa: E731
        layers["trace_overhead_frac"] = (
            unit_s(traced) / unit_s(untraced) - 1.0 if unit_s(untraced) else 0.0)
        for metric, value in layers.items():
            record["metrics"][metric] = {"value": value, "unit": units[metric],
                                         "n": traced["slices"]}
    else:
        main = runs["main"]
        values, counts = e2e_metrics(list(runs.values()), main)
        for metric, value in values.items():
            record["metrics"][metric] = {"value": value, "unit": units[metric],
                                         "n": counts[metric]}
        tail = hz.tail_percentile(main["latencies"])
        record["latency_tail"] = (
            {"percentile": tail[0], "value_s": tail[1], "n": len(main["latencies"])}
            if tail else None)
    first = next(iter(mains))
    record["validity"].update(bytes_per_call=first["bytes_per_call"], in_llc=first["in_llc"])
    record["runs"] = {key: {k: v for k, v in r.items()
                            if k not in ("latencies", "rel_residuals", "iterations",
                                         "peak_rss_mb")}
                      for key, r in runs.items()}
    return record


def report(record: dict) -> None:
    name = record["workload"]
    for metric, m in record["metrics"].items():
        label = " (computed)" if metric.endswith("_r_em") else ""
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}{label} (n={m['n']})")
    tail = record.get("latency_tail")
    if tail:
        print(f"{name} latency_p{tail['percentile']:.3g}_s {tail['value_s']:.6g} s "
              f"(n={tail['n']})")
    for c in record["checks"]:
        print(f"{name} check [{c['run']}] {c['name']} "
              f"{'ok' if c['ok'] else 'FAILED'}: {c['detail']}")
    for err in record["errors"]:
        print(f"{name} error {err}")


def main(argv=None) -> int:
    bench_spec = load_json(ROOT / "BENCHMARK.json") if (ROOT / "BENCHMARK.json").is_file() \
        else None
    cond = load_json(BENCH / "conditions.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(cond["workloads"]),
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long each workload sends work "
                             "(default: run_seconds of BENCHMARK.json; 2 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="per-layer run: traced and untraced process per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 32^2 (a quick self-test)")
    parser.add_argument("--keep", action="store_true",
                        help="keep each run directory (operator cache, journal, trace)")
    parser.add_argument("--perturb", action="store_true",
                        help="move each bitwise-checked image by one ulp: the run must fail")
    parser.add_argument("--results", type=Path, default=WORK / "results",
                        help="directory for the result JSON files")
    args = parser.parse_args(argv)
    # On SIGTERM unwind like Ctrl-C: the running workload process is killed
    # and waited for, and its run directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "repro" / "__init__.py").is_file() or bench_spec is None:
        print(f"error: the program's source ({SRC / 'repro'}) or BENCHMARK.json "
              "is missing next to the benchmark", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = cond["smoke"]["seconds"] if args.smoke else bench_spec["run_seconds"]

    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    spawner = Spawner(cond, args.keep)
    prep = prepare(spawner)
    names = [args.workload] if args.workload else list(cond["workloads"])
    records = []
    for name in names:
        record = run_workload(name, args, bench_spec, cond, prep, spawner)
        report(record)
        args.results.mkdir(parents=True, exist_ok=True)
        stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
        path = args.results / (f"{name}-seed{args.seed}-trace{int(bool(args.trace))}"
                               f"-{stamp}-{os.getpid()}.json")
        path.write_text(json.dumps(record, indent=1))
        records.append(record)

    correct = all(r["correct"] for r in records)
    prefix = (lambda r, m: m) if len(records) == 1 else (lambda r, m: f"{r['workload']}/{m}")
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {prefix(r, m): {"value": v["value"], "unit": v["unit"]}
                    for r in records for m, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
