"""One process of the reconstruction benchmark.

``run.py`` starts this script with the pinned environment and a single
argument, the path of a JSON spec, and reads the JSON result it writes to
``spec["out"]``.  Modes:

* ``prepare`` compiles the C kernels (untimed), reports the backend in
  use and measures STREAM bandwidth with a buffer at least 4x the LLC;
* ``setup`` imports the program, cold-builds the operator (and, for the
  serve workloads, starts the service) and exits: one set-up sample;
* ``run`` sets up the same way, drives the workload's closed loop, checks
  the outputs and reports raw samples; traced, also the per-layer numbers.

The program is reached only through ``repro.api.operator``,
``repro.api.reconstruct`` and ``repro.serve.ServiceRunner``; the phantom
and the wire encoding of a sinogram only build the generated inputs.
"""

from __future__ import annotations

import gc
import json
import sys
import threading
import time

import numpy as np

import harness as hz


#: How long the generator waits for one job before counting it failed.
JOB_TIMEOUT_S = 120.0


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (VmHWM), in MiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("VmHWM missing from /proc/self/status")


def reset_peak_rss() -> None:
    """Collect garbage, then restart the high-water mark from the current
    resident set, so each unit of work (a solve, a round of jobs) gets its
    own peak (see ``MALLOC_MMAP_THRESHOLD_`` in conditions.json)."""
    gc.collect()
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


# ---------------------------------------------------------------------- #
# modes


def prepare(spec: dict) -> dict:
    from repro.kernels import dispatch
    from repro.obs.perf import measure_stream_bandwidth

    backend = dispatch.backend_in_use()
    size_mb = max(256, -(-4 * spec["llc_bytes"] // (1 << 20)))
    return {
        "backend": backend,
        "stream_gbs": measure_stream_bandwidth(size_mb=size_mb),
        "stream_buffer_bytes": size_mb << 20,
    }


def trace_targets(tracer: hz.Tracer) -> list:
    """Every public function the traced run wraps, with its layer name."""
    from repro import api
    from repro.core.cache import OperatorCache
    from repro.core.format_z import CSCVZMatrix
    from repro.recon import checkpoint
    from repro.recon.linops import ProjectionOperator
    from repro.serve import JobJournal, ServiceRunner

    def operand(args, kwargs):
        arr = args[1]
        two_d = getattr(arr, "ndim", 1) == 2
        return args[0], (arr.shape[1] if two_d else 1), two_d

    batch = threading.local()

    def journal_rid(args, kwargs):
        # A worker thread journals one "start" record per job of its
        # batch before solving it: those ids name the batch's spans.
        rtype = args[1] if len(args) > 1 else kwargs.get("type")
        job_id = kwargs.get("job_id")
        if rtype == "start":
            if not getattr(batch, "starting", False):
                batch.ids = []
            batch.starting = True
            batch.ids.append(job_id)
            tracer.set_rid(",".join(batch.ids))
            return
        batch.starting = False
        if rtype == "submit":
            tracer.set_rid(job_id)

    fmt = {"note": operand}
    return [
        (CSCVZMatrix, "spmv", "format_z.forward", fmt),
        (CSCVZMatrix, "spmm", "format_z.forward", fmt),
        (CSCVZMatrix, "transpose_spmv", "format_z.adjoint", fmt),
        (CSCVZMatrix, "transpose_spmm", "format_z.adjoint", fmt),
        (CSCVZMatrix, "from_ct", "build.pack", {}),
        (ProjectionOperator, "forward", "linops", {}),
        (ProjectionOperator, "adjoint", "linops", {}),
        (api, "operator", "api.operator", {}),
        (api, "reconstruct", "recon", {}),
        (OperatorCache, "load", "cache.load", {}),
        (OperatorCache, "store", "cache.store", {}),
        (ServiceRunner, "submit", "serve.submit", {}),
        (JobJournal, "append", "journal.append", {"before": journal_rid}),
        (JobJournal, "spill_array", "journal.spill", {}),
        (checkpoint, "save_checkpoint", "journal.ckpt", {}),
    ]


def setup(wl: dict):
    """Cold operator build + cache store; for serve, the started service."""
    from repro import api

    op = api.operator(wl["size"])
    runner = None
    if wl["kind"] == "serve":
        from repro import config
        from repro.serve import ServeConfig, ServiceRunner

        runner = ServiceRunner(
            ServeConfig(journal_dir=config.journal_dir(), **wl["serve"])
        ).start()
        if not runner.wait_ready(timeout=60.0):
            runner.stop()
            raise RuntimeError("service did not become ready within 60 s")
    return op, runner


def clean_sinogram(op, size: int) -> np.ndarray:
    from repro import shepp_logan

    return op.forward(shepp_logan(size).ravel().astype(op.dtype))


def rel_residuals(op, image: np.ndarray, y: np.ndarray) -> list[float]:
    """Per-slice final ||y - A x|| / ||y||."""
    m = op.shape[0]
    y64 = y.reshape(m, -1).astype(np.float64)
    r = y64 - np.asarray(op.forward(image)).reshape(m, -1).astype(np.float64)
    return list(np.linalg.norm(r, axis=0) / np.linalg.norm(y64, axis=0))


def computed_traffic(op, k: int, llc_bytes: int) -> dict:
    """Computed bytes of one k-column SpMM, and whether they fit the LLC."""
    from repro.obs.perf import format_bytes

    total = format_bytes(op.fmt, k)["total"]
    return {"bytes_per_call": total, "in_llc": total < llc_bytes}


def backend_check(expected: str) -> dict:
    from repro.kernels import dispatch

    used = dispatch.backend_in_use()
    return hz.check("backend", used == expected, f"in use {used!r}, expected {expected!r}")


# ---------------------------------------------------------------------- #
# library workloads: one caller, api.reconstruct in a closed loop


def run_library(spec, wl, op, tracer):
    from repro import api
    from repro.core.cache import default_cache
    from repro.errors import ReproError

    seed, k, nf = spec["seed"], wl["stack"], spec["noise_frac"]
    clean = clean_sinogram(op, wl["size"])
    slices = max(k, 1)

    def sinogram(i):
        if k == 0:
            return hz.noisy_slice(clean, seed, i, nf)
        return hz.noisy_stack(clean, seed, i * k, k, nf)

    stamps: list = []
    iter_times: list = []
    callback = None
    if tracer is not None:
        def callback(event):
            stamps.append(time.perf_counter())
        callback.accepts_events = True

    cache = default_cache()
    stats0 = cache.stats()
    units, solves, errors, peaks = [], [], [], []
    stop = time.perf_counter() + spec["seconds"]
    i = 0
    while time.perf_counter() < stop or i < wl["min_units"]:
        y = sinogram(i)
        if tracer is not None:
            tracer.set_rid(i)
            stamps.clear()
        reset_peak_rss()
        t0 = time.perf_counter()
        try:
            res = api.reconstruct(op, y, solver=wl["solver"], callback=callback,
                                  **wl["params"])
        except ReproError as exc:
            units.append(hz.Unit(t0, None, slices, False))
            errors.append(f"{type(exc).__name__}: {exc}")
        else:
            t1 = time.perf_counter()
            units.append(hz.Unit(t0, t1, slices, True))
            solves.append((i, res.image, res.iterations, t1 - t0))
            iter_times.extend(np.diff(stamps).tolist())
        peaks.append(peak_rss_mb())
        i += 1
    stats1 = cache.stats()
    loop = hz.summarize_loop(units)

    rels = []
    for idx, image, _, _ in solves:
        rels.extend(rel_residuals(op, image, sinogram(idx)))
    checks = [
        backend_check(spec["backend"]),
        hz.check("rel_residual", bool(rels) and hz.median(rels) <= wl["rel_residual_ceiling"],
                 f"median {hz.median(rels):.6g} <= ceiling {wl['rel_residual_ceiling']}"),
        hz.check("completed", loop.failed == 0 and loop.completed >= 1,
                 f"{loop.completed} of {loop.attempted} solves completed"
                 + (f"; {errors[0]}" if errors else "")),
    ]
    if k and solves:
        idx, image, _, _ = solves[0]
        solo = api.reconstruct(op, sinogram(idx)[:, :1], solver=wl["solver"],
                               **wl["params"]).image[:, 0]
        col = image[:, 0]
        if spec["perturb"]:
            col = hz.perturb_ulp(col)
        checks.append(hz.check(
            "column0_equals_solo", hz.bitwise_equal(col, solo),
            f"solve {idx}: stack column 0 vs the same slice run as an (m, 1) stack",
        ))

    out = loop_result(loop, [s[3] for s in solves], rels, [s[2] for s in solves],
                      peaks, checks)
    if tracer is not None:
        t0 = units[0].sent
        t1 = max(u.done for u in units if u.done is not None) if loop.completed else t0
        out["per_layer"] = layer_metrics(
            spec, tracer.spans, t0, t1, loop.slices,
            iterations=[s[2] for s in solves], iter_times=iter_times,
            cache_delta=(stats0, stats1), jobs=None,
        )
    return out


# ---------------------------------------------------------------------- #
# serve workloads: one generator thread keeps N jobs in flight


def run_serve(spec, wl, op, runner, tracer):
    from repro import api
    from repro.core.cache import default_cache
    from repro.errors import ReproError
    from repro.serve import QueueFullError
    from repro.serve.jobs import DONE, encode_array

    seed, nf = spec["seed"], spec["noise_frac"]
    clean = clean_sinogram(op, wl["size"])

    def payload(i):
        return {
            "tenant": hz.tenant_tag(seed, i, wl["tenants"]),
            "solver": wl["solver"],
            "params": dict(wl["params"]),
            "geometry": {"size": wl["size"]},
            "sinogram": encode_array(hz.noisy_slice(clean, seed, i, nf)),
        }

    # Job timestamps are time.time(); spans use perf_counter.
    offset = time.time() - time.perf_counter()
    cache = default_cache()
    stats0 = cache.stats()
    units, finished, errors, peaks = [], [], [], []
    rejected = raised = 0
    stop = time.perf_counter() + spec["seconds"]
    i = 0
    # Closed loop in rounds: submit a round of jobs (a volume's slices),
    # wait for all of them, repeat.  Refilling each slot as it frees made
    # batch widths, and so jobs/s, vary far more from run to run.
    while time.perf_counter() < stop:
        reset_peak_rss()
        batch = []
        for _ in range(wl["round_jobs"]):
            body = payload(i)
            t_submit = time.time()
            try:
                job = runner.submit(body)
            except QueueFullError as exc:
                rejected += 1
                units.append(hz.Unit(t_submit, None, 1, False))
                errors.append(str(exc))
            except ReproError as exc:
                raised += 1
                units.append(hz.Unit(t_submit, None, 1, False))
                errors.append(f"{type(exc).__name__}: {exc}")
            else:
                if tracer is not None:
                    tracer.last_span().rid = job.id
                batch.append((job, t_submit, i))
            i += 1
        for job, t_submit, idx in batch:
            job.done.wait(JOB_TIMEOUT_S)
            ok = job.state == DONE
            units.append(hz.Unit(t_submit, job.finished_at if ok else None, 1, ok))
            finished.append((job, t_submit, idx))
            if not ok:
                errors.append(f"{job.id} ended {job.state}: {job.error}")
        peaks.append(peak_rss_mb())
    stats1 = cache.stats()
    runner.stop()
    loop = hz.summarize_loop(units)

    done = [(job, t_submit, idx) for job, t_submit, idx in finished if job.state == DONE]
    rels = []
    for job, _, idx in done:
        rels.extend(rel_residuals(op, job.result, hz.noisy_slice(clean, seed, idx, nf)))
    checks = [
        backend_check(spec["backend"]),
        hz.check("rel_residual", bool(rels) and hz.median(rels) <= wl["rel_residual_ceiling"],
                 f"median {hz.median(rels):.6g} <= ceiling {wl['rel_residual_ceiling']}"),
        hz.check("all_done", loop.failed == 0 and loop.completed >= 1,
                 f"{loop.completed} of {loop.attempted} jobs done, {rejected} rejected, "
                 f"{raised} raised" + (f"; {errors[0]}" if errors else "")),
    ]
    rng = np.random.default_rng([seed, 2])
    picks = rng.choice(len(done), size=min(wl["sampled_checks"], len(done)), replace=False)
    for p in sorted(int(p) for p in picks):
        job, _, idx = done[p]
        y = hz.noisy_slice(clean, seed, idx, nf)
        ref = api.reconstruct(op, y[:, None], solver=wl["solver"], **wl["params"]).image[:, 0]
        image = hz.perturb_ulp(job.result) if spec["perturb"] else job.result
        checks.append(hz.check(
            f"job_equals_library:{job.id}", hz.bitwise_equal(image, ref),
            f"slice {idx}, batch width {job.batch_width}, vs api.reconstruct on (m, 1)",
        ))

    out = loop_result(loop, [job.finished_at - t for job, t, _ in done], rels,
                      [job.iterations for job, _, _ in done], peaks, checks)
    out.update(rejected=rejected, raised=raised,
               batch_width_mean=float(np.mean([j.batch_width for j, _, _ in done]))
               if done else 0.0)
    if tracer is not None:
        t0 = units[0].sent - offset
        t1 = max(u.done for u in units if u.done is not None) - offset if loop.completed else t0
        out["per_layer"] = layer_metrics(
            spec, tracer.spans, t0, t1, loop.slices,
            iterations=[job.iterations for job, _, _ in done],
            iter_times=serve_iter_times([job for job, _, _ in done]),
            cache_delta=(stats0, stats1), jobs=[job for job, _, _ in done],
        )
    return out


def serve_iter_times(jobs) -> list:
    """Per-iteration times from each batch's progress timestamps."""
    seen, times = set(), []
    for job in jobs:
        if job.batch_id in seen:
            continue
        seen.add(job.batch_id)
        stamps = [p["t"] for p in job.progress]
        times.extend(np.diff(stamps).tolist())
    return times


def loop_result(loop, latencies, rels, iterations, peaks, checks) -> dict:
    return {
        "attempted": loop.attempted,
        "completed": loop.completed,
        "failed": loop.failed,
        "slices": loop.slices,
        "window_s": loop.window_s,
        "latencies": latencies,
        "rel_residuals": [float(r) for r in rels],
        "iterations": [int(n) for n in iterations],
        "peak_rss_mb": peaks,
        "checks": checks,
    }


# ---------------------------------------------------------------------- #
# per-layer numbers from the spans of a traced run


def layer_metrics(spec, spans, t0, t1, slices, *, iterations, iter_times,
                  cache_delta, jobs) -> dict:
    """Per-layer metrics over the window ``[t0, t1]`` (perf_counter s).

    Times and counts are per completed slice (one job is one slice);
    ``build.*`` covers the cold build during set-up instead.
    """
    from repro.obs.perf import format_bytes

    win = hz.in_window(spans, t0, t1)
    setup_spans = [s for s in spans if s.start < spec["ready_pc"]]
    per = (lambda x: x / slices) if slices else (lambda x: 0.0)
    named = lambda ss, name: [s for s in ss if s.name == name]  # noqa: E731

    bytes_cache: dict = {}

    def traffic(span) -> float:
        fmt, k, _ = span.note
        key = (id(fmt), k)
        if key not in bytes_cache:
            bytes_cache[key] = format_bytes(fmt, k)["total"]
        return bytes_cache[key]

    out: dict = {}
    stream = spec["stream_gbs"]
    for label, name in (("forward", "format_z.forward"), ("adjoint", "format_z.adjoint")):
        ss = named(win, name)
        busy = sum(s.self_s for s in ss)
        gbs = sum(traffic(s) for s in ss) / busy / 1e9 if busy > 0 else 0.0
        out[f"format_z.{label}_s"] = per(busy)
        out[f"format_z.{label}_calls"] = per(len(ss))
        out[f"format_z.{label}_gbs"] = gbs
        out[f"format_z.{label}_r_em"] = gbs / stream if stream else 0.0
    out["format_z.adjoint_k1_2d_calls"] = per(sum(
        1 for s in named(win, "format_z.adjoint") if s.note[2] and s.note[1] == 1))
    out["linops.self_s"] = per(hz.self_time(win, "linops"))
    out["recon.self_s"] = per(hz.self_time(win, "recon"))
    out["recon.iter_s_p50"] = hz.median(iter_times)
    out["recon.iterations"] = float(np.mean(iterations)) if iterations else 0.0
    ops = named(win, "api.operator")
    out["api.operator_calls"] = per(len(ops))
    out["api.operator_s_p50"] = hz.median(s.duration for s in ops)
    out["cache.load_s"] = per(sum(s.duration for s in named(win, "cache.load")))
    out["cache.store_s"] = per(sum(s.duration for s in named(win, "cache.store")))
    before, after = cache_delta
    out["cache.hits"] = per(after["hits"] - before["hits"])
    out["cache.misses"] = per(after["misses"] - before["misses"])
    builds = [s for s in named(setup_spans, "api.operator") if s.parent is None]
    out["build.total_s"] = sum(s.duration for s in builds)
    out["build.pack_s"] = sum(s.duration for s in named(setup_spans, "build.pack"))
    out["build.sweep_s"] = sum(s.self_s for s in builds)

    jobs = jobs or []
    out["serve.submit_s_p50"] = hz.median(s.duration for s in named(win, "serve.submit"))
    waits = [job.queue_wait_s for job in jobs]
    out["serve.queue_wait_s_p50"] = hz.median(waits)
    tail = hz.tail_percentile(waits)
    out["serve.queue_wait_s_tail"] = tail[1] if tail else 0.0
    out["serve.batch_width_mean"] = float(np.mean([j.batch_width for j in jobs])) if jobs else 0.0
    out["serve.coalesced_frac"] = float(np.mean([j.coalesced for j in jobs])) if jobs else 0.0
    batches: dict = {}
    for job in jobs:
        start, first_done = batches.get(job.batch_id, (job.started_at, job.finished_at))
        batches[job.batch_id] = (start, min(first_done, job.finished_at))
    out["serve.batch_solve_s_p50"] = hz.median(done - start for start, done in batches.values())
    out["journal.appends_per_job"] = per(len(named(win, "journal.append")))
    out["journal.append_s"] = per(sum(s.duration for s in named(win, "journal.append")))
    out["journal.spill_s"] = per(sum(s.duration for s in named(win, "journal.spill")))
    out["journal.ckpt_s"] = per(sum(s.duration for s in named(win, "journal.ckpt")))
    out["unattributed_frac"] = hz.unattributed_frac(win, t0, t1)
    return out


# ---------------------------------------------------------------------- #


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec["mode"] == "prepare":
        result = prepare(spec)
    else:
        wl = spec["workload"]
        tracer = hz.Tracer() if spec.get("trace") else None
        if tracer is not None:
            tracer.install(trace_targets(tracer))
        op, runner = setup(wl)
        result = {"ready": time.monotonic(), "setup_rss_mb": peak_rss_mb()}
        spec["ready_pc"] = time.perf_counter()
        if spec["mode"] == "run":
            result.update(computed_traffic(op, max(wl.get("stack", 0), 1),
                                           spec["llc_bytes"]))
            if wl["kind"] == "serve":
                result.update(run_serve(spec, wl, op, runner, tracer))
            else:
                result.update(run_library(spec, wl, op, tracer))
        elif runner is not None:
            runner.stop()
        if tracer is not None:
            hz.fill_missing_rids(tracer.spans)
            tracer.dump(spec["trace_path"])
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
