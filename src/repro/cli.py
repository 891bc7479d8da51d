"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``         environment, backend, registered formats, datasets
``spmv``         benchmark formats on a dataset or generated matrix
``bench``        targeted micro-benchmarks (``cache``: cold operator
                 build vs warm mmap load; ``build``: cold-build wall time
                 vs worker count; ``trajectory``: append a pinned-suite
                 point to the committed BENCH_trajectory.json;
                 ``compare``: noise-aware diff of two trajectory points,
                 nonzero on regression)
``cache``        operator cache management (``ls``/``info``/``clear``/``warm``)
``convert``      build a CSCV matrix and save it to .npz
``kernels``      compiled-kernel status, or force a rebuild (clears the
                 persistent compile-failure marker)
``reconstruct``  run an iterative solver on a phantom, report quality
``experiment``   regenerate one of the paper's tables/figures
``calibrate``    measure this host and validate the performance model
``trace``        render a JSONL trace (or this process's spans) as a report
``metrics``      dump the metrics registry in Prometheus text format
``serve``        run the reconstruction service over HTTP (``/v1/*``,
                 ``/readyz``, JSON ``/healthz``, ``/metrics``)

Set ``REPRO_TRACE=1`` (or ``REPRO_TRACE=/path/to.jsonl``) to record spans
during any command and dump them as JSON lines on exit.  Set
``REPRO_METRICS_PORT`` to serve live Prometheus metrics at ``/metrics``
and JSON liveness at ``/healthz`` (and/or ``REPRO_METRICS_FLUSH=<path>``
for periodic JSONL snapshots) while a command runs.  That exporter is the
``serve`` command's HTTP surface without a service runner, so its
``/readyz`` and ``/v1/*`` answer 404.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_info(args) -> int:
    from repro import __version__, available_formats, obs
    from repro.bench.datasets import DATASETS
    from repro.core.cache import default_cache
    from repro.kernels import dispatch

    from repro import config

    st = obs.status()
    print(f"repro {__version__}")
    print(f"backend in use : {dispatch.backend_in_use()}")
    print(f"omp max threads: {dispatch.omp_threads()}")
    print(f"build workers  : {config.runtime.build_workers} "
          f"(REPRO_BUILD_WORKERS; parallel sweep + CSCV packing, "
          f"output identical for any value)")
    print(f"tracing        : {'on' if st['tracing'] else 'off'} "
          f"(REPRO_TRACE; exporter: jsonl -> {st['trace_path']})")
    print(f"metrics        : {'on' if st['metrics'] else 'off'} "
          f"({st['metrics_registered']} instruments registered)")
    runtime_desc = "off"
    if st["metrics_runtime"]:
        port = st["metrics_port"]
        runtime_desc = (f"serving http://127.0.0.1:{port}/metrics"
                        if port is not None else "flushing JSONL")
    print(f"metrics runtime: {runtime_desc} "
          f"(REPRO_METRICS_PORT / REPRO_METRICS_FLUSH)")
    print(f"perf accounting: {'on' if st['perf_accounting'] else 'off'} "
          f"(bytes-moved/GB/s histograms; on with tracing or the runtime)")
    print(f"profiling      : {'on' if st['profiling'] else 'off'} (REPRO_PROFILE)")
    cs = default_cache().stats()
    print(f"operator cache : {'on' if cs['enabled'] else 'off'} "
          f"({cs['entries']} entries, {cs['bytes'] / 1e6:.1f} MB of "
          f"{cs['max_bytes'] / 1e9:.1f} GB) at {cs['root']}")
    from repro.resilience import faults

    spec = faults.active_spec()
    print(f"guards         : {config.runtime.guard} (REPRO_GUARD: off/inputs/full)")
    print(f"fault plan     : {spec if spec else 'none'} (REPRO_FAULTS; "
          f"profiles: {', '.join(sorted(faults.PROFILES))})")
    print(f"formats        : {', '.join(available_formats())}")
    print("datasets       :")
    for name, ds in DATASETS.items():
        print(f"  {name:16s} {ds.image_size}^2 image, {ds.num_views} views "
              f"(paper: {ds.paper.img})")
    return 0


def _cmd_spmv(args) -> int:
    from repro.bench.datasets import get_dataset
    from repro.bench.harness import run_suite
    from repro.core.params import CSCVParams
    from repro.utils.tables import Table

    dtype = np.float64 if args.double else np.float32
    coo, geom = get_dataset(args.dataset).load(dtype=dtype)
    names = args.formats.split(",") if args.formats else [
        "csr", "mkl-csr", "spc5", "cscv-z", "cscv-m",
    ]
    params = CSCVParams(args.s_vvec, args.s_imgb, args.s_vxg)
    records = run_suite(coo, geom, names, dtype=dtype, params=params,
                        iterations=args.iterations)
    t = Table(headers=["format", "GFLOP/s", "min ms", "mean ms", "p50 ms",
                       "noise", "BW GB/s"], fmt=".2f",
              title=f"{args.dataset} ({np.dtype(dtype)}, nnz {coo.nnz:,})")
    for r in records:
        t.add_row(r.format_name, r.gflops, r.seconds * 1e3, r.mean_seconds * 1e3,
                  r.p50_seconds * 1e3, f"{r.noise:.1%}", r.bw_gbs)
    t.mark_extremes(1)
    print(t.render())
    return 0


def _cmd_bench(args) -> int:
    from repro.core.params import CSCVParams

    dtype = np.float64 if args.double else np.float32
    params = CSCVParams(args.s_vvec, args.s_imgb, args.s_vxg)
    if args.what == "cache":
        from repro.bench.cache import render, run_cache_bench

        names = tuple(args.formats.split(",")) if args.formats else (
            "cscv-z", "cscv-m",
        )
        records = run_cache_bench(
            size=args.size, format_names=names, dtype=dtype, params=params,
        )
        print(render(records, title=f"operator cache: cold build vs warm mmap "
                                    f"load, {args.size}^2 image ({np.dtype(dtype)})"))
        bad = [r for r in records if not (r.spmv_identical and r.spmm_identical)]
        if bad:
            print("error: warm operator output differs from cold build",
                  file=sys.stderr)
            return 1
        return 0
    if args.what == "build":
        from repro.bench.build import render, run_build_bench

        projectors = tuple(args.projectors.split(","))
        workers = tuple(int(w) for w in args.workers.split(","))
        records = run_build_bench(
            size=args.size, projectors=projectors, worker_counts=workers,
            dtype=dtype, params=params, repeats=args.repeats,
        )
        print(render(records, title=f"cold operator build vs workers, "
                                    f"{args.size}^2 image ({np.dtype(dtype)})"))
        return 0
    if args.what == "trajectory":
        from repro.bench.trajectory import (
            DEFAULT_TRAJECTORY_PATH,
            append_point,
            render_point,
            run_trajectory,
        )

        point = run_trajectory(quick=args.quick)
        path = args.out or DEFAULT_TRAJECTORY_PATH
        payload = append_point(point, path)
        print(render_point(point))
        print(f"point {len(payload['points'])} appended to {path}")
        return 0
    if args.what == "compare":
        from repro.bench.trajectory import (
            DEFAULT_TRAJECTORY_PATH,
            compare_points,
            load_trajectory,
            render_compare,
        )

        path = args.out or DEFAULT_TRAJECTORY_PATH
        points = load_trajectory(path)["points"]
        if len(points) < 2:
            print(f"error: {path} has {len(points)} point(s); need two to "
                  f"compare (run `repro bench trajectory` first)",
                  file=sys.stderr)
            return 2
        old = points[args.baseline]
        new = points[args.candidate]
        results = compare_points(old, new)
        print(render_compare(
            results,
            title=f"{old.get('git_rev', '?')} -> {new.get('git_rev', '?')}",
        ))
        regressions = [r for r in results if r["status"] == "regression"]
        if regressions:
            print(f"{len(regressions)} regression(s) above the noise-aware "
                  f"threshold", file=sys.stderr)
            return 0 if args.report_only else 1
        return 0


def _cmd_cache(args) -> int:
    from repro.core.cache import default_cache
    from repro.utils.tables import Table

    cache = default_cache()
    if args.action == "ls":
        entries = cache.entries()
        if not entries:
            print(f"(cache empty: {cache.root})")
            return 0
        import datetime

        t = Table(headers=["key", "kind", "format", "shape", "MB", "last used"],
                  title=str(cache.root))
        for e in entries:
            shape = "x".join(str(s) for s in e.shape) if e.shape else "-"
            t.add_row(
                e.key[:16], e.kind, e.format or "-", shape,
                f"{e.nbytes / 1e6:.1f}",
                datetime.datetime.fromtimestamp(e.last_used).isoformat(
                    sep=" ", timespec="seconds"),
            )
        print(t.render())
        return 0
    if args.action == "info":
        st = cache.stats()
        life = cache.lifetime_stats()
        print(f"root     : {st['root']}")
        print(f"enabled  : {st['enabled']} (REPRO_CACHE)")
        print(f"verify   : {st['verify']} (REPRO_CACHE_VERIFY)")
        print(f"entries  : {st['entries']}")
        print(f"bytes    : {st['bytes']:,} of {st['max_bytes']:,} "
              f"(REPRO_CACHE_MAX_BYTES)")
        print(f"lifetime : hits {life.get('hits', 0)}, "
              f"misses {life.get('misses', 0)}, "
              f"stores {life.get('stores', 0)}, "
              f"evictions {life.get('evictions', 0)}, "
              f"corrupt {life.get('corrupt', 0)}")
        return 0
    if args.action == "clear":
        n = len(cache.entries())
        cache.clear()
        print(f"removed {n} entr{'y' if n == 1 else 'ies'} from {cache.root}")
        return 0
    if args.action == "warm":
        from repro.api import operator
        from repro.core.params import CSCVParams

        dtype = np.float64 if args.double else np.float32
        params = CSCVParams(args.s_vvec, args.s_imgb, args.s_vxg)
        for name in args.formats.split(","):
            import time

            t0 = time.perf_counter()
            operator(args.size, fmt=name, projector=args.projector,
                     dtype=dtype, params=params, cache_obj=cache)
            print(f"warmed {name:8s} ({args.size}^2, {args.projector}) "
                  f"in {time.perf_counter() - t0:.2f}s")
        return 0
    print(f"unknown cache action {args.action!r}", file=sys.stderr)
    return 2


def _cmd_convert(args) -> int:
    from repro.bench.datasets import get_dataset
    from repro.core.builder import build_cscv
    from repro.core.io import save_cscv
    from repro.core.params import CSCVParams

    dtype = np.float64 if args.double else np.float32
    coo, geom = get_dataset(args.dataset).load(dtype=dtype)
    params = CSCVParams(args.s_vvec, args.s_imgb, args.s_vxg)
    data = build_cscv(coo.rows, coo.cols, coo.vals, geom, params, dtype,
                      reference_mode=args.reference_mode)
    save_cscv(args.output, data)
    print(f"wrote {args.output}: nnz {data.nnz:,}, R_nnzE {data.r_nnze:.3f}, "
          f"{data.num_vxg:,} VxGs in {data.num_blocks:,} blocks")
    return 0


def _parse_cli_params(items) -> dict:
    """``--param key=value`` pairs -> solver kwargs (JSON-typed values).

    Values parse as JSON when possible (``0.5`` -> float, ``true`` ->
    bool) and fall back to plain strings (``hann``); the solver registry
    does the real validation and names the accepted parameters on error.
    """
    import json

    from repro.errors import ValidationError

    params = {}
    for item in items or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValidationError(
                f"--param expects key=value, got {item!r}"
            )
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return params


def _cmd_reconstruct(args) -> int:
    from repro.api import operator, reconstruct
    from repro.core.params import CSCVParams
    from repro.errors import ValidationError
    from repro.geometry.parallel_beam import ParallelBeamGeometry
    from repro.geometry.phantom import shepp_logan
    from repro.recon import relative_error
    from repro.recon.registry import get_solver

    try:
        spec = get_solver(args.solver)
    except ValidationError as exc:
        # usage error, not a library failure: same exit code argparse
        # would use for a bad choice
        print(f"error: {exc}", file=sys.stderr)
        return 2

    geom = ParallelBeamGeometry.for_image(args.size, 2 * args.size)
    truth = shepp_logan(args.size).ravel()
    op = operator(geom, fmt="cscv-z", params=CSCVParams(8, 16, 2),
                  dtype=np.float64, cache=not args.no_cache)
    sino = op.forward(truth)

    # only explicitly-set flags reach the registry, so each solver keeps
    # its own schema defaults and unknown parameters fail with the
    # solver's accepted-parameter list; the shared convenience flags
    # (--iterations/--relax) only apply where the schema accepts them
    # (e.g. fbp takes neither), matching the old CLI's behaviour
    params = _parse_cli_params(args.param)
    accepted = spec.param_names()
    if args.iterations is not None and "iterations" in accepted:
        params["iterations"] = args.iterations
    if args.relax is not None and "relax" in accepted:
        params["relax"] = args.relax
    extra = {"watchdog": True} if args.watchdog else {}

    from repro.obs import profiled

    with profiled(f"reconstruct.{args.solver}"):
        res = reconstruct(op, sino, solver=args.solver, geom=geom,
                          **extra, **params)
    print(f"{args.solver} on {args.size}^2 Shepp-Logan: "
          f"relative error {relative_error(res.image, truth):.4f} "
          f"({res.iterations} iterations, stop: {res.stop_reason}, "
          f"{res.wall_seconds:.2f}s)")
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading as _threading

    from repro import config as repro_config
    from repro.serve import ServeConfig, ServiceRunner, serve_http

    journal_dir = args.journal_dir
    if journal_dir is None:
        journal_dir = repro_config.journal_dir()
    elif journal_dir.lower() == "none":
        journal_dir = None

    config = ServeConfig(
        workers=args.workers,
        max_queue_depth=args.max_queue_depth,
        max_batch=args.max_batch,
        batch_window_s=args.batch_window,
        default_deadline_s=args.deadline,
        journal_dir=journal_dir,
        recover=args.recover,
        ckpt_every=args.ckpt_every,
        drain_timeout_s=args.drain_timeout,
    )
    runner = ServiceRunner(config).start()
    server = serve_http(runner, host=args.host, port=args.port)
    stop_event = _threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop_event.set())
    signal.signal(signal.SIGINT, lambda *_: stop_event.set())
    journal_note = f", journal={journal_dir}" if journal_dir else ", no journal"
    print(f"repro serve listening on http://{args.host}:{server.port} "
          f"(workers={config.workers}, max_batch={config.max_batch}, "
          f"queue depth {config.max_queue_depth}/tenant"
          f"{journal_note})")
    print("endpoints: POST /v1/reconstruct, GET /v1/jobs/<id>[/progress], "
          "GET /metrics, GET /healthz, GET /readyz")
    if journal_dir and config.recover:
        runner.wait_ready(timeout=600.0)
        rec = runner.stats().get("recovery", {})
        print(f"recovery: {rec.get('state')} "
              f"(records={rec.get('records', 0)}, "
              f"resumed={rec.get('resumed', 0)}, "
              f"restarted={rec.get('restarted', 0)}, "
              f"restored={rec.get('restored', 0)}, "
              f"failed={rec.get('failed', 0)})")
    try:
        stop_event.wait()
        print("\nsignal received; draining "
              f"(timeout {config.drain_timeout_s:g}s)", file=sys.stderr)
        summary = runner.drain()
        print(f"drain: suspended={summary.get('suspended', 0)} "
              f"abandoned={summary.get('abandoned', 0)} "
              f"queued_failed={summary.get('queued_failed', 0)} "
              f"clean={summary.get('clean')}", file=sys.stderr)
    finally:
        server.stop()
        runner.stop()
    return 0


def _cmd_experiment(args) -> int:
    import importlib

    mod = importlib.import_module(f"repro.bench.experiments.{args.name}")
    print(mod.run())
    return 0


def _cmd_calibrate(args) -> int:
    from repro.bench.calibrate import calibrate_host, validation_report

    machine = calibrate_host()
    print(validation_report(machine))
    return 0


def _cmd_trace(args) -> int:
    from repro import obs

    if args.file:
        import json

        try:
            spans = obs.load_jsonl(args.file)
        except FileNotFoundError:
            print(f"error: no such trace file: {args.file}", file=sys.stderr)
            return 2
        except (json.JSONDecodeError, KeyError) as exc:
            print(f"error: {args.file} is not a JSONL trace: {exc}",
                  file=sys.stderr)
            return 2
        report = (obs.stage_summary(spans) if args.aggregate
                  else obs.span_tree_report(spans))
        print(report)
        return 0
    # no file: report whatever this process recorded (plus metrics)
    print(obs.trace_report(aggregate=args.aggregate))
    if args.metrics:
        print()
        print(obs.prometheus_text(obs.registry))
    return 0


def _cmd_kernels(args) -> int:
    from repro.kernels import cbuild, dispatch

    if args.action == "build":
        from repro.kernels.cbindings import reset_load_state

        path = cbuild.build_library(verbose=True)  # KernelError on failure
        cbuild.reset_cache_state()
        reset_load_state()
        print(f"kernel library ready: {path}")
        return 0
    marker = cbuild.failure_marker_path()
    print(f"backend in use : {dispatch.backend_in_use()}")
    print(f"failure marker : {marker if marker.is_file() else 'none'}")
    return 0


def _cmd_metrics(args) -> int:
    from repro import obs

    text = obs.prometheus_text(obs.registry)
    if not text:
        print("(no metrics recorded in this process; metrics are "
              "process-wide — see `repro trace`)", file=sys.stderr)
        return 0
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro", description=__doc__)
    p.add_argument("--debug", action="store_true",
                   help="show full tracebacks for repro errors instead of "
                        "one-line messages")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="environment and registry summary")

    sp = sub.add_parser("spmv", help="benchmark SpMV formats")
    sp.add_argument("--dataset", default="clinical-small")
    sp.add_argument("--formats", default="", help="comma-separated names")
    sp.add_argument("--double", action="store_true")
    sp.add_argument("--iterations", type=int, default=30)
    sp.add_argument("--s-vvec", type=int, default=16)
    sp.add_argument("--s-imgb", type=int, default=16)
    sp.add_argument("--s-vxg", type=int, default=2)

    bn = sub.add_parser("bench", help="targeted micro-benchmarks")
    bn.add_argument("what", choices=("cache", "build", "trajectory", "compare"),
                    help="which bench to run")
    bn.add_argument("--size", type=int, default=256,
                    help="image side length (matrix is ~2*size^2 x size^2)")
    bn.add_argument("--formats", default="", help="comma-separated names")
    bn.add_argument("--double", action="store_true")
    bn.add_argument("--s-vvec", type=int, default=16)
    bn.add_argument("--s-imgb", type=int, default=16)
    bn.add_argument("--s-vxg", type=int, default=2)
    bn.add_argument("--projectors", default="strip,pixel,siddon",
                    help="projector sweeps to time (bench build)")
    bn.add_argument("--workers", default="1,2,4",
                    help="comma-separated build worker counts (bench build)")
    bn.add_argument("--repeats", type=int, default=1,
                    help="best-of repeats per cold build (bench build)")
    bn.add_argument("--out", default=None,
                    help="trajectory ledger path (bench trajectory/compare; "
                         "default BENCH_trajectory.json)")
    bn.add_argument("--quick", action="store_true",
                    help="size 32, few iterations (bench trajectory)")
    bn.add_argument("--report-only", action="store_true",
                    help="print regressions but exit 0 (bench compare)")
    bn.add_argument("--baseline", type=int, default=-2,
                    help="trajectory point index to compare against "
                         "(bench compare; default: second to last)")
    bn.add_argument("--candidate", type=int, default=-1,
                    help="trajectory point index under test "
                         "(bench compare; default: last)")

    ca = sub.add_parser("cache", help="inspect/manage the operator cache")
    casub = ca.add_subparsers(dest="action", required=True)
    casub.add_parser("ls", help="list cache entries (LRU order)")
    casub.add_parser("info", help="cache location, size and lifetime counters")
    casub.add_parser("clear", help="remove every cache entry")
    cw = casub.add_parser("warm", help="pre-build operators into the cache")
    cw.add_argument("--size", type=int, default=256)
    cw.add_argument("--formats", default="cscv-z,cscv-m",
                    help="comma-separated format names")
    cw.add_argument("--projector", default="strip",
                    choices=["strip", "pixel", "siddon"])
    cw.add_argument("--double", action="store_true")
    cw.add_argument("--s-vvec", type=int, default=16)
    cw.add_argument("--s-imgb", type=int, default=16)
    cw.add_argument("--s-vxg", type=int, default=2)

    cv = sub.add_parser("convert", help="build + save a CSCV matrix")
    cv.add_argument("output")
    cv.add_argument("--dataset", default="clinical-small")
    cv.add_argument("--double", action="store_true")
    cv.add_argument("--s-vvec", type=int, default=16)
    cv.add_argument("--s-imgb", type=int, default=16)
    cv.add_argument("--s-vxg", type=int, default=2)
    cv.add_argument("--reference-mode", default="ioblr", choices=["ioblr", "btb"])

    rc = sub.add_parser("reconstruct", help="reconstruct a phantom")
    rc.add_argument("--solver", default="sirt",
                    help="any registry solver (repro.recon.available_solvers())")
    rc.add_argument("--size", type=int, default=64)
    rc.add_argument("--iterations", type=int, default=None,
                    help="iteration budget (default: the solver's schema "
                         "default)")
    rc.add_argument("--relax", type=float, default=None,
                    help="relaxation factor (solvers with the 'relax' "
                         "capability; >2 needs --watchdog to recover)")
    rc.add_argument("--param", action="append", metavar="KEY=VALUE",
                    help="extra solver parameter (repeatable); validated "
                         "against the solver's registry schema")
    rc.add_argument("--watchdog", action="store_true",
                    help="enable the residual watchdog (divergence detection "
                         "+ restart with backed-off relaxation)")
    rc.add_argument("--no-cache", action="store_true",
                    help="bypass the persistent operator cache")

    sv = sub.add_parser("serve", help="run the reconstruction service "
                                      "(HTTP JSON API)")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8471,
                    help="listen port (0 picks an ephemeral port)")
    sv.add_argument("--workers", type=int, default=2,
                    help="concurrent solver batches")
    sv.add_argument("--max-queue-depth", type=int, default=16,
                    help="queued jobs allowed per tenant before 429")
    sv.add_argument("--max-batch", type=int, default=8,
                    help="most jobs coalesced into one SpMM batch")
    sv.add_argument("--batch-window", type=float, default=0.01,
                    help="seconds a coalescible job waits for key-mates")
    sv.add_argument("--deadline", type=float, default=None,
                    help="default per-job deadline in seconds")
    sv.add_argument("--journal-dir", default=None,
                    help="durable job journal directory (default: "
                         "REPRO_JOURNAL_DIR or <cache>/journal; "
                         "'none' disables journaling)")
    sv.add_argument("--recover", dest="recover", action="store_true",
                    default=True,
                    help="replay the journal on boot and resume "
                         "interrupted jobs (default)")
    sv.add_argument("--no-recover", dest="recover", action="store_false",
                    help="skip journal replay on boot")
    sv.add_argument("--ckpt-every", type=int, default=None,
                    help="solver checkpoint cadence in iterations "
                         "(default: REPRO_CKPT_EVERY)")
    sv.add_argument("--drain-timeout", type=float, default=30.0,
                    help="seconds SIGTERM/SIGINT drain waits for "
                         "in-flight batches to finish or checkpoint")

    kn = sub.add_parser("kernels", help="compiled kernel library status / build")
    kn.add_argument("action", nargs="?", choices=("status", "build"),
                    default="status",
                    help="'build' recompiles and clears any persistent "
                         "compile-failure marker")

    ex = sub.add_parser("experiment", help="regenerate a paper table/figure")
    ex.add_argument("name", help="table1..table4, fig1..fig11")

    sub.add_parser("calibrate", help="calibrate the host performance model")

    tr = sub.add_parser("trace", help="render a JSONL trace as a stage report")
    tr.add_argument("file", nargs="?", default="",
                    help="trace file (default: this process's spans)")
    tr.add_argument("--aggregate", action="store_true",
                    help="aggregate wall-clock by span name (Fig-7 style)")
    tr.add_argument("--metrics", action="store_true",
                    help="also print the Prometheus metrics text")

    sub.add_parser("metrics", help="dump the metrics registry (Prometheus text)")
    return p


_COMMANDS = {
    "info": _cmd_info,
    "spmv": _cmd_spmv,
    "bench": _cmd_bench,
    "cache": _cmd_cache,
    "convert": _cmd_convert,
    "kernels": _cmd_kernels,
    "reconstruct": _cmd_reconstruct,
    "serve": _cmd_serve,
    "experiment": _cmd_experiment,
    "calibrate": _cmd_calibrate,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Honours ``REPRO_TRACE``: when set, spans recorded during the command
    are dumped as JSON lines on exit and the path is printed to stderr.

    Library failures (:class:`~repro.errors.ReproError` — bad arguments,
    corrupt files, diverged solvers, unavailable kernels) exit non-zero
    with a one-line message; pass ``--debug`` for the full traceback.
    """
    from repro import obs
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    tracing = obs.init_from_env()
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        if args.debug:
            raise
        first_line = (str(exc).splitlines() or [""])[0]
        print(f"error: {type(exc).__name__}: {first_line}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); not an error
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    finally:
        if tracing and args.command not in ("trace", "metrics"):
            spans = obs.tracer.finished()
            if spans:
                path = obs.dump_trace()
                print(f"[obs] {len(spans)} spans -> {path}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
