"""Fig 7 — the whole CSCV-based SpMV process.

The paper's pipeline figure: matrix format conversion (once, before
calculation), then per-iteration local ad hoc reordering + fully
vectorised SpMV.  We time each stage on a real dataset and report the
amortisation: conversion cost divided by per-iteration savings vs the
vendor baseline — the break-even iteration count that justifies CSCV in
iterative reconstruction.

Stage timing comes from the tracing layer (``repro.obs``): the builder
already emits ``build.cscv`` with nested per-stage spans, so the figure
reports the real trajectory/IOBLR/CSCVE/VxG decomposition instead of a
single opaque conversion lap.
"""

from __future__ import annotations

import numpy as np

from repro.bench.datasets import QUICK_DATASET, get_dataset
from repro.core.builder import build_cscv
from repro.core.format_m import CSCVMMatrix
from repro.core.format_z import CSCVZMatrix
from repro.core.params import CSCVParams
from repro.obs import trace as obs_trace
from repro.sparse.mkl_like import MKLLikeCSR
from repro.utils.tables import Table
from repro.utils.timing import min_time


def _traced_build(coo, geom, params: CSCVParams, dtype):
    """Build CSCV with tracing forced on; return (data, new spans)."""
    tr = obs_trace.tracer
    prev, mark = tr.enabled, len(tr.finished())
    tr.enabled = True
    try:
        data = build_cscv(coo.rows, coo.cols, coo.vals, geom, params, dtype)
    finally:
        tr.enabled = prev
    return data, tr.finished()[mark:]


def run(dataset: str = QUICK_DATASET, dtype=np.float32,
        params: CSCVParams | None = None) -> str:
    """Time conversion and per-iteration stages; render the breakdown."""
    params = params or CSCVParams(s_vvec=16, s_imgb=16, s_vxg=2)
    coo, geom = get_dataset(dataset).load(dtype=dtype)

    data, spans = _traced_build(coo, geom, params, dtype)
    z = CSCVZMatrix(data)
    m = CSCVMMatrix(data)
    x = np.linspace(0.5, 1.5, coo.shape[1]).astype(dtype)
    y = np.zeros(coo.shape[0], dtype=dtype)

    t_z = min_time(lambda: z.spmv_into(x, y), iterations=30, max_seconds=2)
    t_m = min_time(lambda: m.spmv_into(x, y), iterations=30, max_seconds=2)
    mkl = MKLLikeCSR.from_coo(coo.shape, coo.rows, coo.cols, coo.vals, dtype=dtype)
    t_mkl = min_time(lambda: mkl.spmv_into(x, y), iterations=30, max_seconds=2)

    root = next(s for s in spans if s.name == "build.cscv")
    convert_s = root.seconds
    t = Table(headers=["stage", "time", "unit"], title="Fig 7: CSCV pipeline stages")
    t.add_row("matrix format conversion (once)", f"{convert_s * 1e3:.1f}", "ms")
    pack = next((s for s in spans if s.name == "build.pack"), None)
    stage_parents = {root.id} | ({pack.id} if pack else set())
    # per-group stages repeat once per view group (concurrently with
    # build workers): one row each, summed over the groups
    stages: dict[str, list] = {}
    for s in sorted((s for s in spans
                     if s.parent in stage_parents and s.name != "build.pack"),
                    key=lambda s: s.start):
        row = stages.setdefault(s.name.removeprefix("build."), [0, 0.0])
        row[0] += 1
        row[1] += s.seconds
    for stage, (count, seconds) in stages.items():
        label = f"{stage} ({count} groups)" if count > 1 else stage
        t.add_row(f"  conversion: {label}", f"{seconds * 1e3:.1f}", "ms")
    t.add_row("SpMV iteration, CSCV-Z (reorder+compute)", f"{t_z * 1e3:.3f}", "ms")
    t.add_row("SpMV iteration, CSCV-M (reorder+expand+compute)", f"{t_m * 1e3:.3f}", "ms")
    t.add_row("SpMV iteration, vendor CSR baseline", f"{t_mkl * 1e3:.3f}", "ms")
    best = min(t_z, t_m)
    if t_mkl > best:
        breakeven = convert_s / (t_mkl - best)
        note = (
            f"conversion amortises after {breakeven:.0f} SpMV iterations "
            f"(iterative CT runs hundreds per reconstruction)"
        )
    else:
        note = "baseline faster at this scale; conversion does not amortise"
    return t.render() + "\n" + note


def stage_times(dataset: str = QUICK_DATASET, dtype=np.float32) -> dict[str, float]:
    """Machine-readable stage times (used by tests)."""
    params = CSCVParams(s_vvec=16, s_imgb=16, s_vxg=2)
    coo, geom = get_dataset(dataset).load(dtype=dtype)
    data, spans = _traced_build(coo, geom, params, dtype)
    z = CSCVZMatrix(data)
    x = np.ones(coo.shape[1], dtype=dtype)
    y = np.zeros(coo.shape[0], dtype=dtype)
    t_iter = min_time(lambda: z.spmv_into(x, y), iterations=10, max_seconds=1)
    convert_s = next(s for s in spans if s.name == "build.cscv").seconds
    return {"convert": convert_s, "iteration": t_iter}
