"""Host calibration: fit a Machine model to this computer.

The paper calibrates its platforms with the Intel MLC benchmark; here we
measure the two quantities the performance model needs — streaming read
bandwidth and sustained scalar/vector throughput — with NumPy/ctypes
micro-benchmarks and return a :class:`~repro.perfmodel.platform.Machine`
whose 1-thread predictions can be validated against measured SpMV.
"""

from __future__ import annotations

import os

import numpy as np

from repro.obs.perf import measure_stream_bandwidth
from repro.perfmodel.platform import HOST, Machine
from repro.utils.timing import min_time


def measure_fma_ghz(size: int = 1 << 20, repeats: int = 9) -> float:
    """Effective vector-FMA clock proxy: elementwise a*b+c throughput.

    Returns the apparent GHz assuming 2 ops/lane/cycle on the host's
    (assumed 512-bit) vector unit — a rough but sufficient anchor for the
    latency side of the model.
    """
    a = np.ones(size, dtype=np.float32)
    b = np.full(size, 1.0000001, dtype=np.float32)
    c = np.zeros(size, dtype=np.float32)

    def kernel():
        np.multiply(a, b, out=c)
        np.add(c, a, out=c)

    t = min_time(kernel, iterations=repeats, max_seconds=2.0)
    flops = 2.0 * size
    lanes = 16  # AVX-512 float32
    return flops / t / (2.0 * lanes) / 1e9


def calibrate_host(*, stream_mb: int = 128) -> Machine:
    """Measure this host and return a calibrated Machine model."""
    bw = measure_stream_bandwidth(size_mb=stream_mb)
    ghz = max(measure_fma_ghz(), 0.5)
    cores = os.cpu_count() or 1
    return Machine(
        name="host-calibrated",
        cores=cores,
        max_threads=cores,
        simd_bits=HOST.simd_bits,
        ghz=ghz,
        peak_bw_gbs=bw * min(cores, 4) if cores > 1 else bw,
        core_bw_gbs=bw,
        gather_cost=HOST.gather_cost,
        expand_cost=HOST.expand_cost,
    )


def validation_report(machine: Machine | None = None) -> str:
    """Model-vs-measured table for the quick dataset on this host."""
    from repro.api import build_format
    from repro.bench.datasets import get_dataset
    from repro.bench.harness import measure_format
    from repro.core.params import CSCVParams
    from repro.perfmodel.roofline import predict_gflops
    from repro.utils.tables import Table

    if machine is None:
        machine = calibrate_host()
    coo, geom = get_dataset("clinical-small").load(dtype=np.float32)
    t = Table(
        headers=["format", "measured GF", "model GF", "ratio"],
        title=f"host calibration: {machine.ghz:.2f} GHz eff., "
              f"{machine.core_bw_gbs:.1f} GB/s/core",
        fmt=".2f",
    )
    params = CSCVParams(16, 16, 2)
    for name in ("csr", "mkl-csr", "cscv-z", "cscv-m", "spc5"):
        fmt = build_format(name, coo, geom=geom, params=params)
        rec = measure_format(fmt, iterations=10, max_seconds=1.0)
        model = predict_gflops(fmt, machine, 1)
        t.add_row(name, rec.gflops, model, model / rec.gflops)
    return t.render()
