"""repro.obs — observability for the CSCV pipeline.

The paper's whole argument is a set of measurements (Fig 7 stage
breakdown, Fig 10 scalability, Fig 11 bandwidth ratios); this package
makes every run of the library produce the same kinds of evidence:

* :mod:`repro.obs.trace` — hierarchical spans (``with span("build.ioblr")``)
  covering the conversion pipeline, SpMV execution and solver iterations;
* :mod:`repro.obs.metrics` — a process-wide registry of counters, gauges
  and histograms (spmv calls per backend, padding rates, VxG fill,
  residuals, dispatch hits vs. NumPy fallbacks);
* :mod:`repro.obs.export` — JSON-lines trace dumps, Prometheus text, and
  the human ``repro trace`` stage report;
* :mod:`repro.obs.profile` — opt-in cProfile hooks for drilling into a
  single stage;
* :mod:`repro.obs.runtime` — the live transports: ``/metrics`` and a
  JSON ``/healthz`` over the package's one HTTP surface
  (:mod:`repro.serve.http`, without a service runner) and a JSONL
  flusher, controlled with ``obs.runtime.start/stop/is_active``.

Everything is off by default and costs one branch per call site when
disabled.  Enable via ``REPRO_TRACE=1`` (or ``REPRO_TRACE=/path/to.jsonl``
to pick the dump path), or programmatically::

    from repro import obs
    obs.enable()
    ... traced work ...
    obs.dump_trace("trace.jsonl")
    print(obs.trace_report())
"""

from __future__ import annotations

from repro import config
from repro.obs.export import (
    dump_jsonl,
    load_jsonl,
    prometheus_text,
    span_tree_report,
    stage_summary,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    registry,
)
from repro.obs.profile import profiled
from repro.obs.trace import Span, Tracer, is_enabled, span, tracer
from repro.obs import perf, runtime

__all__ = [
    "span",
    "Span",
    "Tracer",
    "tracer",
    "is_enabled",
    "enable",
    "disable",
    "reset",
    "counter",
    "gauge",
    "histogram",
    "registry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "profiled",
    "dump_jsonl",
    "load_jsonl",
    "prometheus_text",
    "span_tree_report",
    "stage_summary",
    "dump_trace",
    "trace_report",
    "env_trace",
    "default_trace_path",
    "status",
    "perf",
    "runtime",
]

#: Fallback dump path when ``REPRO_TRACE=1`` names no file.
DEFAULT_TRACE_PATH = "repro-trace.jsonl"

#: Re-exported so callers have one import site for the gate semantics.
env_trace = config.env_trace


def default_trace_path() -> str:
    """Where a trace dump goes when no path is given anywhere."""
    return config.runtime.trace_path or DEFAULT_TRACE_PATH


def enable() -> None:
    """Turn on span recording and bytes-moved perf accounting."""
    config.runtime.trace = True
    tracer.enable()
    perf.enable()


def disable() -> None:
    config.runtime.trace = False
    tracer.disable()
    if not runtime.is_active():  # the live exporter still needs perf data
        perf.disable()


def reset() -> None:
    """Clear recorded spans and all metric instruments."""
    tracer.reset()
    registry.reset()


def init_from_env() -> bool:
    """Apply ``REPRO_TRACE`` / ``REPRO_PROFILE``; returns tracing state.

    Called by the CLI entry point (library users call :func:`enable`
    explicitly) so importing repro never mutates global state.
    """
    if config.runtime.trace:
        tracer.enable()
        perf.enable()
    runtime.start_from_env()
    from repro.obs import profile as _profile

    prof_on, prof_path = _profile.env_profile()
    if prof_on:
        _profile.enable(prof_path)
    return tracer.enabled


def dump_trace(path: str | None = None) -> str:
    """Write all finished spans as JSON lines; returns the path used."""
    path = path or default_trace_path()
    dump_jsonl(tracer.finished(), path)
    return path


def trace_report(*, aggregate: bool = False) -> str:
    """Human-readable report of the recorded spans."""
    spans = tracer.finished()
    if aggregate:
        return stage_summary(spans)
    return span_tree_report(spans)


def status() -> dict:
    """Current observability state (what ``repro info`` prints)."""
    from repro.obs import profile as _profile

    return {
        "tracing": tracer.enabled,
        "trace_path": default_trace_path(),
        "spans_recorded": len(tracer.finished()),
        "metrics": registry.enabled,
        "metrics_registered": len(registry.names()),
        "profiling": _profile.is_enabled(),
        "perf_accounting": perf.is_active(),
        "metrics_runtime": runtime.is_active(),
        "metrics_port": runtime.server_port(),
    }
