"""Live metrics runtime: an HTTP ``/metrics`` endpoint + JSONL flusher.

Long-running work (a big reconstruction, the serving layer) needs
its telemetry *while it runs*, not in a post-mortem dump.  This module
owns the two standard transports' lifecycle:

* **HTTP exporter** — the package's one HTTP surface,
  :func:`repro.serve.http.serve_http`, started without a service
  runner: the registry in the Prometheus exposition format at
  ``/metrics`` and JSON liveness ``{"status": "ok"}`` at ``/healthz``;
  ``/readyz`` and ``/v1/*`` answer 404.  Opt in with
  ``REPRO_METRICS_PORT=<port>`` (0 picks an ephemeral port) or
  :func:`start`.
* **JSONL flusher** — a daemon thread appending one
  ``{"ts": ..., "metrics": {...}}`` snapshot line to a file every
  ``REPRO_METRICS_FLUSH_SEC`` seconds (default 10), with a final flush
  registered via ``atexit`` so the last state of a crashed-or-finished
  run is never lost.  Opt in with ``REPRO_METRICS_FLUSH=<path>``.

Starting either transport also enables :mod:`repro.obs.perf` dispatch
accounting, so the endpoint immediately carries achieved-GB/s and
stream-fraction histograms.  When neither is configured nothing is
imported at runtime and the hot paths stay single-branch no-ops.
"""

from __future__ import annotations

import atexit
import json
import threading
import time

from repro.config import DEFAULT_METRICS_FLUSH_SEC, env_metrics_flush, env_metrics_port

__all__ = [
    "MetricsFlusher",
    "start",
    "stop",
    "is_active",
    "server_port",
    "start_from_env",
]


class MetricsFlusher:
    """Periodic JSONL snapshots of the registry, with a final atexit flush."""

    def __init__(self, path: str, interval: float = DEFAULT_METRICS_FLUSH_SEC):
        if interval <= 0:
            raise ValueError("flush interval must be > 0")
        self.path = path
        self.interval = interval
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._run, name="repro-metrics-flush", daemon=True
        )
        atexit.register(self._final_flush)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.flush()

    def flush(self) -> None:
        """Append one snapshot line (no-op when the registry is empty)."""
        from repro.obs.metrics import registry

        snap = registry.snapshot()
        if not snap:
            return
        line = json.dumps({"ts": time.time(), "metrics": snap})
        with self._lock:
            try:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
            except OSError:
                pass  # telemetry must never take the workload down

    def _final_flush(self) -> None:
        if not self._stop.is_set():
            self.stop()

    def stop(self) -> None:
        self._stop.set()
        self.flush()
        if self._thread.is_alive() and self._thread is not threading.current_thread():
            self._thread.join(timeout=5.0)


_server = None  # repro.serve.http.ServeHTTPServer while running
_flusher: MetricsFlusher | None = None
_lock = threading.Lock()


def start(*, port: int | None = None, flush_path: str | None = None,
          flush_interval: float = DEFAULT_METRICS_FLUSH_SEC) -> int | None:
    """Start the requested transports; returns the bound HTTP port (or None).

    Idempotent per transport: an already-running server/flusher is kept.
    Enables :mod:`repro.obs.perf` accounting as a side effect.
    """
    from repro.obs import perf

    global _server, _flusher
    with _lock:
        if port is not None and _server is None:
            from repro.serve.http import serve_http

            _server = serve_http(None, port=port)
        if flush_path is not None and _flusher is None:
            _flusher = MetricsFlusher(flush_path, flush_interval)
        if _server is not None or _flusher is not None:
            perf.enable()
        return _server.port if _server is not None else None


def stop() -> None:
    """Stop both transports (perf accounting stays with the tracer state)."""
    from repro.obs import perf
    from repro.obs.trace import tracer

    global _server, _flusher
    with _lock:
        if _server is not None:
            _server.stop()
            _server = None
        if _flusher is not None:
            _flusher.stop()
            _flusher = None
        if not tracer.enabled:
            perf.disable()


def is_active() -> bool:
    return _server is not None or _flusher is not None


def server_port() -> int | None:
    """Port of the running exporter, or None."""
    return _server.port if _server is not None else None


def start_from_env() -> bool:
    """Apply ``REPRO_METRICS_*``; returns whether anything started."""
    port = env_metrics_port()
    flush_path, interval = env_metrics_flush()
    if port is None and flush_path is None:
        return False
    start(port=port, flush_path=flush_path, flush_interval=interval)
    return True
