"""Stdlib HTTP front-end: the one HTTP surface of the package.

Served by every instance (JSON unless noted):

* ``GET /metrics`` — the whole metrics registry in Prometheus text
  (``serve.*`` series included).
* ``GET /healthz`` — **liveness**: 200 ``{"status": "ok"}`` whenever the
  process can answer.  With a service runner attached the body also
  carries its queue/recovery stats; a draining or recovering service is
  alive.

Routed to the :class:`~repro.serve.service.ServiceRunner` when one is
attached (``repro serve``), and ``404 {"error": "not_found"}`` like any
unknown path when none is (the metrics-only exporter that
:func:`repro.obs.runtime.start` and ``REPRO_METRICS_PORT`` start):

* ``POST /v1/reconstruct`` — submit a job; ``202`` with the queued job
  snapshot, ``400`` on validation problems (body names the solver and
  its accepted parameters), ``429`` with a structured body when the
  tenant's queue is full, ``503`` with a ``Retry-After`` header and a
  structured retryable body during drain/recovery.
* ``GET /v1/jobs/<id>`` — full job snapshot; when done it carries the
  image as lossless base64 (``{"b64":..., "dtype":..., "shape":...}``).
  Append ``?image=0`` to skip the payload.
* ``GET /v1/jobs/<id>/progress`` — the streamed residual history
  recorded so far from the solver's IterationEvent callbacks.
* ``GET /readyz`` — **readiness**: 200 only when the service is
  admitting jobs; 503 while the journal replay is still running or a
  drain is in progress.  Load balancers and clients gate on this, not
  on ``/healthz``.

Any other exception while handling a request answers
``500 {"error": "internal"}`` (the traceback goes to this module's
logger, not the body) and counts in ``serve.http_internal_errors``; the
server keeps serving.

Built on ``ThreadingHTTPServer`` only: handler threads call the
thread-safe :class:`~repro.serve.service.ServiceRunner` directly.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ReproError, ValidationError
from repro.obs.export import prometheus_text
from repro.obs.metrics import counter, registry
from repro.serve.jobs import QueueFullError, ServiceUnavailableError
from repro.serve.service import ServiceRunner

__all__ = ["ServeHTTPServer", "serve_http"]

_MAX_BODY = 256 * 1024 * 1024  # hard cap; a 4096² float64 sinogram fits
_JSON = "application/json; charset=utf-8"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"
# serve_forever checks for shutdown once per poll; keep stop() prompt
_POLL_S = 0.05
_log = logging.getLogger(__name__)


class _ServeHandler(BaseHTTPRequestHandler):
    """Serves /metrics and /healthz; routes /readyz and /v1/* to the
    runner when one is attached.  Silent request logs."""

    server: "ServeHTTPServer"

    # ---------------------------------------------------------------- #
    # helpers

    def _send(self, status: int, body, ctype: str = _JSON, headers=()) -> None:
        """Write one response; a non-bytes *body* is sent as JSON."""
        if not isinstance(body, bytes):
            body = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _not_found(self, path: str) -> None:
        self._send(404, {"error": "not_found", "path": path})

    def _read_json(self):
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            raise ValidationError("Content-Length must be an integer") from None
        if length <= 0:
            raise ValidationError("request body is required")
        if length > _MAX_BODY:
            raise ValidationError(f"request body exceeds {_MAX_BODY} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"request body is not valid JSON: {exc}") from exc

    def _guarded(self, route) -> None:
        """Run *route*; the last resort for an unexpected exception is a
        structured 500 instead of a dropped connection, with the traceback
        logged server-side only."""
        try:
            route()
        except Exception:  # noqa: BLE001 - anything else is a server bug
            _log.exception("unhandled error serving %s %s", self.command, self.path)
            counter("serve.http_internal_errors",
                    "HTTP requests answered 500 by an unexpected exception").inc()
            self._send(500, {"error": "internal"})

    # ---------------------------------------------------------------- #
    # routes

    def do_POST(self):  # noqa: N802 (stdlib naming)
        self._guarded(self._post)

    def do_GET(self):  # noqa: N802 (stdlib naming)
        self._guarded(self._get)

    def _post(self) -> None:
        path = self.path.split("?")[0]
        runner = self.server.runner
        if runner is None or path != "/v1/reconstruct":
            self._not_found(path)
            return
        try:
            job = runner.submit(self._read_json())
        except ServiceUnavailableError as exc:
            self._send(503, exc.payload,
                       headers=[("Retry-After", f"{exc.retry_after_s:g}")])
        except QueueFullError as exc:
            self._send(429, exc.payload)
        except ValidationError as exc:
            self._send(400, {"error": "validation", "message": str(exc)})
        except ReproError as exc:
            self._send(500, {"error": type(exc).__name__, "message": str(exc)})
        else:
            self._send(202, job.snapshot(include_image=False))

    def _get(self) -> None:
        path, _, query = self.path.partition("?")
        runner = self.server.runner
        if path == "/metrics":
            self._send(200, prometheus_text(registry).encode("utf-8"), _PROMETHEUS)
        elif path == "/healthz":
            self._send(200, {"status": "ok",
                             **(runner.stats() if runner is not None else {})})
        elif runner is None:
            self._not_found(path)
        elif path == "/readyz":
            if runner.ready:
                self._send(200, {"ready": True})
            else:
                stats = runner.stats()
                self._send(503, {
                    "ready": False,
                    "draining": stats.get("draining", False),
                    "recovery": stats.get("recovery", {}),
                })
        elif path.startswith("/v1/jobs/"):
            job_id, _, tail = path[len("/v1/jobs/"):].partition("/")
            job = runner.get_job(job_id)
            if job is None:
                self._send(404, {"error": "unknown_job", "job_id": job_id})
            elif tail == "progress":
                self._send(200, job.progress_snapshot())
            elif tail == "":
                include_image = "image=0" not in query.split("&")
                self._send(200, job.snapshot(include_image=include_image))
            else:
                self._not_found(path)
        else:
            self._not_found(path)

    def log_message(self, *args):  # pragma: no cover - silence stderr
        pass


class ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the (optional) service runner."""

    daemon_threads = True

    def __init__(self, address, runner: ServiceRunner | None = None):
        super().__init__(address, _ServeHandler)
        self.runner = runner
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start_background(self) -> "ServeHTTPServer":
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": _POLL_S},
            name="repro-http", daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


def serve_http(
    runner: ServiceRunner | None = None, *, host: str = "127.0.0.1", port: int = 0
) -> ServeHTTPServer:
    """Serve the HTTP surface from a daemon thread, routing /v1/* and
    /readyz to *runner* when given.

    Returns the server; read ``server.port`` for the bound port (port 0
    picks an ephemeral one) and call ``server.stop()`` to shut down.
    """
    return ServeHTTPServer((host, port), runner).start_background()
