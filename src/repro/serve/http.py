"""Stdlib HTTP JSON front-end for the reconstruction service.

Endpoints (all JSON unless noted):

* ``POST /v1/reconstruct`` — submit a job; ``202`` with the queued job
  snapshot, ``400`` on validation problems (body names the solver and
  its accepted parameters), ``429`` with a structured body when the
  tenant's queue is full.
* ``GET /v1/jobs/<id>`` — full job snapshot; when done it carries the
  image as lossless base64 (``{"b64":..., "dtype":..., "shape":...}``).
  Append ``?image=0`` to skip the payload.
* ``GET /v1/jobs/<id>/progress`` — the streamed residual history
  recorded so far from the solver's IterationEvent callbacks.
* ``GET /metrics`` — the whole metrics registry in Prometheus text
  (``serve.*`` series included), same exporter as
  :mod:`repro.obs.runtime`.
* ``GET /healthz`` — **liveness**: 200 whenever the process can answer,
  with queue/recovery stats.  A draining or recovering service is alive.
* ``GET /readyz`` — **readiness**: 200 only when the service is
  admitting jobs; 503 while the journal replay is still running or a
  drain is in progress.  Load balancers and ``repro bench serve`` gate
  on this, not on ``/healthz``.

A ``POST`` during drain/recovery gets 503 with a ``Retry-After`` header
and a structured retryable body.

Built on ``ThreadingHTTPServer`` only: handler threads call the
thread-safe :class:`~repro.serve.service.ServiceRunner` bridge, so no
async code leaks into the HTTP layer.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ReproError, ValidationError
from repro.serve.jobs import QueueFullError, ServiceUnavailableError
from repro.serve.service import ServiceRunner

__all__ = ["ServeHTTPServer", "serve_http"]

_MAX_BODY = 256 * 1024 * 1024  # hard cap; a 4096² float64 sinogram fits


class _ServeHandler(BaseHTTPRequestHandler):
    """Routes /v1/* to the service runner; silent request logs."""

    server: "ServeHTTPServer"

    # ---------------------------------------------------------------- #
    # helpers

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, body: bytes, ctype: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self):
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ValidationError("request body is required")
        if length > _MAX_BODY:
            raise ValidationError(f"request body exceeds {_MAX_BODY} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"request body is not valid JSON: {exc}") from exc

    # ---------------------------------------------------------------- #
    # routes

    def do_POST(self):  # noqa: N802 (stdlib naming)
        path = self.path.split("?")[0]
        if path != "/v1/reconstruct":
            self._send_json(404, {"error": "not_found", "path": path})
            return
        try:
            payload = self._read_json()
            job = self.server.runner.submit(payload)
        except ServiceUnavailableError as exc:
            body = json.dumps(exc.payload).encode("utf-8")
            self.send_response(503)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Retry-After", f"{exc.retry_after_s:g}")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except QueueFullError as exc:
            self._send_json(429, exc.payload)
        except ValidationError as exc:
            self._send_json(400, {"error": "validation", "message": str(exc)})
        except ReproError as exc:
            self._send_json(500, {"error": type(exc).__name__, "message": str(exc)})
        else:
            self._send_json(202, job.snapshot(include_image=False))

    def do_GET(self):  # noqa: N802 (stdlib naming)
        path, _, query = self.path.partition("?")
        if path == "/metrics":
            from repro.obs.runtime import metrics_body

            self._send_text(200, *metrics_body())
            return
        if path == "/healthz":
            self._send_json(200, {"status": "ok", **self.server.runner.stats()})
            return
        if path == "/readyz":
            if self.server.runner.ready:
                self._send_json(200, {"ready": True})
            else:
                stats = self.server.runner.stats()
                self._send_json(503, {
                    "ready": False,
                    "draining": stats.get("draining", False),
                    "recovery": stats.get("recovery", {}),
                })
            return
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            job_id, _, tail = rest.partition("/")
            job = self.server.runner.get_job(job_id)
            if job is None:
                self._send_json(404, {"error": "unknown_job", "job_id": job_id})
            elif tail == "progress":
                self._send_json(200, job.progress_snapshot())
            elif tail == "":
                include_image = "image=0" not in query.split("&")
                self._send_json(200, job.snapshot(include_image=include_image))
            else:
                self._send_json(404, {"error": "not_found", "path": path})
            return
        self._send_json(404, {"error": "not_found", "path": path})

    def log_message(self, *args):  # pragma: no cover - silence stderr
        pass


class ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the service runner for handlers."""

    daemon_threads = True

    def __init__(self, address, runner: ServiceRunner):
        super().__init__(address, _ServeHandler)
        self.runner = runner
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start_background(self) -> "ServeHTTPServer":
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-http", daemon=True
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
    runner: ServiceRunner, *, host: str = "127.0.0.1", port: int = 0
) -> ServeHTTPServer:
    """Bind the HTTP API to *runner* and serve from a daemon thread.

    Returns the server; read ``server.port`` for the bound port (port 0
    picks an ephemeral one) and call ``server.stop()`` to shut down.
    """
    return ServeHTTPServer((host, port), runner).start_background()
