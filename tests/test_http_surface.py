"""The package's one HTTP surface (repro.serve.http), with and without a
service runner attached.

``repro serve`` attaches a :class:`~repro.serve.ServiceRunner`;
``obs.runtime.start(port=...)`` (and ``REPRO_METRICS_PORT``) serves the
same handler without one.  Both answer ``/metrics`` and a JSON
``/healthz`` the same way; only the runner-attached one routes
``/readyz`` and ``/v1/*``.  Stopping an idle server returns promptly,
and an unexpected exception in a route is a JSON 500, not a dropped
connection.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.serve import ServeConfig, ServiceRunner, serve_http

PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"


def request(port, path, data=None):
    """``(status, content type, body text)`` of one request; HTTP errors
    are returned, not raised."""
    req = urllib.request.Request(f"http://127.0.0.1:{port}{path}", data=data)
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.headers["Content-Type"], resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers["Content-Type"], exc.read().decode()


@pytest.fixture
def perf_restored():
    prev = obs.perf.active
    yield
    obs.perf.active = prev


@pytest.fixture(params=["runner", "runner-less"])
def surface(request, perf_restored):
    """``(kind, port, stop)`` for a server of each kind; ``stop`` shuts
    the HTTP server down and is safe to call again at teardown."""
    if request.param == "runner":
        runner = ServiceRunner(ServeConfig()).start(run_scheduler=False)
        server = serve_http(runner)
        yield request.param, server.port, server.stop
        server.stop()
        runner.stop()
    else:
        port = obs.runtime.start(port=0)
        assert obs.runtime.is_active() and port == obs.runtime.server_port()
        yield request.param, port, obs.runtime.stop
        obs.runtime.stop()
        assert not obs.runtime.is_active()


def test_metrics_healthz_and_unknown_path(surface):
    kind, port, _ = surface
    obs.counter("surface.probe").inc()
    status, ctype, body = request(port, "/metrics")
    assert status == 200 and ctype == PROMETHEUS
    assert "repro_surface_probe" in body

    status, ctype, body = request(port, "/healthz")
    assert status == 200 and ctype.startswith("application/json")
    health = json.loads(body)
    assert health["status"] == "ok"
    if kind == "runner":
        assert {"queued_total", "deepest_tenants", "ready",
                "recovery"} <= set(health)
        assert "tenants" not in health
    else:
        assert health == {"status": "ok"}

    status, ctype, body = request(port, "/nope")
    assert status == 404 and ctype.startswith("application/json")
    assert json.loads(body) == {"error": "not_found", "path": "/nope"}

    if kind == "runner-less":  # the service paths are unknown paths here
        status, _, body = request(port, "/v1/reconstruct", data=b"{}")
        assert status == 404
        assert json.loads(body) == {"error": "not_found",
                                    "path": "/v1/reconstruct"}
        for path in ("/readyz", "/v1/jobs/job-1"):
            status, _, body = request(port, path)
            assert status == 404 and json.loads(body)["error"] == "not_found"


def test_idle_stop_returns_promptly(surface):
    _, port, stop = surface
    assert request(port, "/healthz")[0] == 200
    t0 = time.perf_counter()
    stop()
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.25, f"idle stop() took {elapsed:.2f} s"


def test_unexpected_exception_is_a_json_500(perf_restored, monkeypatch):
    runner = ServiceRunner(ServeConfig()).start(run_scheduler=False)
    server = serve_http(runner)
    try:
        def boom(*args, **kwargs):
            raise RuntimeError("secret internals")

        monkeypatch.setattr(runner, "submit", boom)
        monkeypatch.setattr(runner, "get_job", boom)
        errors = obs.counter("serve.http_internal_errors")
        before = errors.value
        for path, data in (("/v1/reconstruct", b"{}"), ("/v1/jobs/job-1", None)):
            status, ctype, body = request(server.port, path, data=data)
            assert status == 500 and ctype.startswith("application/json")
            assert json.loads(body) == {"error": "internal"}
            # the handler survived: the next request on the server works
            assert request(server.port, "/healthz")[0] == 200
        assert errors.value == before + 2
    finally:
        server.stop()
        runner.stop()
