"""Tests for the reconstruction service (repro.serve) and the solver
registry / reconstruct() facade it is built on.

Covers the PR's acceptance criteria: a coalesced batch is
bitwise-identical to solo runs, tenant fairness under a saturating
tenant, the structured queue-full reject, clean deadline cancellation,
and registry/facade equivalence for every solver.
"""

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro
from repro.errors import ReproError, ValidationError
from repro.geometry import ParallelBeamGeometry
from repro.geometry.phantom import shepp_logan
from repro.serve import (
    QueueFullError,
    ServeConfig,
    ServiceRunner,
    parse_job,
    serve_http,
)
from repro.serve.jobs import CANCELLED, DONE, FAILED, encode_array

SIZE = 32


@pytest.fixture(scope="module")
def geom():
    return ParallelBeamGeometry.for_image(SIZE)


@pytest.fixture(scope="module")
def op(geom):
    return repro.operator(geom)


@pytest.fixture(scope="module")
def sinos(op, geom):
    truth = shepp_logan(SIZE).ravel().astype(op.dtype)
    base = op.forward(truth)
    rng = np.random.default_rng(7)
    return [
        (base + rng.normal(0.0, 0.02 * base.std(), base.shape)
         .astype(base.dtype))
        for _ in range(4)
    ]


def payload(sino, *, tenant="default", solver="sirt", params=None, **extra):
    body = {
        "tenant": tenant,
        "solver": solver,
        "params": params if params is not None else {"iterations": 4},
        "geometry": {"size": SIZE},
        "sinogram": encode_array(sino),
    }
    body.update(extra)
    return body


#: a b64 sinogram whose 3 decoded bytes are not a whole float32 sample
PARTIAL_SAMPLE = {"b64": "AAAA", "dtype": "float32"}


def http_json(url, data=None, expect_error=False):
    req = urllib.request.Request(
        url,
        data=json.dumps(data).encode() if data is not None else None,
        headers={"Content-Type": "application/json"} if data is not None else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as exc:
        if not expect_error:
            raise
        return exc.code, json.loads(exc.read())


# --------------------------------------------------------------------- #
# job parsing / batch keys


class TestParseJob:
    def test_batch_key_ignores_default_spelling(self, sinos):
        explicit = parse_job(payload(
            sinos[0], params={"iterations": 4, "relax": 1.0, "nonneg": True,
                              "rtol": 0.0}))
        implicit = parse_job(payload(sinos[1], params={"iterations": 4}))
        assert explicit.batch_key == implicit.batch_key
        assert explicit.operator_key == implicit.operator_key

    def test_batch_key_differs_on_params_and_solver(self, sinos):
        a = parse_job(payload(sinos[0], params={"iterations": 4}))
        b = parse_job(payload(sinos[0], params={"iterations": 5}))
        c = parse_job(payload(sinos[0], solver="cgls", params={}))
        assert len({a.batch_key, b.batch_key, c.batch_key}) == 3

    def test_coalescible_flags(self, sinos):
        assert parse_job(payload(sinos[0])).coalescible
        rtol = parse_job(payload(sinos[0], params={"rtol": 1e-6}))
        assert not rtol.coalescible and "rtol" in rtol.no_batch_reason
        art = parse_job(payload(sinos[0], solver="art", params={}))
        assert not art.coalescible

    def test_unknown_solver_param_names_solver(self, sinos):
        with pytest.raises(ValidationError, match="solver 'sirt'.*bogus"):
            parse_job(payload(sinos[0], params={"bogus": 1}))

    def test_unknown_top_level_field(self, sinos):
        with pytest.raises(ValidationError, match="unknown job field"):
            parse_job(payload(sinos[0], volume=3))

    def test_sinogram_length_checked(self):
        with pytest.raises(ValidationError, match="expects"):
            parse_job(payload(np.zeros(7, dtype=np.float32)))

    def test_sinogram_b64_roundtrip_exact(self, sinos):
        req = parse_job(payload(sinos[0]))
        assert np.array_equal(req.sinogram, sinos[0])

    def test_sinogram_list_accepted(self, geom):
        flat = [0.5] * geom.num_rays
        req = parse_job({"geometry": {"size": SIZE}, "sinogram": flat})
        assert req.sinogram.shape == (geom.num_rays,)

    def test_non_finite_sinogram_rejected(self, sinos):
        bad = sinos[0].copy()
        bad[0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            parse_job(payload(bad))

    def test_deadline_validated(self, sinos):
        with pytest.raises(ValidationError, match="deadline_s"):
            parse_job(payload(sinos[0], deadline_s=-1))

    def test_partial_sample_sinogram_is_a_structured_error(self, sinos):
        # "AAAA" decodes to 3 bytes: not a whole float32 sample
        runner = ServiceRunner(ServeConfig()).start(run_scheduler=False)
        try:
            with pytest.raises(ReproError, match="whole number of float32"):
                runner.submit(payload(sinos[0]) | {"sinogram": PARTIAL_SAMPLE})
        finally:
            runner.stop()


# --------------------------------------------------------------------- #
# coalescing


class TestCoalescing:
    def test_coalesced_batch_bitwise_identical_to_solo(self, op, sinos):
        """k jobs sharing a batch key run as one SpMM batch whose columns
        match the solo facade runs bit for bit."""
        config = ServeConfig(workers=1, max_batch=8, batch_window_s=0.25)
        with ServiceRunner(config) as runner:
            # occupy the single worker so the real jobs queue up together
            plug = runner.submit(payload(
                sinos[0], tenant="plug", params={"iterations": 60}))
            jobs = [
                runner.submit(payload(s, tenant=f"t{i}",
                                      params={"iterations": 5}))
                for i, s in enumerate(sinos[:3])
            ]
            for job in jobs:
                assert runner.wait(job.id, timeout=120).state == DONE
            runner.wait(plug.id, timeout=120)

        widths = {j.batch_width for j in jobs}
        assert widths == {3}, f"expected one batch of 3, widths={widths}"
        assert all(j.coalesced for j in jobs)
        assert len({j.batch_id for j in jobs}) == 1
        for job, sino in zip(jobs, sinos[:3]):
            solo = repro.reconstruct(op, sino, solver="sirt", iterations=5)
            assert np.array_equal(job.result, solo.image)

    def test_incompatible_params_do_not_coalesce(self, sinos):
        config = ServeConfig(workers=1, max_batch=8, batch_window_s=0.25)
        with ServiceRunner(config) as runner:
            plug = runner.submit(payload(
                sinos[0], tenant="plug", params={"iterations": 40}))
            a = runner.submit(payload(sinos[0], params={"iterations": 3}))
            b = runner.submit(payload(sinos[1], params={"iterations": 4}))
            for job in (plug, a, b):
                runner.wait(job.id, timeout=120)
        assert a.batch_width == 1 and b.batch_width == 1
        assert not a.coalesced and not b.coalesced

    def test_progress_streams_iteration_events(self, sinos):
        with ServiceRunner(ServeConfig(workers=1, batch_window_s=0.0)) as runner:
            job = runner.submit(payload(sinos[0], params={"iterations": 6}))
            runner.wait(job.id, timeout=120)
        snap = job.progress_snapshot()
        assert snap["count"] == 6
        ks = [e["k"] for e in snap["events"]]
        assert ks == list(range(6))
        assert all(e["meaning"] == "residual" for e in snap["events"])
        # SIRT on consistent-ish data: the residual stream decreases
        residuals = [e["residual"] for e in snap["events"]]
        assert residuals[-1] < residuals[0]


# --------------------------------------------------------------------- #
# fairness & admission control


class TestFairnessAndAdmission:
    def test_round_robin_interleaves_a_saturating_tenant(self, sinos):
        """Tenant B's two jobs don't wait behind tenant A's six: round-robin
        scheduling finishes B's last job well before A's backlog drains."""
        config = ServeConfig(workers=1, max_batch=1, batch_window_s=0.0,
                             max_queue_depth=32)
        order = []
        with ServiceRunner(config) as runner:
            plug = runner.submit(payload(
                sinos[0], tenant="plug", params={"iterations": 80}))
            a_jobs = [
                runner.submit(payload(sinos[i % len(sinos)], tenant="A",
                                      params={"iterations": 3}))
                for i in range(6)
            ]
            b_jobs = [
                runner.submit(payload(sinos[i], tenant="B",
                                      params={"iterations": 3}))
                for i in range(2)
            ]
            for job in a_jobs + b_jobs + [plug]:
                assert runner.wait(job.id, timeout=120).state == DONE
        finished = sorted(
            a_jobs + b_jobs, key=lambda j: j.finished_at
        )
        tenants = [j.request.tenant for j in finished]
        b_last = max(i for i, t in enumerate(tenants) if t == "B")
        # strict FIFO would put B's jobs at positions 6 and 7
        assert b_last <= 4, f"B starved: completion order {tenants}"

    def test_queue_full_is_structured_and_per_tenant(self, sinos):
        config = ServeConfig(workers=1, max_queue_depth=2)
        runner = ServiceRunner(config).start(run_scheduler=False)
        try:
            runner.submit(payload(sinos[0], tenant="A"))
            runner.submit(payload(sinos[1], tenant="A"))
            with pytest.raises(QueueFullError) as exc_info:
                runner.submit(payload(sinos[2], tenant="A"))
            body = exc_info.value.payload
            assert body["error"] == "queue_full"
            assert body["tenant"] == "A"
            assert body["max_queue_depth"] == 2
            assert body["retryable"] is True
            # a different tenant still gets in
            assert runner.submit(payload(sinos[3], tenant="B")).state == "queued"
        finally:
            runner.stop()

    def test_stop_fails_queued_jobs_retryable(self, sinos):
        # shutdown is a service condition, not a client mistake: queued
        # jobs fail with a structured retryable error, never "cancelled"
        runner = ServiceRunner(ServeConfig(workers=1)).start(run_scheduler=False)
        job = runner.submit(payload(sinos[0]))
        runner.stop()
        assert job.state == FAILED
        assert job.error["error"] == "shutdown"
        assert job.error["retryable"] is True
        assert job.stop_reason == "shutdown"
        assert job.done.is_set()


# --------------------------------------------------------------------- #
# deadlines


class TestDeadlines:
    def test_queued_deadline_cancels_cleanly(self, sinos):
        config = ServeConfig(workers=1, batch_window_s=0.0, max_batch=1)
        with ServiceRunner(config) as runner:
            plug = runner.submit(payload(
                sinos[0], tenant="plug", params={"iterations": 80}))
            doomed = runner.submit(payload(sinos[1], tenant="late",
                                           deadline_s=0.01))
            doomed = runner.wait(doomed.id, timeout=120)
            runner.wait(plug.id, timeout=120)
        assert doomed.state == CANCELLED
        assert doomed.stop_reason == "deadline"
        assert doomed.error["error"] == "deadline_exceeded"
        assert doomed.result is None
        assert plug.state == DONE  # the rest of the traffic is unharmed

    def test_mid_run_deadline_aborts_batch(self, sinos):
        config = ServeConfig(workers=1, batch_window_s=0.0)
        with ServiceRunner(config) as runner:
            job = runner.submit(payload(
                sinos[0], params={"iterations": 5000}, deadline_s=0.2))
            job = runner.wait(job.id, timeout=120)
            assert job.state == CANCELLED
            assert job.error["error"] == "deadline_exceeded"
            # service stays healthy for the next job
            ok = runner.submit(payload(sinos[1], params={"iterations": 3}))
            assert runner.wait(ok.id, timeout=120).state == DONE


# --------------------------------------------------------------------- #
# registry / facade equivalence


class TestFacadeEquivalence:
    def test_sirt_matches_direct_call(self, op, sinos):
        from repro.recon import sirt_reconstruct

        res = repro.reconstruct(op, sinos[0], solver="sirt", iterations=7,
                                relax=1.2)
        direct = sirt_reconstruct(op, sinos[0], iterations=7, relax=1.2)
        assert np.array_equal(res.image, direct)
        assert res.iterations == 7
        assert len(res.residual_history) == 7

    def test_cgls_matches_direct_call(self, op, sinos):
        from repro.recon import cgls_reconstruct

        res = repro.reconstruct(op, sinos[0], solver="cgls", iterations=6,
                                damping=0.05)
        direct = cgls_reconstruct(op, sinos[0], iterations=6, damping=0.05)
        assert np.array_equal(res.image, direct)
        assert res.residual_meaning == "normal_residual"

    def test_art_matches_direct_call(self, op, sinos):
        from repro.recon import art_reconstruct

        res = repro.reconstruct(op, sinos[0], solver="art", iterations=4,
                                relax=0.7)
        direct = art_reconstruct(op, sinos[0], iterations=4, relax=0.7)
        assert np.array_equal(res.image, direct)

    def test_os_sart_matches_direct_call(self, op, geom, sinos):
        from repro.recon.os_sart import os_sart_reconstruct

        res = repro.reconstruct(op, sinos[0], solver="os-sart", geom=geom,
                                iterations=2, num_subsets=4)
        direct = os_sart_reconstruct(op.to_csr(), geom, sinos[0],
                                     iterations=2, num_subsets=4)
        assert np.array_equal(res.image, direct)

    def test_fbp_matches_direct_call(self, op, geom, sinos):
        from repro.recon import fbp_reconstruct

        res = repro.reconstruct(op, sinos[0], solver="fbp", geom=geom)
        direct = fbp_reconstruct(op, sinos[0], geom)
        assert np.array_equal(res.image, direct)
        assert res.stop_reason == "analytic"

    def test_icd_matches_direct_call(self, op, sinos):
        from repro.recon import icd_reconstruct

        res = repro.reconstruct(op, sinos[0], solver="icd", iterations=2,
                                order="random", seed=4)
        direct = icd_reconstruct(op, sinos[0], iterations=2, order="random",
                                 seed=4)
        assert np.array_equal(res.image, direct)
        assert res.iterations == 2 and res.stop_reason == "max_iterations"
        assert [e.k for e in res.history] == [0, 1]

    def test_underscore_alias(self, op, geom, sinos):
        res = repro.reconstruct(op, sinos[0], solver="os_sart", geom=geom,
                                iterations=1, num_subsets=2)
        assert res.solver == "os-sart"

    def test_unknown_param_rejected_with_accepted_list(self, op, sinos):
        with pytest.raises(ValidationError, match="accepted parameters"):
            repro.reconstruct(op, sinos[0], solver="cgls", relax=1.0)


# --------------------------------------------------------------------- #
# HTTP API


class TestHTTPAPI:
    @pytest.fixture()
    def served(self):
        runner = ServiceRunner(ServeConfig(workers=2, batch_window_s=0.02))
        runner.start()
        server = serve_http(runner)
        yield f"http://127.0.0.1:{server.port}"
        server.stop()
        runner.stop()

    def test_submit_poll_fetch_roundtrip(self, served, op, sinos):
        status, body = http_json(
            served + "/v1/reconstruct",
            payload(sinos[0], params={"iterations": 5}))
        assert status == 202
        assert body["state"] in ("queued", "running")
        jid = body["job_id"]

        deadline = time.time() + 60
        while time.time() < deadline:
            status, snap = http_json(served + f"/v1/jobs/{jid}")
            if snap["state"] == "done":
                break
            time.sleep(0.02)
        assert snap["state"] == "done"

        import base64

        img = snap["image"]
        got = np.frombuffer(base64.b64decode(img["b64"]), dtype=img["dtype"])
        solo = repro.reconstruct(op, sinos[0], solver="sirt", iterations=5)
        assert np.array_equal(got, solo.image)

        status, prog = http_json(served + f"/v1/jobs/{jid}/progress")
        assert status == 200 and prog["count"] == 5

        status, lean = http_json(served + f"/v1/jobs/{jid}?image=0")
        assert "image" not in lean

    def test_validation_names_solver_over_http(self, served, sinos):
        status, body = http_json(
            served + "/v1/reconstruct",
            payload(sinos[0], solver="cgls", params={"relax": 2}),
            expect_error=True)
        assert status == 400
        assert body["error"] == "validation"
        assert "cgls" in body["message"]
        assert "accepted parameters" in body["message"]

    def test_bad_json_is_400(self, served):
        req = urllib.request.Request(
            served + "/v1/reconstruct", data=b"{nope",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=10)
        assert exc_info.value.code == 400

    def test_partial_sample_sinogram_is_400(self, served, sinos):
        status, body = http_json(
            served + "/v1/reconstruct",
            payload(sinos[0]) | {"sinogram": PARTIAL_SAMPLE},
            expect_error=True)
        assert status == 400 and body["error"] == "validation"
        assert "whole number of float32" in body["message"]

    def test_unknown_job_is_404(self, served):
        status, body = http_json(served + "/v1/jobs/job-999999",
                                 expect_error=True)
        assert status == 404 and body["error"] == "unknown_job"

    def test_healthz_and_metrics(self, served):
        status, health = http_json(served + "/healthz")
        assert status == 200 and health["status"] == "ok"
        with urllib.request.urlopen(served + "/metrics", timeout=10) as r:
            text = r.read().decode()
        assert "repro_serve_jobs_submitted" in text

    def test_http_queue_full_is_429(self, sinos):
        runner = ServiceRunner(ServeConfig(workers=1, max_queue_depth=1))
        runner.start(run_scheduler=False)
        server = serve_http(runner)
        url = f"http://127.0.0.1:{server.port}"
        try:
            status, _ = http_json(url + "/v1/reconstruct",
                                  payload(sinos[0], tenant="flood"))
            assert status == 202
            status, body = http_json(url + "/v1/reconstruct",
                                     payload(sinos[1], tenant="flood"),
                                     expect_error=True)
            assert status == 429
            assert body["error"] == "queue_full"
            assert body["retryable"] is True
        finally:
            server.stop()
            runner.stop()
