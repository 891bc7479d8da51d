"""Crash-safe serving tests: checkpoint/resume bitwise identity, the
durable job journal, graceful drain and restart recovery.

The load-bearing invariant everywhere: a run that is interrupted and
resumed from a checkpoint produces output **bitwise-identical** to the
run that was never interrupted — compared array-for-array, not to a
tolerance.
"""

import json
import os
import time

import numpy as np
import pytest

import repro
from repro import api
from repro.errors import FormatError, ValidationError
from repro.geometry import ParallelBeamGeometry
from repro.geometry.phantom import shepp_logan
from repro.recon.checkpoint import (
    CheckpointState,
    CheckpointWriter,
    column_state,
    load_checkpoint,
    save_checkpoint,
    solver_params_hash,
)
from repro.recon.driver import run
from repro.recon.sirt import Sirt

SIZE = 24


@pytest.fixture(scope="module")
def geom():
    return ParallelBeamGeometry.for_image(SIZE)


@pytest.fixture(scope="module")
def op(geom):
    return repro.operator(geom)


@pytest.fixture(scope="module")
def sino(op):
    truth = shepp_logan(SIZE).ravel().astype(op.dtype)
    return op.forward(truth)


@pytest.fixture(scope="module")
def sino_stack(op, sino):
    rng = np.random.default_rng(11)
    cols = [sino] + [
        (sino + rng.normal(0.0, 0.02 * sino.std(), sino.shape)
         .astype(sino.dtype))
        for _ in range(2)
    ]
    return np.stack(cols, axis=1)


BATCH_CASES = [
    ("sirt", {"iterations": 12, "relax": 1.2}),
    ("cgls", {"iterations": 12, "damping": 1e-3}),
    ("os-sart", {"iterations": 10, "num_subsets": 4}),
]
# ICD has no batch capability: single-sinogram state only; ART is
# SIRT's iteration under ART's schema, its batch path covered by SIRT's
SOLVER_CASES = BATCH_CASES + [
    ("icd", {"iterations": 9}),
    ("icd", {"iterations": 9, "order": "random", "seed": 3}),
    ("art", {"iterations": 10, "relax": 0.7}),
]


def capture_checkpoint(at_k):
    """Event callback capturing the solver state after iteration *at_k*."""
    box = {}

    def cb(event):
        if event.k == at_k:
            assert event.state_provider is not None
            box["state"] = CheckpointState(
                solver=event.solver, k=event.k, params_hash="",
                arrays=event.state_provider(), residuals=(),
            )

    return box, cb


class TestResumeBitwise:
    @pytest.mark.parametrize("solver,params", SOLVER_CASES)
    @pytest.mark.parametrize("at_k", [1, 7])
    def test_resume_matches_uninterrupted(
        self, op, geom, sino, solver, params, at_k
    ):
        box, cb = capture_checkpoint(at_k)
        full = api.reconstruct(
            op, sino, solver=solver, geom=geom, callback=cb, **params
        )
        resumed = api.reconstruct(
            op, sino, solver=solver, geom=geom,
            resume_from=box["state"], **params,
        )
        assert resumed.image.dtype == full.image.dtype
        assert np.array_equal(resumed.image, full.image)
        assert resumed.iterations == full.iterations
        assert resumed.stop_reason == full.stop_reason

    @pytest.mark.parametrize("solver,params", SOLVER_CASES)
    def test_resume_roundtrips_through_disk(
        self, op, geom, sino, solver, params, tmp_path
    ):
        box, cb = capture_checkpoint(3)
        full = api.reconstruct(
            op, sino, solver=solver, geom=geom, callback=cb, **params
        )
        path = tmp_path / "state.ckpt"
        save_checkpoint(box["state"], path)
        loaded = load_checkpoint(path)
        assert loaded.k == 3
        resumed = api.reconstruct(
            op, sino, solver=solver, geom=geom, resume_from=loaded, **params
        )
        assert np.array_equal(resumed.image, full.image)

    @pytest.mark.parametrize("solver,params", BATCH_CASES)
    def test_batched_checkpoint_column_resumes_solo(
        self, op, geom, sino_stack, solver, params
    ):
        # a job coalesced into a batch can be recovered solo: slice its
        # column out of the batched checkpoint and finish alone
        box, cb = capture_checkpoint(4)
        api.reconstruct(
            op, sino_stack, solver=solver, geom=geom, callback=cb, **params
        )
        j = 1
        solo = api.reconstruct(
            op, sino_stack[:, j], solver=solver, geom=geom, **params
        )
        resumed = api.reconstruct(
            op, sino_stack[:, j], solver=solver, geom=geom,
            resume_from=column_state(box["state"], j), **params,
        )
        assert np.array_equal(resumed.image, solo.image)

    def test_resume_history_and_residuals_continue(self, op, geom, sino):
        box, cb = capture_checkpoint(5)
        full = api.reconstruct(
            op, sino, solver="sirt", geom=geom, callback=cb, iterations=9
        )
        resumed = api.reconstruct(
            op, sino, solver="sirt", geom=geom,
            resume_from=box["state"], iterations=9,
        )
        # post-resume history picks up at k=6 with the same norms
        assert [e.k for e in resumed.history] == [6, 7, 8]
        np.testing.assert_array_equal(
            [e.norm for e in resumed.history],
            [e.norm for e in full.history[6:]],
        )


class TestResumeValidation:
    def test_solver_mismatch_rejected(self, op, geom, sino):
        box, cb = capture_checkpoint(2)
        api.reconstruct(op, sino, solver="sirt", callback=cb, iterations=4)
        with pytest.raises(ValidationError, match="checkpoint"):
            api.reconstruct(
                op, sino, solver="cgls", resume_from=box["state"],
                iterations=4,
            )

    def test_params_hash_mismatch_rejected(self, op, geom, sino):
        box, cb = capture_checkpoint(2)
        res = api.reconstruct(
            op, sino, solver="sirt", callback=cb, iterations=6
        )
        state = box["state"]
        stamped = CheckpointState(
            solver=state.solver, k=state.k,
            params_hash=solver_params_hash("sirt", res.params),
            arrays=state.arrays, residuals=state.residuals,
        )
        # same parameterisation resumes fine
        api.reconstruct(
            op, sino, solver="sirt", resume_from=stamped, iterations=6
        )
        with pytest.raises(ValidationError, match="parameterisation"):
            api.reconstruct(
                op, sino, solver="sirt", resume_from=stamped,
                iterations=6, relax=0.7,
            )

    @pytest.mark.parametrize("solver,params", SOLVER_CASES)
    def test_x0_and_watchdog_rejected(self, op, geom, sino, solver, params):
        box, cb = capture_checkpoint(2)
        api.reconstruct(op, sino, solver=solver, geom=geom, callback=cb,
                        **params)
        state = box["state"]
        with pytest.raises(ValidationError, match="x0"):
            api.reconstruct(
                op, sino, solver=solver, geom=geom, resume_from=state,
                x0=np.zeros(op.shape[1], dtype=op.dtype), **params,
            )
        with pytest.raises(ValidationError, match="watchdog"):
            api.reconstruct(
                op, sino, solver=solver, geom=geom, resume_from=state,
                watchdog=True, **params,
            )

    def test_direct_call_checks_params_hash(self, op, geom, sino):
        box, cb = capture_checkpoint(2)
        res = api.reconstruct(
            op, sino, solver="sirt", callback=cb, iterations=6
        )
        state = box["state"]
        stamped = CheckpointState(
            solver=state.solver, k=state.k,
            params_hash=solver_params_hash("sirt", res.params),
            arrays=state.arrays, residuals=state.residuals,
        )
        # the driver itself: the same parameterisation resumes, a
        # different one is refused
        run(Sirt, op, sino, resume_from=stamped, iterations=6)
        with pytest.raises(ValidationError, match="parameterisation"):
            run(Sirt, op, sino, resume_from=stamped, iterations=6, relax=0.7)

    def test_unsupporting_solver_rejected(self, op, geom, sino):
        box, cb = capture_checkpoint(1)
        api.reconstruct(op, sino, solver="sirt", callback=cb, iterations=3)
        with pytest.raises(ValidationError, match="resume"):
            api.reconstruct(
                op, sino, solver="fbp", geom=geom, resume_from=box["state"],
            )

    @pytest.mark.parametrize("solver,params", SOLVER_CASES)
    def test_wrong_shape_rejected(self, op, geom, sino, solver, params):
        box, cb = capture_checkpoint(1)
        api.reconstruct(op, sino, solver=solver, geom=geom, callback=cb,
                        **params)
        state = box["state"]
        bad = CheckpointState(
            solver=state.solver, k=state.k, params_hash="",
            arrays={**state.arrays, "x": np.zeros((3, 1), dtype=op.dtype)},
        )
        with pytest.raises(ValidationError, match="shape"):
            api.reconstruct(
                op, sino, solver=solver, geom=geom, resume_from=bad,
                **params,
            )


class TestCheckpointIO:
    def test_corrupt_file_raises_format_error(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(FormatError, match="corrupt"):
            load_checkpoint(path)

    def test_truncated_file_raises_format_error(self, tmp_path, op, geom, sino):
        box, cb = capture_checkpoint(1)
        api.reconstruct(op, sino, solver="sirt", callback=cb, iterations=3)
        path = tmp_path / "trunc.ckpt"
        save_checkpoint(box["state"], path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_writer_cadence_and_force(self, op, geom, sino, tmp_path):
        path = tmp_path / "writer.ckpt"
        writer = CheckpointWriter(path, every=4)
        api.reconstruct(
            op, sino, solver="sirt", callback=writer, iterations=10
        )
        # iterations 0..9: cadence hits after k=3 and k=7
        assert writer.stored == 2
        assert load_checkpoint(path).k == 7
        assert len(writer.residuals) == 10
        state = writer.store()  # forced (drain path)
        assert state is not None and state.k == 9
        assert load_checkpoint(path).k == 9

    def test_writer_store_failure_degrades(self, op, geom, sino, tmp_path):
        from repro.resilience import faults

        path = tmp_path / "faulty.ckpt"
        writer = CheckpointWriter(path, every=2)
        with faults.inject("ckpt.store:enospc"):
            res = api.reconstruct(
                op, sino, solver="sirt", callback=writer, iterations=6
            )
        assert res.iterations == 6  # the solve itself survived
        assert writer.stored == 0
        assert writer.errors == 3
        assert not path.exists()
        # in-memory state is still good for an in-process resume
        assert writer.last_state is not None


class TestDurableWrites:
    def test_write_bytes_durable_atomic(self, tmp_path):
        from repro.utils import write_bytes_durable

        path = tmp_path / "doc.bin"
        write_bytes_durable(path, b"one")
        write_bytes_durable(path, b"two")
        assert path.read_bytes() == b"two"
        assert list(tmp_path.iterdir()) == [path]  # no stray temp files

    def test_write_json_durable(self, tmp_path):
        from repro.utils import write_json_durable

        path = tmp_path / "doc.json"
        write_json_durable(path, {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}

    def test_replace_durable(self, tmp_path):
        from repro.utils import replace_durable

        tmp = tmp_path / "stage.tmp"
        tmp.write_bytes(b"payload")
        dst = tmp_path / "final"
        replace_durable(tmp, dst)
        assert dst.read_bytes() == b"payload"
        assert not tmp.exists()


# --------------------------------------------------------------------- #
# the durable job journal


from repro.serve.journal import JobJournal  # noqa: E402


class TestJournal:
    def test_missing_journal_is_clean(self, tmp_path):
        replay = JobJournal(tmp_path / "j").replay()
        assert replay.clean_shutdown
        assert replay.records == 0
        assert not replay.jobs

    def test_replay_round_trip(self, tmp_path):
        j = JobJournal(tmp_path / "j")
        ref = j.spill_array(np.arange(6, dtype=np.float32))
        j.log_submit("job-000001", {"solver": "sirt"}, ref, None)
        j.log_submit("job-000002", {"solver": "cgls"}, ref, "key-a")
        j.log_start("job-000001", batch_id=1, batch_width=1)
        j.log_finish("job-000001", "done", result_ref=ref, iterations=5,
                     stop_reason="max_iterations")
        j.log_shutdown()
        replay = j.replay()
        assert replay.clean_shutdown
        assert replay.records == 5
        assert replay.max_job_num == 2
        a, b = replay.jobs["job-000001"], replay.jobs["job-000002"]
        assert not a.live and a.state == "done" and a.iterations == 5
        assert a.result_ref == ref and a.stop_reason == "max_iterations"
        assert b.live and b.state == "queued"
        assert b.idempotency_key == "key-a"
        assert replay.live_jobs() == [b]

    def test_duplicate_idempotency_submits_collapse(self, tmp_path):
        j = JobJournal(tmp_path / "j")
        ref = j.spill_array(np.ones(3))
        j.log_submit("job-000001", {}, ref, "idem-1")
        j.log_submit("job-000002", {}, ref, "idem-1")  # replayed duplicate
        j.log_finish("job-000002", "done", iterations=3)
        replay = j.replay()
        assert replay.duplicates == 1
        assert list(replay.jobs) == ["job-000001"]
        # the duplicate's finish routed to the canonical job
        assert replay.jobs["job-000001"].state == "done"

    def test_corrupt_tail_tolerated(self, tmp_path):
        j = JobJournal(tmp_path / "j")
        ref = j.spill_array(np.ones(3))
        j.log_submit("job-000001", {}, ref, None)
        j.close()
        with open(j.path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "finish", "job_id": "job-0000')  # torn write
        replay = j.replay()
        assert replay.records == 1
        assert replay.dropped == 1
        assert not replay.clean_shutdown
        assert replay.jobs["job-000001"].live  # the finish never took

    def test_spill_dedup_and_content_check(self, tmp_path):
        j = JobJournal(tmp_path / "j")
        arr = np.arange(8, dtype=np.float64)
        ref = j.spill_array(arr)
        assert j.spill_array(arr.copy()) == ref  # content-addressed dedup
        assert len(list(j.payload_dir.glob("*.npy"))) == 1
        np.testing.assert_array_equal(j.load_array(ref), arr)
        (j.payload_dir / f"{ref}.npy").write_bytes(b"garbage")
        with pytest.raises(ValueError, match="content check"):
            j.load_array(ref)
        with pytest.raises(OSError):
            j.load_array("0" * 64)

    def test_compact_keeps_live_drops_terminal_and_gcs(self, tmp_path):
        j = JobJournal(tmp_path / "j")
        live_ref = j.spill_array(np.ones(3))
        dead_ref = j.spill_array(np.zeros(4))
        j.log_submit("job-000001", {"a": 1}, live_ref, "k1")
        j.log_submit("job-000002", {}, dead_ref, None)
        j.log_finish("job-000002", "done")
        j.checkpoint_path("job-000001").write_bytes(b"x")
        j.checkpoint_path("job-000002").write_bytes(b"x")
        out = j.compact(j.replay())
        assert out == {"kept": 1, "payloads_removed": 1,
                       "checkpoints_removed": 1}
        replay = j.replay()
        assert list(replay.jobs) == ["job-000001"]
        rj = replay.jobs["job-000001"]
        assert rj.live and rj.idempotency_key == "k1"
        assert rj.payload == {"a": 1}
        assert j.checkpoint_path("job-000001").exists()
        assert not j.checkpoint_path("job-000002").exists()

    def test_append_and_fsync_fault_sites(self, tmp_path):
        from repro.resilience import faults

        j = JobJournal(tmp_path / "j")
        with faults.inject("journal.append:oserror"):
            with pytest.raises(OSError):
                j.log_submit("job-000001", {}, "ref", None)
        with faults.inject("journal.fsync:oserror"):
            with pytest.raises(OSError):
                j.log_submit("job-000002", {}, "ref", None)
        j.log_submit("job-000003", {}, "ref", None)  # healthy again
        assert "job-000003" in j.replay().jobs


# --------------------------------------------------------------------- #
# service-level: journaling, idempotency, drain, restart recovery


from repro.serve import ServiceRunner, ServiceUnavailableError  # noqa: E402
from repro.serve.jobs import encode_array  # noqa: E402
from repro.serve.service import ServeConfig  # noqa: E402


def serve_payload(sino, *, iterations=6, solver="sirt", **extra):
    out = {
        "solver": solver,
        "params": {"iterations": iterations},
        "geometry": {"size": SIZE},
        "sinogram": encode_array(sino),
    }
    out.update(extra)
    return out


class TestServiceRecovery:
    def test_idempotent_resubmit_same_session(self, sino, tmp_path):
        cfg = ServeConfig(workers=1, journal_dir=str(tmp_path / "j"))
        with ServiceRunner(cfg) as runner:
            assert runner.wait_ready(10)
            a = runner.submit(serve_payload(sino, idempotency_key="once"))
            b = runner.submit(serve_payload(sino, idempotency_key="once"))
            assert a.id == b.id

    def test_finished_job_survives_restart(self, op, geom, sino, tmp_path):
        jd = str(tmp_path / "j")
        pay = serve_payload(sino, idempotency_key="surv-1")
        with ServiceRunner(ServeConfig(workers=1, journal_dir=jd)) as runner:
            assert runner.wait_ready(10)
            job = runner.wait(runner.submit(pay).id, timeout=60)
            assert job.state == "done"
            jid, ref = job.id, job.result.copy()
        with ServiceRunner(ServeConfig(workers=1, journal_dir=jd)) as runner:
            assert runner.wait_ready(10)
            rec = runner.stats()["recovery"]
            assert rec["state"] == "done" and rec["restored"] == 1
            restored = runner.get_job(jid)
            assert restored is not None and restored.state == "done"
            assert np.array_equal(restored.result, ref)
            # the idempotency index survives the restart too
            assert runner.submit(pay).id == jid

    def test_queued_job_completes_after_restart_bitwise(
        self, op, geom, sino, tmp_path
    ):
        jd = str(tmp_path / "j")
        runner = ServiceRunner(
            ServeConfig(workers=1, journal_dir=jd)
        ).start(run_scheduler=False)
        assert runner.wait_ready(10)
        job = runner.submit(serve_payload(sino, iterations=7))
        jid = job.id
        runner.stop()
        # stop() failed it retryable; the journal still holds it pending
        assert job.state == "failed"
        assert job.error["error"] == "shutdown"
        assert job.error["retryable"] is True
        with ServiceRunner(ServeConfig(workers=1, journal_dir=jd)) as runner:
            assert runner.wait_ready(10)
            assert runner.stats()["recovery"]["restarted"] == 1
            job = runner.wait(jid, timeout=60)
            assert job.state == "done"
        direct = api.reconstruct(op, sino, solver="sirt", geom=geom,
                                 iterations=7)
        assert np.array_equal(job.result, direct.image)

    def test_drain_suspends_then_resumes_bitwise(
        self, op, geom, sino, tmp_path
    ):
        jd = str(tmp_path / "j")
        iters = 600
        cfg = ServeConfig(workers=1, journal_dir=jd, ckpt_every=2,
                          batch_window_s=0.0)
        runner = ServiceRunner(cfg).start()
        assert runner.wait_ready(10)
        job = runner.submit(serve_payload(sino, iterations=iters))
        jid = job.id
        deadline = time.monotonic() + 30.0
        while not job.progress and time.monotonic() < deadline:
            time.sleep(0.002)
        assert job.progress, "solve never started"
        summary = runner.drain(timeout=20.0)
        assert summary["drained"] and summary["clean"]
        assert summary["suspended"] == 1
        assert job.state == "queued"  # mid-flight, checkpointed, re-queued
        runner.stop()
        with ServiceRunner(ServeConfig(workers=1, journal_dir=jd)) as runner:
            assert runner.wait_ready(10)
            rec = runner.stats()["recovery"]
            assert rec["resumed"] == 1
            job = runner.wait(jid, timeout=120)
            assert job.state == "done"
            assert job.iterations == iters
        direct = api.reconstruct(op, sino, solver="sirt", geom=geom,
                                 iterations=iters)
        assert np.array_equal(job.result, direct.image)

    @pytest.mark.parametrize("order", ["sequential", "random"])
    def test_icd_job_drained_then_resumed_bitwise(
        self, op, geom, sino, tmp_path, order
    ):
        # ICD has no batch capability: its checkpoint is stored whole
        # (1-D x and r), not sliced per column
        jd = str(tmp_path / "j")
        params = {"iterations": 120, "order": order, "seed": 5}
        cfg = ServeConfig(workers=1, journal_dir=jd, ckpt_every=2,
                          batch_window_s=0.0)
        runner = ServiceRunner(cfg).start()
        assert runner.wait_ready(10)
        job = runner.submit(serve_payload(sino, solver="icd", params=params))
        jid = job.id
        assert not job.request.coalescible
        deadline = time.monotonic() + 30.0
        while not job.progress and time.monotonic() < deadline:
            time.sleep(0.002)
        assert job.progress, "solve never started"
        summary = runner.drain(timeout=20.0)
        assert summary["suspended"] == 1 and job.state == "queued"
        runner.stop()
        (path,) = (tmp_path / "j").rglob(f"{jid}.ckpt")
        saved = load_checkpoint(path)
        assert saved.solver == "icd"
        assert saved.arrays["x"].shape == (op.shape[1],)
        assert saved.arrays["r"].shape == (op.shape[0],)
        with ServiceRunner(ServeConfig(workers=1, journal_dir=jd)) as runner:
            assert runner.wait_ready(10)
            assert runner.stats()["recovery"]["resumed"] == 1
            job = runner.wait(jid, timeout=120)
            assert job.state == "done", job.error
            assert job.iterations == params["iterations"]
        direct = api.reconstruct(op, sino, solver="icd", **params)
        assert np.array_equal(job.result, direct.image)

    def test_unrecoverable_job_fails_structured(self, sino, tmp_path):
        jd = tmp_path / "j"
        runner = ServiceRunner(
            ServeConfig(workers=1, journal_dir=str(jd))
        ).start(run_scheduler=False)
        assert runner.wait_ready(10)
        jid = runner.submit(serve_payload(sino)).id
        runner.stop()
        for p in (jd / "payloads").glob("*.npy"):
            p.unlink()  # the sinogram payload is gone for good
        with ServiceRunner(ServeConfig(workers=1, journal_dir=str(jd))) as runner:
            assert runner.wait_ready(10)
            assert runner.stats()["recovery"]["failed"] == 1
            job = runner.get_job(jid)
            assert job is not None and job.state == "failed"
            assert job.error["error"] == "unrecoverable"
            assert job.error["retryable"] is True
        # compaction dropped it: the next boot doesn't retry it forever
        with ServiceRunner(ServeConfig(workers=1, journal_dir=str(jd))) as runner:
            assert runner.wait_ready(10)
            rec = runner.stats()["recovery"]
            assert rec["failed"] == 0
            assert runner.get_job(jid) is None


class TestDrainAndReadiness:
    def test_drain_rejects_submits_http_and_embedded(self, sino):
        import urllib.error
        import urllib.request

        from repro.serve import serve_http

        runner = ServiceRunner(ServeConfig(workers=1)).start()
        server = serve_http(runner)
        url = f"http://127.0.0.1:{server.port}"
        try:
            assert runner.ready
            with urllib.request.urlopen(url + "/readyz", timeout=10) as resp:
                assert resp.status == 200
            summary = runner.drain(timeout=5.0)
            assert summary["drained"] and summary["clean"]
            with pytest.raises(urllib.error.HTTPError) as ei:
                urllib.request.urlopen(url + "/readyz", timeout=10)
            assert ei.value.code == 503
            body = json.loads(ei.value.read())
            assert body["ready"] is False and body["draining"] is True
            req = urllib.request.Request(
                url + "/v1/reconstruct",
                data=json.dumps(serve_payload(sino)).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as ei:
                urllib.request.urlopen(req, timeout=10)
            assert ei.value.code == 503
            assert float(ei.value.headers["Retry-After"]) > 0
            body = json.loads(ei.value.read())
            assert body["error"] == "unavailable"
            assert body["reason"] == "draining"
            assert body["retryable"] is True
            with pytest.raises(ServiceUnavailableError):
                runner.submit(serve_payload(sino))
        finally:
            server.stop()
            runner.stop()


class TestChaosDurability:
    def test_journal_faults_degrade_not_fail(self, sino, tmp_path):
        from repro.obs import metrics as obs_metrics
        from repro.resilience import faults

        cfg = ServeConfig(workers=1, journal_dir=str(tmp_path / "j"),
                          batch_window_s=0.0)
        before = obs_metrics.counter(
            "serve.journal.errors",
            "journal persistence failures (service degraded)",
        ).value
        with faults.inject("journal.append:oserror:every=2"):
            with ServiceRunner(cfg) as runner:
                assert runner.wait_ready(10)
                job = runner.wait(
                    runner.submit(serve_payload(sino, iterations=4)).id,
                    timeout=60,
                )
                assert job.state == "done"
        after = obs_metrics.counter(
            "serve.journal.errors",
            "journal persistence failures (service degraded)",
        ).value
        assert after > before

    def test_ckpt_faults_do_not_break_the_solve(self, op, geom, sino, tmp_path):
        from repro.resilience import faults

        cfg = ServeConfig(workers=1, journal_dir=str(tmp_path / "j"),
                          ckpt_every=1, batch_window_s=0.0)
        with faults.inject("ckpt.store:enospc"):
            with ServiceRunner(cfg) as runner:
                assert runner.wait_ready(10)
                job = runner.wait(
                    runner.submit(serve_payload(sino, iterations=5)).id,
                    timeout=60,
                )
                assert job.state == "done"
        direct = api.reconstruct(op, sino, solver="sirt", geom=geom,
                                 iterations=5)
        assert np.array_equal(job.result, direct.image)


# --------------------------------------------------------------------- #
# kill -9 mid-iteration -> restart --recover -> bitwise completion


_CRASH_SCRIPT = """
import sys
import numpy as np
import repro
from repro.geometry import ParallelBeamGeometry
from repro.geometry.phantom import shepp_logan
from repro.serve import ServiceRunner
from repro.serve.service import ServeConfig
from repro.serve.jobs import encode_array

SIZE = 24
geom = ParallelBeamGeometry.for_image(SIZE)
op = repro.operator(geom)
truth = shepp_logan(SIZE).ravel().astype(op.dtype)
sino = op.forward(truth)
runner = ServiceRunner(ServeConfig(
    workers=1, journal_dir=sys.argv[1], ckpt_every=2, batch_window_s=0.0,
)).start()
assert runner.wait_ready(60)
job = runner.submit({
    "solver": "sirt",
    "params": {"iterations": 40},
    "geometry": {"size": SIZE},
    "sinogram": encode_array(sino),
})
runner.wait(job.id, timeout=120)
print("UNEXPECTED: completed without crashing", job.state)
sys.exit(3)
"""


class TestCrashRecovery:
    def test_kill9_restart_recover_bitwise(self, op, geom, sino, tmp_path):
        import subprocess
        import sys as _sys

        jd = str(tmp_path / "journal")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        # die (os._exit 137, as uncatchable as kill -9) at the 11th
        # solver iteration -- right after the k=9 checkpoint landed
        env["REPRO_FAULTS"] = "serve.crash:exit:after=10"
        proc = subprocess.run(
            [_sys.executable, "-c", _CRASH_SCRIPT, jd],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 137, (
            f"expected the injected crash (exit 137), got "
            f"{proc.returncode}\nstdout: {proc.stdout}\nstderr: {proc.stderr}"
        )
        with ServiceRunner(ServeConfig(workers=1, journal_dir=jd)) as runner:
            assert runner.wait_ready(30)
            rec = runner.stats()["recovery"]
            assert rec["clean_shutdown"] is False  # it really crashed
            assert rec["resumed"] == 1
            job = runner.wait("job-000001", timeout=120)
            assert job.state == "done"
            assert job.iterations == 40
            result = job.result.copy()
        direct = api.reconstruct(op, sino, solver="sirt", geom=geom,
                                 iterations=40)
        assert np.array_equal(result, direct.image)
