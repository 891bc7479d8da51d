"""Thread-level behaviour of the reconstruction service.

Covers what the scheduler thread, the worker pool and the shared
condition promise under shutdown and concurrency: a job the scheduler
holds when ``drain``/``stop`` arrives fails like any queued job,
``stats()`` is safe while submits create tenants, a journaled submit
never waits for a solver thread, and the HTTP layer answers a malformed
``Content-Length`` with a structured 400.
"""

import json
import os
import socket
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro import api
from repro.serve import ServeConfig, ServiceRunner, serve_http
from repro.errors import SolverError
from repro.serve.jobs import CANCELLED, DONE, FAILED, QUEUED, encode_array

SIZE = 8


@pytest.fixture(scope="module")
def sino():
    op = repro.operator(SIZE)
    rng = np.random.default_rng(3)
    return op.forward(rng.random(op.shape[1]).astype(op.dtype))


def payload(sino, *, tenant="default", params=None):
    return {
        "tenant": tenant,
        "solver": "sirt",
        "params": params if params is not None else {"iterations": 3},
        "geometry": {"size": SIZE},
        "sinogram": encode_array(sino),
    }


@pytest.fixture
def gated_solves(monkeypatch):
    """Hold every solve at its start until ``gate`` is set.

    Yields ``(gate, entered)``: ``entered`` counts solves that reached the
    gate.  The gate opens at teardown so no worker outlives the test.
    """
    gate = threading.Event()
    entered = []
    lock = threading.Lock()
    real = api.reconstruct

    def blocking(*args, **kwargs):
        with lock:
            entered.append(threading.current_thread().name)
        gate.wait(60.0)
        return real(*args, **kwargs)

    monkeypatch.setattr(api, "reconstruct", blocking)
    try:
        yield gate, entered
    finally:
        gate.set()


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def assert_failed_for_shutdown(job):
    assert job.done.is_set(), f"{job.id} left {job.state!r} with done unset"
    assert job.state == FAILED
    assert job.error["error"] == "shutdown"
    assert job.error["retryable"] is True


# --------------------------------------------------------------------- #
# shutdown while the scheduler holds a job


class TestShutdownWithHeldBatch:
    @pytest.mark.parametrize("shutdown", ["drain", "stop"])
    def test_job_waiting_for_a_worker(self, sino, gated_solves, shutdown):
        gate, entered = gated_solves
        config = ServeConfig(workers=1, max_batch=1, batch_window_s=0.0)
        runner = ServiceRunner(config).start()
        try:
            running = runner.submit(payload(sino, tenant="a"))
            assert wait_until(lambda: entered), "first solve never started"
            held = runner.submit(payload(sino, tenant="b"))
            # popped by the scheduler, which now waits for the one worker
            assert wait_until(lambda: runner.stats()["queued_total"] == 0)
            if shutdown == "drain":
                summary = runner.drain(timeout=0.2)
                assert summary["abandoned"] == 1
                assert summary["queued_failed"] == 1
            else:
                threading.Timer(0.2, gate.set).start()
                runner.stop()
            assert_failed_for_shutdown(held)
        finally:
            gate.set()
            runner.stop()
        assert runner.wait(running.id, timeout=30).state == DONE

    @pytest.mark.parametrize("shutdown", ["drain", "stop"])
    def test_seed_held_in_the_batch_window(self, sino, shutdown):
        config = ServeConfig(workers=1, max_batch=8, batch_window_s=5.0)
        runner = ServiceRunner(config).start()
        try:
            held = runner.submit(payload(sino))
            assert held.request.coalescible
            assert wait_until(lambda: runner.stats()["queued_total"] == 0)
            t0 = time.monotonic()
            if shutdown == "drain":
                summary = runner.drain(timeout=1.0)
                assert summary["clean"] is True
                assert summary["queued_failed"] == 1
            else:
                runner.stop()
            # the window wait is woken, not slept out
            assert time.monotonic() - t0 < 2.5
            assert_failed_for_shutdown(held)
        finally:
            runner.stop()


# --------------------------------------------------------------------- #
# concurrency of the public surface


def test_stats_is_safe_while_new_tenants_arrive(sino):
    runner = ServiceRunner(ServeConfig()).start(run_scheduler=False)
    body = payload(sino)
    done = threading.Event()
    errors = []

    def poll():
        while not done.is_set():
            try:
                runner.stats()
            except Exception as exc:  # noqa: BLE001 - any escape is the bug
                errors.append(repr(exc))

    pollers = [threading.Thread(target=poll) for _ in range(2)]
    for t in pollers:
        t.start()
    try:
        for i in range(3000):
            body["tenant"] = f"tenant-{i}"
            runner.submit(body)
    finally:
        done.set()
        for t in pollers:
            t.join(10.0)
        runner.stop()
    assert not errors, f"{len(errors)} stats() failures, first: {errors[0]}"
    assert runner.stats()["jobs"] == {FAILED: 3000}


def test_finished_tenants_leave_no_queue_behind(sino):
    """A tenant's FIFO and rotation slot go once its queue empties, both
    when the scheduler pops a job and when it takes coalesced mates."""
    config = ServeConfig(workers=1, max_batch=4, batch_window_s=0.01)
    with ServiceRunner(config) as runner:
        for rounds in range(2):  # a forgotten tenant can come back
            jobs = [runner.submit(payload(sino, tenant=f"tenant-{i}",
                                          params={"iterations": 1}))
                    for i in range(40)]
            for job in jobs:
                assert runner.wait(job.id, timeout=60).state == DONE
            with runner._cond:
                assert not runner._queues and not runner._rr
            stats = runner.stats()
            assert stats["tenants"] == {} and stats["queued_total"] == 0
        assert any(job.coalesced for job in jobs)


def recount(runner):
    """``(stats()["jobs"], a recount over the job history)``."""
    with runner._cond:
        counted = Counter(job.state for job in runner._jobs.values())
        return runner.stats()["jobs"], dict(counted)


def test_stats_counts_equal_a_recount_under_mixed_traffic(
    sino, tmp_path, monkeypatch
):
    """done, failed (solver error and worker bug), cancelled (queued and
    mid-run deadline), suspended by drain, failed at shutdown, recovered
    from the journal and trimmed past max_jobs_history: the per-state
    counts stats() keeps always equal a walk over the history."""
    real = api.reconstruct

    def faulty(op, y, *, solver, **kwargs):
        if solver == "cgls":
            raise SolverError("injected solver failure")
        if solver == "art":
            raise RuntimeError("injected worker bug")
        return real(op, y, solver=solver, **kwargs)

    monkeypatch.setattr(api, "reconstruct", faulty)
    jd = str(tmp_path / "journal")
    config = ServeConfig(workers=1, max_batch=1, batch_window_s=0.0,
                         journal_dir=jd, ckpt_every=1)
    runner = ServiceRunner(config).start()
    assert runner.wait_ready(10)
    try:
        for solver in ("sirt", "sirt", "cgls", "art"):
            body = payload(sino) | {"solver": solver}
            runner.wait(runner.submit(body).id, 30)
        slow = {"iterations": 10**6}
        aborted = runner.submit(payload(sino, params=slow) | {"deadline_s": 0.3})
        expired = runner.submit(payload(sino) | {"deadline_s": 0.05})
        assert runner.wait(expired.id, 30).state == CANCELLED
        assert runner.wait(aborted.id, 30).state == CANCELLED
        suspended = runner.submit(payload(sino, params=slow))
        assert wait_until(lambda: suspended.progress)
        shut = runner.submit(payload(sino, tenant="other"))
        stats, counted = recount(runner)
        assert stats == counted
        runner.drain(timeout=10.0)
        assert suspended.state == QUEUED
        assert shut.state == FAILED
        stats, counted = recount(runner)
        assert stats == counted
        assert stats == {DONE: 2, FAILED: 3, CANCELLED: 2, QUEUED: 1}
    finally:
        runner.stop()

    monkeypatch.setattr(api, "reconstruct", real)
    runner = ServiceRunner(replace(config, max_jobs_history=5)).start()
    try:
        assert runner.wait_ready(10)
        rec = runner.stats()["recovery"]
        assert rec["resumed"] == 1 and rec["restarted"] == 2
        stats, counted = recount(runner)
        assert stats == counted and sum(stats.values()) == 5
        # expire every job, so the resumed million-iteration solve is
        # cancelled at its next iteration instead of running on
        for job in list(runner._jobs.values()):
            job.deadline_at = 0.0
        for i in range(8):
            runner.wait(runner.submit(payload(sino, tenant=f"t{i}")).id, 30)
            stats, counted = recount(runner)
            assert stats == counted
            assert sum(stats.values()) <= 5
    finally:
        runner.stop()
    stats, counted = recount(runner)
    assert stats == counted


def test_every_job_runs_in_exactly_one_batch_under_preemption(sino):
    """More workers than cores, many tenants, short batch windows and a
    shortened switch interval: each job finishes once, in one batch whose
    recorded width matches the jobs that carry its id."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        config = ServeConfig(workers=(os.cpu_count() or 1) + 2, max_batch=4,
                             batch_window_s=0.001)
        with ServiceRunner(config) as runner:
            jobs = [
                runner.submit(payload(sino, tenant=f"t{i % 8}",
                                      params={"iterations": 2}))
                for i in range(48)
            ]
            for job in jobs:
                assert runner.wait(job.id, timeout=60).state == DONE
    finally:
        sys.setswitchinterval(interval)
    batches = {}
    for job in jobs:
        batches.setdefault(job.batch_id, []).append(job)
    for members in batches.values():
        assert {j.batch_width for j in members} == {len(members)}
    assert sum(len(m) for m in batches.values()) == len(jobs)


def submit_within(runner, body, timeout=1.0):
    box = {}

    def run():
        try:
            box["job"] = runner.submit(body)
        except Exception as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    start = time.monotonic()
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), (
        f"submit blocked for over {time.monotonic() - start:.2f}s"
    )
    if "error" in box:
        raise box["error"]
    return box["job"]


def test_journaled_submit_never_waits_for_a_solver_thread(
    sino, gated_solves, tmp_path
):
    """More workers than a default thread pool has threads, each held in
    a solve: every worker runs, and a journaled submit still returns at
    once."""
    gate, entered = gated_solves
    workers = (os.cpu_count() or 1) + 5
    config = ServeConfig(workers=workers, batch_window_s=0.0,
                         journal_dir=str(tmp_path / "journal"))
    solo = {"iterations": 2, "rtol": 0.5}  # rtol > 0 vetoes coalescing
    runner = ServiceRunner(config).start()
    try:
        assert runner.wait_ready(10)
        for i in range(workers):
            job = submit_within(runner, payload(sino, tenant=f"t{i}", params=solo))
            assert not job.request.coalescible
        assert wait_until(lambda: len(entered) == workers), (
            f"{len(entered)} of {workers} workers solving"
        )
        late = submit_within(runner, payload(sino, tenant="late", params=solo))
        assert late.state == "queued"
        gate.set()
        assert runner.wait(late.id, timeout=60).state == DONE
    finally:
        gate.set()
        runner.stop()


# --------------------------------------------------------------------- #
# HTTP framing


@pytest.mark.parametrize("length", ["abc", "1e3"])
def test_non_integer_content_length_is_400(length):
    runner = ServiceRunner(ServeConfig()).start(run_scheduler=False)
    server = serve_http(runner)
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as s:
            s.sendall(
                b"POST /v1/reconstruct HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n{}"
            )
            chunks = []
            while True:
                chunk = s.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        raw = b"".join(chunks)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1:2] == [b"400"], raw
        assert json.loads(body)["error"] == "validation"
    finally:
        server.stop()
        runner.stop()
