"""The batch-aggregating reconstruction service.

:class:`ServiceRunner` is the whole service: per-tenant FIFO queues
behind admission control, one scheduler thread that coalesces
key-compatible jobs into SpMM batches, and a pool of exactly ``workers``
threads running the solves (NumPy/C kernels release the GIL).  Every
public method is thread-safe, so the HTTP front-end
(:mod:`repro.serve.http`), the CLI and the tests call it directly.  One
``threading.Condition`` guards the queues, the job and idempotency maps
and the lifecycle flags.

Scheduling walk-through
-----------------------
1. ``submit`` validates the payload (:func:`~repro.serve.jobs.parse_job`),
   applies admission control (tenant queue depth), journals, enqueues
   and notifies.
2. The scheduler picks the next job **round-robin across tenants** so a
   saturating tenant cannot starve the others, then — if the job's solver
   is batch-capable and its parameters don't veto coalescing — waits one
   ``batch_window_s`` and drains up to ``max_batch - 1`` queued jobs with
   the **same batch key** (operator hash + solver + canonical params)
   from any tenant into the batch.
3. The scheduler waits for a free worker (``workers`` concurrent batches
   at most) and hands the batch to the pool: one operator (served by the
   persistent cache), the k sinograms stacked to an (m, k) array, one
   call to :func:`repro.api.reconstruct`.  Column-separable solver
   recurrences make every column bitwise-identical to its solo run.
4. The solver's :class:`~repro.recon.events.IterationEvent` stream feeds
   each job's progress log and enforces mid-run deadlines; a batch whose
   jobs have all expired aborts early.

``stop`` and ``drain`` wake both scheduler waits (the batch window and
the wait for a worker).  A batch the scheduler still holds then goes
back to the front of its tenant queues and fails with the other queued
jobs.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import Counter, OrderedDict, deque
from concurrent import futures
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ReproError, ValidationError
from repro.obs import metrics as obs_metrics
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobRequest,
    QueueFullError,
    ServiceUnavailableError,
    advance_job_ids,
    encode_array,
    new_job,
    parse_job,
    request_payload,
)

__all__ = ["ServeConfig", "ServiceRunner"]

#: Buckets sized for batch widths rather than durations.
_WIDTH_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0)


class _BatchAbort(Exception):
    """Internal: raised by the progress callback when no job is left alive."""


class _BatchSuspend(Exception):
    """Internal: raised by the progress callback after a forced drain
    checkpoint — the batch stops here, its jobs go back to ``queued`` (in
    the journal they have no finish record), and restart recovery resumes
    them from the checkpoint just persisted."""


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of the reconstruction service.

    Attributes
    ----------
    workers : int
        Concurrent solver batches (worker-pool bound).
    max_queue_depth : int
        Queued jobs allowed **per tenant**; submissions beyond raise
        :class:`~repro.serve.jobs.QueueFullError` (HTTP 429).
    max_batch : int
        Most jobs coalesced into one SpMM batch.
    batch_window_s : float
        How long the scheduler holds a coalescible job open for
        late-arriving key-mates (skipped when a full batch is already
        queued, or when 0).
    default_deadline_s : float or None
        Deadline applied to jobs that don't carry their own.
    cache : bool
        Consult the persistent operator cache (leave on; it is what
        makes operator reuse across batches and processes free).
    max_jobs_history : int
        Finished jobs retained for ``GET /v1/jobs/<id>`` before the
        oldest are dropped.
    journal_dir : str or None
        Directory of the durable job journal
        (:class:`~repro.serve.journal.JobJournal`).  ``None`` (default)
        disables journaling entirely — the embedded/test mode.  The
        ``repro serve`` CLI defaults it on (``REPRO_JOURNAL_DIR``).
    recover : bool
        Replay the journal on start and re-enqueue interrupted jobs
        (only meaningful with ``journal_dir`` set).
    ckpt_every : int or None
        Persist a solver checkpoint every N iterations for journaled
        jobs; ``None`` inherits ``REPRO_CKPT_EVERY``.
    drain_timeout_s : float
        How long :meth:`ServiceRunner.drain` waits for in-flight
        batches to finish or checkpoint before giving up on them.
    """

    workers: int = 2
    max_queue_depth: int = 16
    max_batch: int = 8
    batch_window_s: float = 0.01
    default_deadline_s: float | None = None
    cache: bool = True
    max_jobs_history: int = 4096
    journal_dir: str | None = None
    recover: bool = True
    ckpt_every: int | None = None
    drain_timeout_s: float = 30.0

    def __post_init__(self):
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        if self.max_queue_depth < 1:
            raise ValidationError("max_queue_depth must be >= 1")
        if self.max_batch < 1:
            raise ValidationError("max_batch must be >= 1")
        if self.batch_window_s < 0:
            raise ValidationError("batch_window_s must be >= 0")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ValidationError("default_deadline_s must be > 0")
        if self.max_jobs_history < 1:
            raise ValidationError("max_jobs_history must be >= 1")
        if self.ckpt_every is not None and self.ckpt_every < 1:
            raise ValidationError("ckpt_every must be >= 1")
        if self.drain_timeout_s <= 0:
            raise ValidationError("drain_timeout_s must be > 0")


class ServiceRunner:
    """The reconstruction service: queues, scheduler, coalescer, worker
    pool.  Thread-safe; synchronous callers use it directly::

        with ServiceRunner(ServeConfig(workers=4)) as runner:
            job = runner.submit(payload)           # may raise 400/429 errors
            job = runner.wait(job.id, timeout=60)
    """

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self._jobs: dict[str, Job] = {}
        #: per-state job counts and finished job ids in finish order, so
        #: stats() and _trim_history never walk the history
        self._states: Counter = Counter()
        self._finished: deque = deque()
        #: FIFOs of the tenants with queued jobs only: a tenant's deque
        #: and rotation slot go when its queue empties
        self._queues: "OrderedDict[str, deque]" = OrderedDict()
        self._rr: deque = deque()               # tenant rotation order
        #: guards the queues, _jobs, _states, _finished, _idem, _inflight
        #: and lifecycle flags
        self._cond = threading.Condition()
        self._pool: futures.ThreadPoolExecutor | None = None
        self._scheduler: threading.Thread | None = None
        self._boot: threading.Thread | None = None
        self._inflight: set = set()             # futures of solving batches
        self._batch_ids = itertools.count(1)
        self._stopping = False
        self._draining = False
        #: set during drain; worker threads poll it from the solver event
        #: callback to force-checkpoint and suspend in-flight batches
        self._drain_event = threading.Event()
        #: journaling is opt-in (None journal_dir = embedded/test mode)
        self.journal = None
        if self.config.journal_dir:
            from repro.serve.journal import JobJournal

            self.journal = JobJournal(self.config.journal_dir)
        #: idempotency_key -> job id of the canonical submission
        self._idem: dict[str, str] = {}
        #: readiness: false until start() (and recovery replay) completes
        self._ready = False
        #: what recovery found/did, surfaced in stats() and /healthz
        self.recovery: dict = {
            "state": (
                "pending"
                if (self.journal is not None and self.config.recover)
                else "disabled"
            )
        }

        m = obs_metrics
        self._m_submitted = m.counter("serve.jobs.submitted", "jobs admitted")
        self._m_rejected = m.counter("serve.jobs.rejected", "jobs rejected by admission control")
        self._m_completed = m.counter("serve.jobs.completed", "jobs finished successfully")
        self._m_failed = m.counter("serve.jobs.failed", "jobs finished in error")
        self._m_cancelled = m.counter("serve.jobs.cancelled", "jobs cancelled (deadline or shutdown)")
        self._m_deadline = m.counter("serve.jobs.deadline_expired", "jobs cancelled by their deadline")
        self._m_batches = m.counter("serve.batches", "solver batches dispatched")
        self._m_coalesce_hits = m.counter(
            "serve.coalesce.hits", "jobs that rode a shared batch beyond the seed"
        )
        self._m_batch_width = m.histogram(
            "serve.batch_width", "jobs per dispatched batch", buckets=_WIDTH_BUCKETS
        )
        self._m_queue_depth = m.gauge("serve.queue_depth", "jobs queued across all tenants")
        self._m_inflight = m.gauge("serve.inflight_batches", "batches currently solving")
        self._m_queue_wait = m.histogram("serve.queue_wait_seconds", "submit-to-start wait")
        self._m_latency = m.histogram("serve.latency_seconds", "submit-to-done job latency")
        self._m_solve = m.histogram("serve.solve_seconds", "wall time of one solver batch")
        self._m_idem_hits = m.counter(
            "serve.idempotent_hits", "submits deduplicated by idempotency key"
        )
        self._m_journal = m.counter("serve.journal.appends", "journal records persisted")
        self._m_journal_err = m.counter(
            "serve.journal.errors", "journal persistence failures (service degraded)"
        )
        self._m_ckpt = m.counter("serve.ckpt.stored", "per-job solver checkpoints persisted")
        self._m_ckpt_err = m.counter(
            "serve.ckpt.errors", "per-job checkpoint persistence failures"
        )
        self._m_suspended = m.counter(
            "serve.jobs.suspended", "in-flight jobs checkpointed and re-queued by drain"
        )
        self._m_rec = {mode: m.counter(f"serve.recovery.{mode}", doc) for mode, doc in (
            ("resumed", "jobs recovered mid-solve from a checkpoint"),
            ("restarted", "jobs recovered by restarting from scratch"),
            ("restored", "finished jobs restored to history from the journal"),
            ("failed", "journaled jobs that could not be recovered"),
        )}

    # ------------------------------------------------------------------ #
    # lifecycle

    def start(self, *, run_scheduler: bool = True) -> "ServiceRunner":
        """Create the worker pool and launch the scheduler thread (and,
        with a journal and ``recover``, the recovery boot thread).

        ``run_scheduler=False`` admits and queues jobs without ever
        dispatching them — the deterministic mode the admission-control
        tests use.
        """
        with self._cond:
            if self._pool is not None:
                return self
            self._pool = futures.ThreadPoolExecutor(
                self.config.workers, thread_name_prefix="repro-serve-worker"
            )
            self._stopping = self._draining = False
            self._drain_event.clear()
            # readiness stays false until the journal replay finishes;
            # submits in the meantime get 503 "recovering"
            recover = self.journal is not None and self.config.recover
            self._ready = not recover
            self._cond.notify_all()
        if recover:
            self._boot = self._spawn(self._recover, "repro-serve-recovery")
        if run_scheduler:
            self._scheduler = self._spawn(self._schedule_loop, "repro-serve-scheduler")
        return self

    @staticmethod
    def _spawn(target, name: str) -> threading.Thread:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        return thread

    def __enter__(self) -> "ServiceRunner":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def ready(self) -> bool:
        """Readiness (the ``/readyz`` answer): started, recovery replay
        done, and not draining.  Liveness is separate — a recovering or
        draining service is alive but not ready."""
        return (self._pool is not None and self._ready
                and not self._draining and not self._stopping)

    def wait_ready(self, timeout: float = 30.0) -> bool:
        """Block until the service is ready (recovery replay finished)."""
        with self._cond:
            return self._cond.wait_for(lambda: self.ready, timeout)

    def stop(self) -> None:
        """Stop the scheduler, wait for running batches, fail queued jobs.

        Queued jobs are failed **retryable** (``error: "shutdown"``) —
        with journaling on they carry no finish record, so a restart
        with recovery re-enqueues and completes them.
        """
        with self._cond:
            pool, self._pool = self._pool, None
            if pool is None:
                return
            self._stopping = True
            self._cond.notify_all()
        self._join_threads()
        pool.shutdown(wait=True)
        with self._cond:
            self._fail_queued_for_shutdown()
        if self.journal is not None:
            if not self._draining:  # drain already wrote the marker
                self._journal(lambda journal: journal.log_shutdown())
            self.journal.close()

    def _fail_queued_for_shutdown(self) -> int:
        """Fail every queued job retryable-at-shutdown (hold ``_cond``);
        returns how many.

        Deliberately NOT journaled as finished: with the journal on,
        these jobs stay pending in the log and restart recovery re-runs
        them — the structured error tells the client either outcome is
        safe to retry.
        """
        failed = 0
        for q in self._queues.values():
            while q:
                job = q.popleft()
                job.stop_reason = "shutdown"
                self._move(job, FAILED, error={
                    "error": "shutdown",
                    "message": "service shut down before the job ran; "
                               "safe to retry (or wait for restart "
                               "recovery when the journal is enabled)",
                    "retryable": True,
                })
                failed += 1
        self._queues.clear()
        self._rr.clear()
        self._gauge_depth()
        return failed

    def _join_threads(self) -> None:
        """Wait out the boot and scheduler threads once ``_stopping`` or
        ``_draining`` is raised; the scheduler requeues what it holds."""
        for thread in (self._boot, self._scheduler):
            if thread is not None:
                thread.join()
        self._boot = self._scheduler = None

    def drain(self, timeout: float | None = None) -> dict:
        """Graceful shutdown, phase one: stop admitting, settle in-flight.

        New submissions get 503 (``ServiceUnavailableError``) the moment
        this is called.  In-flight batches either finish inside
        *timeout* (default ``drain_timeout_s``) or — for checkpointable
        solves with journaling on — persist a forced checkpoint at their
        next iteration boundary and suspend; suspended jobs return to
        ``queued`` with no journal finish record, so restart recovery
        resumes them from the checkpoint.  Queued jobs fail retryable.
        A clean-shutdown marker is journaled when nothing was left
        hanging.  Returns a summary dict.
        """
        with self._cond:
            if self._pool is None:
                return {"drained": False}
            self._draining = True
            self._cond.notify_all()
        self._drain_event.set()
        self._join_threads()
        budget = self.config.drain_timeout_s if timeout is None else timeout
        with self._cond:
            inflight = list(self._inflight)
        _, pending = futures.wait(inflight, timeout=budget)
        abandoned = len(pending)  # still solving; we stop waiting
        with self._cond:
            suspended = sum(
                1 for j in self._jobs.values()
                if j.state == QUEUED and j.batch_id is not None
            )
            queued_failed = self._fail_queued_for_shutdown()
        clean = abandoned == 0
        if clean:
            self._journal(lambda journal: journal.log_shutdown())
        return {
            "drained": True,
            "clean": clean,
            "suspended": suspended,
            "abandoned": abandoned,
            "queued_failed": queued_failed,
        }

    # ------------------------------------------------------------------ #
    # submission & lookup

    def submit(self, payload) -> Job:
        """Validate, admit, journal and enqueue one job.

        Raises :class:`~repro.errors.ValidationError` on a bad payload,
        :class:`~repro.serve.jobs.QueueFullError` when the tenant's
        queue is at ``max_queue_depth`` and
        :class:`~repro.serve.jobs.ServiceUnavailableError` (HTTP 503)
        while the service is draining or still replaying its journal.
        A resubmission carrying an already-seen ``idempotency_key``
        returns the existing job instead of enqueueing a duplicate.
        """
        request = parse_job(
            payload, default_deadline_s=self.config.default_deadline_s
        )
        with self._cond:
            if self._stopping:
                raise ValidationError("service is shutting down; not accepting jobs")
            if self._pool is None:
                raise RuntimeError("ServiceRunner is not started")
            if self._draining:
                raise ServiceUnavailableError(reason="draining")
            if not self._ready:
                raise ServiceUnavailableError(reason="recovering", retry_after_s=1.0)
            key = request.idempotency_key
            if key is not None:
                existing = self._idem.get(key)
                if existing is not None and existing in self._jobs:
                    self._m_idem_hits.inc()
                    return self._jobs[existing]
            depth = len(self._queues.get(request.tenant, ()))
            if depth >= self.config.max_queue_depth:
                self._m_rejected.inc()
                raise QueueFullError(
                    request.tenant, depth, self.config.max_queue_depth
                )
            job = new_job(request)
            # write-ahead: the submit record is durable before the job
            # becomes runnable (holding the condition keeps the
            # idempotency check and the record append atomic)
            self._journal(lambda journal: journal.log_submit(
                job.id, request_payload(request),
                journal.spill_array(request.sinogram), key,
            ))
            if key is not None:
                self._idem[key] = job.id
            self._jobs[job.id] = job
            self._states[QUEUED] += 1
            self._trim_history()
            self._enqueue(job)
            self._m_submitted.inc()
            self._gauge_depth()
            self._cond.notify_all()
        return job

    def _enqueue(self, job: Job, *, front: bool = False) -> None:
        """Put *job* on its tenant's FIFO (hold ``_cond``)."""
        tenant = job.request.tenant
        q = self._queues.get(tenant)
        if q is None:
            q = self._queues[tenant] = deque()
            self._rr.append(tenant)
        if front:
            q.appendleft(job)
        else:
            q.append(job)

    def _journal(self, write) -> None:
        """Run ``write(journal)`` when journaling is on; a persistence
        failure degrades to a counted error, never a failed job."""
        if self.journal is None:
            return
        try:
            write(self.journal)
            self._m_journal.inc()
        except OSError:
            self._m_journal_err.inc()

    def _journal_finish(self, job: Job) -> None:
        """Durably record a terminal transition."""
        def write(journal):
            result_ref = None
            if job.state == DONE and job.result is not None:
                result_ref = journal.spill_array(job.result)
            journal.log_finish(
                job.id, job.state, error=job.error, result_ref=result_ref,
                iterations=job.iterations, stop_reason=job.stop_reason,
            )

        self._journal(write)

    def get_job(self, job_id: str) -> Job | None:
        """Look up a job by id (safe from any thread: plain dict read)."""
        return self._jobs.get(job_id)

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job reaches a terminal state (or timeout)."""
        job = self._jobs.get(job_id)
        if job is None:
            raise ValidationError(f"unknown job id {job_id!r}")
        job.done.wait(timeout)
        return job

    def stats(self) -> dict:
        """Queue/lifecycle counts for ``/healthz`` and the CLI."""
        with self._cond:
            tenants = {t: len(q) for t, q in self._queues.items()}
            states = {state: n for state, n in self._states.items() if n}
            ready, draining = self.ready, self._draining
        return {
            "tenants": tenants,
            "queued_total": sum(tenants.values()),
            "jobs": states,
            "workers": self.config.workers,
            "max_queue_depth": self.config.max_queue_depth,
            "max_batch": self.config.max_batch,
            "ready": ready,
            "draining": draining,
            "journal": {
                "enabled": self.journal is not None,
                "dir": self.config.journal_dir,
            },
            "recovery": dict(self.recovery),
        }

    # ------------------------------------------------------------------ #
    # restart recovery

    def _recover(self) -> None:
        """Replay the journal and recover interrupted jobs (boot thread).

        Readiness stays false until this finishes; submissions meanwhile
        get 503 "recovering".  A recovery failure degrades — the service
        comes up empty rather than refusing to boot.
        """
        rec = self.recovery
        rec["state"] = "replaying"
        try:
            jobs, idem, to_enqueue = self._replay_journal()
        except Exception as exc:  # degraded boot beats no boot
            rec["state"] = "error"
            rec["error"] = f"{type(exc).__name__}: {exc}"
            jobs, idem, to_enqueue = {}, {}, []
        else:
            rec["state"] = "done"
        with self._cond:
            self._idem.update(idem)
            self._jobs.update(jobs)
            self._states.update(job.state for job in jobs.values())
            self._finished.extend(jid for jid, job in jobs.items()
                                  if job.state in TERMINAL_STATES)
            self._trim_history()
            for job in to_enqueue:
                self._enqueue(job)
            self._ready = True
            self._gauge_depth()
            self._cond.notify_all()

    def _replay_journal(self) -> tuple:
        """Blocking half of recovery: replay, restore finished jobs to
        history, rebuild interrupted ones, compact.

        Returns ``(jobs, idempotency map, jobs to re-enqueue)`` for
        :meth:`_recover` to install.  Re-enqueued jobs are NOT
        re-journaled: :meth:`JobJournal.compact` atomically rewrites the
        log with their submit records, so there is no crash window.
        """
        journal = self.journal
        rec = self.recovery
        replay = journal.replay()
        advance_job_ids(replay.max_job_num)
        rec.update(
            records=replay.records,
            dropped=replay.dropped,
            duplicates=replay.duplicates,
            clean_shutdown=replay.clean_shutdown,
        )
        jobs: dict[str, Job] = {}
        idem: dict[str, str] = {}
        to_enqueue: list = []
        modes = Counter({mode: 0 for mode in self._m_rec})
        for rj in replay.jobs.values():
            if rj.idempotency_key:
                idem[rj.idempotency_key] = rj.job_id
            if rj.live:
                job, mode = self._rebuild_live(rj)
            else:
                job, mode = self._restore_finished(rj), "restored"
                if job is None:
                    continue
            jobs[rj.job_id] = job
            modes[mode] += 1
            self._m_rec[mode].inc()
            if mode == "failed":
                # drop it from the compacted journal — re-running on
                # every boot would fail identically forever
                rj.state = "failed"
                self._m_failed.inc()
            elif mode != "restored":
                to_enqueue.append(job)
        rec.update(modes)
        try:
            rec["compacted"] = journal.compact(replay)
        except OSError:
            self._m_journal_err.inc()
        return jobs, idem, to_enqueue

    def _replayed_job(self, rj, *, finished: bool) -> Job:
        """Rebuild a journaled job from its submit payload and spilled
        sinogram; raises when either is gone or no longer parses."""
        payload = dict(rj.payload)
        payload["sinogram"] = encode_array(self.journal.load_array(rj.sinogram_ref))
        if finished:
            payload.pop("deadline_s", None)  # already ran; no new clock
        job = new_job(parse_job(payload), job_id=rj.job_id)
        job.submitted_at = rj.submitted_at
        return job

    def _restore_finished(self, rj) -> Job | None:
        """Rebuild a terminal job from the journal for the history map
        (``GET /v1/jobs/<id>`` keeps answering across one restart)."""
        try:
            job = self._replayed_job(rj, finished=True)
        except Exception:
            return None  # unreadable history entry: drop, don't brick boot
        job.state = rj.state
        job.error = rj.error
        job.iterations = rj.iterations
        job.stop_reason = rj.stop_reason
        if rj.result_ref:
            try:
                job.result = self.journal.load_array(rj.result_ref)
            except (OSError, ValueError):
                pass  # the history entry survives without its image
        job.done.set()
        return job

    def _rebuild_live(self, rj) -> tuple:
        """Rebuild one interrupted job.

        Returns ``(job, mode)`` with mode one of ``"resumed"`` (a valid
        checkpoint continues the solve bitwise), ``"restarted"`` (no or
        unusable checkpoint: from scratch) or ``"failed"``
        (unrecoverable: payload gone/unparseable — the job is failed
        with a structured, retryable reason).
        """
        from repro.errors import FormatError
        from repro.recon.checkpoint import load_checkpoint, solver_params_hash

        try:
            job = self._replayed_job(rj, finished=False)
        except Exception as exc:
            job = Job(id=rj.job_id, request=self._dead_request(rj))
            job.submitted_at = rj.submitted_at
            job.stop_reason = "unrecoverable"
            job.finish(FAILED, error={
                "error": "unrecoverable",
                "message": "restart recovery could not rebuild the job "
                           f"({type(exc).__name__}: {exc}); "
                           "resubmit to retry",
                "retryable": True,
            })
            return job, "failed"
        request = job.request
        try:
            state = load_checkpoint(self.journal.checkpoint_path(rj.job_id))
            expected = solver_params_hash(request.solver, request.params)
            if state.params_hash and state.params_hash != expected:
                raise FormatError("checkpoint parameterisation mismatch")
        except (OSError, FormatError):
            # never checkpointed, or a corrupt or mismatched checkpoint
            return job, "restarted"
        request.resume_from = state
        # resuming mid-recurrence cannot join a fresh batch bitwise
        request.coalescible = False
        request.no_batch_reason = "resumed from checkpoint"
        return job, "resumed"

    def _dead_request(self, rj):
        """Degenerate request for an unrecoverable job's tombstone."""
        payload = rj.payload if isinstance(rj.payload, dict) else {}
        return JobRequest(
            tenant=str(payload.get("tenant") or "default"),
            solver=str(payload.get("solver") or "unknown"),
            params=dict(payload.get("params") or {}),
            geom=None,
            fmt=str(payload.get("fmt") or "cscv-z"),
            projector=str(payload.get("projector") or "strip"),
            dtype=np.dtype("float32"),
            sinogram=np.zeros(0, dtype=np.float32),
            deadline_s=None,
            operator_key="",
            batch_key="",
            coalescible=False,
            no_batch_reason="unrecoverable",
            idempotency_key=rj.idempotency_key,
        )

    # ------------------------------------------------------------------ #
    # scheduling (the scheduler thread)

    def _halted(self) -> bool:
        return self._stopping or self._draining

    def _schedule_loop(self) -> None:
        cfg = self.config
        with self._cond:
            while True:
                self._cond.wait_for(lambda: self._halted() or self._queues)
                if self._halted():
                    return
                seed = self._pop_next()
                if seed is None:
                    continue
                batch = [seed]
                want_mates = seed.request.coalescible and cfg.max_batch > 1
                if (want_mates and cfg.batch_window_s > 0
                        and self._count_matching(seed) < cfg.max_batch - 1):
                    # hold the seed open for late-arriving key-mates
                    self._cond.wait_for(self._halted, timeout=cfg.batch_window_s)
                if want_mates:
                    batch.extend(self._take_matching(seed))
                self._cond.wait_for(
                    lambda: self._halted() or len(self._inflight) < cfg.workers
                )
                if self._halted():
                    # the held batch fails with the other queued jobs
                    for job in reversed(batch):
                        self._enqueue(job, front=True)
                    self._gauge_depth()
                    return
                future = self._pool.submit(self._execute_batch, batch)
                self._inflight.add(future)
                future.add_done_callback(functools.partial(self._settle, batch))

    def _settle(self, batch: list, future) -> None:
        """Done-callback of a batch future: free its worker slot, and
        fail what a worker bug left unfinished instead of stranding it."""
        exc = future.exception()
        if exc is not None:
            err = {"error": type(exc).__name__, "message": str(exc)}
            for job in batch:
                self._move(job, FAILED, error=err)
        with self._cond:
            self._inflight.discard(future)
            self._cond.notify_all()

    def _pop_next(self) -> Job | None:
        """Next queued job, round-robin over tenants (hold ``_cond``)."""
        now = time.monotonic()
        for _ in range(len(self._rr)):
            tenant = self._rr[0]
            self._rr.rotate(-1)
            q = self._queues[tenant]
            job = None
            while q and job is None:
                job = q.popleft()
                if job.expired(now):
                    self._expire(job)
                    job = None
            if not q:
                del self._queues[tenant]
                self._rr.pop()          # the slot just rotated to the back
            if job is not None:
                self._gauge_depth()
                return job
        self._gauge_depth()
        return None

    def _count_matching(self, seed: Job) -> int:
        key = seed.request.batch_key
        return sum(
            1
            for q in self._queues.values()
            for job in q
            if job.request.batch_key == key
        )

    def _take_matching(self, seed: Job) -> list:
        """Drain queued jobs sharing *seed*'s batch key (hold ``_cond``)."""
        mates: list = []
        limit = self.config.max_batch - 1
        key = seed.request.batch_key
        now = time.monotonic()
        for tenant, q in list(self._queues.items()):
            if len(mates) >= limit:
                break
            keep: deque = deque()
            while q:
                job = q.popleft()
                if job.expired(now):
                    self._expire(job)
                elif (len(mates) < limit
                        and job.request.coalescible
                        and job.request.batch_key == key):
                    mates.append(job)
                else:
                    keep.append(job)
            q.extend(keep)
            if not q:
                del self._queues[tenant]
                self._rr.remove(tenant)
        self._gauge_depth()
        return mates

    def _expire(self, job: Job) -> None:
        job.stop_reason = "deadline"
        self._move(job, CANCELLED, error={
            "error": "deadline_exceeded",
            "message": f"deadline of {job.request.deadline_s}s expired "
                       f"before the job finished",
        })
        self._m_deadline.inc()
        self._journal_finish(job)

    def _gauge_depth(self) -> None:
        self._m_queue_depth.set(sum(len(q) for q in self._queues.values()))

    # ------------------------------------------------------------------ #
    # execution (worker threads)

    def _execute_batch(self, batch: list) -> None:
        from repro import api

        now = time.monotonic()
        live = []
        for job in batch:
            if job.expired(now):
                self._expire(job)
            else:
                live.append(job)
        if not live:
            return

        width = len(live)
        batch_id = next(self._batch_ids)
        t_start = time.time()
        for job in live:
            self._move(job, RUNNING)
            job.started_at = t_start
            job.queue_wait_s = t_start - job.submitted_at
            job.batch_id = batch_id
            job.batch_width = width
            job.coalesced = width > 1
            self._m_queue_wait.observe(job.queue_wait_s)
        self._m_batches.inc()
        self._m_batch_width.observe(width)
        if width > 1:
            self._m_coalesce_hits.inc(width - 1)
        self._m_inflight.inc()

        from repro.recon.registry import get_solver
        from repro.resilience.faults import fire

        req = live[0].request
        spec = get_solver(req.solver)
        spec_iterative = spec.supports("iterative")

        for job in live:
            self._journal(lambda journal: journal.log_start(
                job.id, batch_id=job.batch_id, batch_width=job.batch_width
            ))

        # checkpoint every N iterations when the journal is on and the
        # solver can resume; a recovered job's prior iterations resumed
        # from `resume_from` shift the cadence phase, which is harmless
        ckpt_on = (
            self.journal is not None
            and spec_iterative
            and spec.supports("resume")
        )
        params_hash = ""
        ckpt_every = 1
        if ckpt_on:
            from repro import config as repro_config
            from repro.recon.checkpoint import solver_params_hash

            params_hash = solver_params_hash(req.solver, req.params)
            ckpt_every = self.config.ckpt_every or repro_config.runtime.ckpt_every

        def on_event(event):
            rec = {
                "k": event.k,
                "residual": event.norm,
                "meaning": event.meaning,
                "t": time.time(),
            }
            tick = time.monotonic()
            alive = 0
            for job in live:
                if job.state in TERMINAL_STATES:
                    continue
                if job.expired(tick):
                    self._expire(job)
                    continue
                job.progress.append(rec)
                job.iterations = event.k + 1
                alive += 1
            if alive == 0:
                raise _BatchAbort()
            if ckpt_on and event.state_provider is not None:
                draining = self._drain_event.is_set()
                if draining or (event.k + 1) % ckpt_every == 0:
                    self._store_batch_checkpoints(event, live, params_hash)
                # chaos: kill the process right after a checkpoint
                # boundary — exactly where a real crash hurts most
                if fire("serve.crash") == "exit":
                    os._exit(137)
                if draining:
                    raise _BatchSuspend()

        try:
            op = api.operator(
                req.geom,
                fmt=req.fmt,
                projector=req.projector,
                dtype=req.dtype,
                cache=self.config.cache,
            )
            if req.resume_from is not None:
                # recovered jobs run solo (resume vetoes coalescing); a
                # batch solver's checkpoint holds (n, 1) columns
                y = req.sinogram
            elif req.coalescible:
                # always a 2-D (m, k) stack — even k=1 — so a job's column
                # is bitwise-identical regardless of who it batched with
                y = np.stack([j.request.sinogram for j in live], axis=1)
            else:
                y = live[0].request.sinogram
            res = api.reconstruct(
                op,
                y,
                solver=req.solver,
                geom=req.geom,
                callback=on_event if spec_iterative else None,
                resume_from=req.resume_from,
                **req.params,
            )
        except _BatchAbort:
            pass  # every job already moved to a terminal state
        except _BatchSuspend:
            # drain checkpointed this batch: jobs go back to queued with
            # no journal finish record — restart recovery resumes them
            for job in live:
                if self._move(job, QUEUED):
                    job.stop_reason = "suspended"
                    self._m_suspended.inc()
        except ReproError as exc:
            err = {"error": type(exc).__name__, "message": str(exc)}
            for job in live:
                if self._move(job, FAILED, error=err):
                    self._journal_finish(job)
        else:
            image = res.image if res.image.ndim == 2 else res.image[:, None]
            wall = time.time() - t_start
            self._m_solve.observe(wall)
            for idx, job in enumerate(live):
                if job.state in TERMINAL_STATES:
                    continue  # expired mid-run; discard its column
                job.result = np.ascontiguousarray(image[:, idx])
                job.iterations = res.iterations
                job.stop_reason = res.stop_reason
                self._move(job, DONE)
                self._m_latency.observe(job.finished_at - job.submitted_at)
                self._journal_finish(job)
        finally:
            self._m_inflight.inc(-1)

    def _store_batch_checkpoints(self, event, live, params_hash) -> None:
        """Persist one per-job checkpoint for every non-terminal job of a
        batch: its column of a batched solver state, or the whole state
        of a solver without the ``batch`` capability (a solo job).

        Runs inside the solver callback (worker thread); persistence
        failures degrade — counted, never fatal to the solve.
        """
        from repro.recon.checkpoint import (
            CheckpointState,
            column_state,
            save_checkpoint,
        )

        state = CheckpointState(solver=event.solver, k=event.k,
                                params_hash=params_hash,
                                arrays=event.state_provider())
        batched = np.ndim(state.arrays["x"]) == 2
        for idx, job in enumerate(live):
            if job.state in TERMINAL_STATES:
                continue
            per = replace(column_state(state, idx) if batched else state,
                          residuals=tuple(p["residual"] for p in job.progress))
            try:
                save_checkpoint(per, self.journal.checkpoint_path(job.id))
                self._m_ckpt.inc()
            except OSError:
                self._m_ckpt_err.inc()

    def _move(self, job: Job, state: str, *, error: dict | None = None) -> bool:
        """Move a live *job* to *state*, keeping the per-state counts and
        the terminal-state counters; False, changing nothing, when it is
        already terminal."""
        with self._cond:
            old = job.state
            if old in TERMINAL_STATES:
                return False
            if state in TERMINAL_STATES:
                job.finish(state, error=error)
                self._finished.append(job.id)
                {DONE: self._m_completed, FAILED: self._m_failed,
                 CANCELLED: self._m_cancelled}[state].inc()
            else:
                job.state = state
            self._states[old] -= 1
            self._states[state] += 1
            return True

    def _trim_history(self) -> None:
        """Drop the earliest-finished jobs beyond ``max_jobs_history``
        (hold ``_cond``)."""
        while len(self._jobs) > self.config.max_jobs_history and self._finished:
            self._states[self._jobs.pop(self._finished.popleft()).state] -= 1
