"""The batch-aggregating reconstruction service.

:class:`ReconstructionService` is the pure-asyncio core: per-tenant FIFO
queues behind admission control, a round-robin scheduler that coalesces
key-compatible jobs into SpMM batches, and a bounded worker pool running
solves in threads (NumPy/C kernels release the GIL; the event loop stays
responsive).  :class:`ServiceRunner` wraps it for synchronous callers —
it owns a dedicated event-loop thread and bridges via
``run_coroutine_threadsafe`` — and is what the HTTP front-end
(:mod:`repro.serve.http`), the CLI and the tests use.

Scheduling walk-through
-----------------------
1. ``submit`` validates the payload (:func:`~repro.serve.jobs.parse_job`),
   applies admission control (tenant queue depth), enqueues and notifies.
2. The scheduler picks the next job **round-robin across tenants** so a
   saturating tenant cannot starve the others, then — if the job's solver
   is batch-capable and its parameters don't veto coalescing — waits one
   ``batch_window_s`` and drains up to ``max_batch - 1`` queued jobs with
   the **same batch key** (operator hash + solver + canonical params)
   from any tenant into the batch.
3. A worker slot is acquired (``workers`` concurrent batches at most) and
   the batch runs in a thread: one operator (served by the persistent
   cache), the k sinograms stacked to an (m, k) array, one call to
   :func:`repro.api.reconstruct`.  Column-separable solver recurrences
   make every column bitwise-identical to its solo run.
4. The solver's :class:`~repro.recon.events.IterationEvent` stream feeds
   each job's progress log and enforces mid-run deadlines; a batch whose
   jobs have all expired aborts early.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass

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

__all__ = ["ServeConfig", "ReconstructionService", "ServiceRunner"]

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
        How long :meth:`ReconstructionService.drain` waits for in-flight
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


class ReconstructionService:
    """Asyncio core: queues, scheduler, coalescer, worker pool.

    Use from inside a running event loop (``await service.start()``), or
    through :class:`ServiceRunner` from synchronous code.
    """

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self._jobs: dict[str, Job] = {}
        self._queues: "OrderedDict[str, deque]" = OrderedDict()
        self._rr: deque = deque()               # tenant rotation order
        self._cond: asyncio.Condition | None = None
        self._sem: asyncio.Semaphore | None = None
        self._scheduler: asyncio.Task | None = None
        self._inflight: set = set()
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
        self._recovery_task: asyncio.Task | None = None
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
        self._m_rec_resumed = m.counter(
            "serve.recovery.resumed", "jobs recovered mid-solve from a checkpoint"
        )
        self._m_rec_restarted = m.counter(
            "serve.recovery.restarted", "jobs recovered by restarting from scratch"
        )
        self._m_rec_restored = m.counter(
            "serve.recovery.restored", "finished jobs restored to history from the journal"
        )
        self._m_rec_failed = m.counter(
            "serve.recovery.failed", "journaled jobs that could not be recovered"
        )

    # ------------------------------------------------------------------ #
    # lifecycle

    async def start(self, *, run_scheduler: bool = True) -> None:
        """Create loop-bound primitives and launch the scheduler.

        ``run_scheduler=False`` admits and queues jobs without ever
        dispatching them — the deterministic mode the admission-control
        tests use.
        """
        if self._scheduler is not None or self._cond is not None:
            return
        self._cond = asyncio.Condition()
        self._sem = asyncio.Semaphore(self.config.workers)
        self._stopping = False
        self._draining = False
        self._drain_event.clear()
        if self.journal is not None and self.config.recover:
            # readiness stays false until the replay finishes; submits
            # in the meantime get 503 "recovering"
            self._recovery_task = asyncio.create_task(
                self._recover(), name="repro-serve-recovery"
            )
        else:
            self._ready = True
        if run_scheduler:
            self._scheduler = asyncio.create_task(
                self._schedule_loop(), name="repro-serve-scheduler"
            )

    @property
    def ready(self) -> bool:
        """Readiness (the ``/readyz`` answer): started, recovery replay
        done, and not draining.  Liveness is separate — a recovering or
        draining service is alive but not ready."""
        return self._ready and not self._draining and not self._stopping

    async def stop(self) -> None:
        """Cancel the scheduler, drain running batches, fail queued jobs.

        Queued jobs are failed **retryable** (``error: "shutdown"``) —
        with journaling on they carry no finish record, so a restart
        with recovery re-enqueues and completes them.
        """
        if self._cond is None:
            return
        self._stopping = True
        self._ready = False
        if self._recovery_task is not None:
            self._recovery_task.cancel()
            try:
                await self._recovery_task
            except asyncio.CancelledError:
                pass
            self._recovery_task = None
        if self._scheduler is not None:
            self._scheduler.cancel()
            try:
                await self._scheduler
            except asyncio.CancelledError:
                pass
            self._scheduler = None
        if self._inflight:
            await asyncio.gather(*self._inflight, return_exceptions=True)
        async with self._cond:
            self._fail_queued_for_shutdown()
        if self.journal is not None:
            try:
                if not self._draining:  # drain already wrote the marker
                    self.journal.log_shutdown()
                    self._m_journal.inc()
            except OSError:
                self._m_journal_err.inc()
            self.journal.close()

    def _fail_queued_for_shutdown(self) -> None:
        """Fail every queued job retryable-at-shutdown (hold ``_cond``).

        Deliberately NOT journaled as finished: with the journal on,
        these jobs stay pending in the log and restart recovery re-runs
        them — the structured error tells the client either outcome is
        safe to retry.
        """
        for q in self._queues.values():
            while q:
                job = q.popleft()
                job.stop_reason = "shutdown"
                job.finish(FAILED, error={
                    "error": "shutdown",
                    "message": "service shut down before the job ran; "
                               "safe to retry (or wait for restart "
                               "recovery when the journal is enabled)",
                    "retryable": True,
                })
                self._m_failed.inc()
        self._gauge_depth()

    async def drain(self, timeout: float | None = None) -> dict:
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
        if self._cond is None:
            return {"drained": False}
        budget = self.config.drain_timeout_s if timeout is None else timeout
        self._draining = True
        self._ready = False
        self._drain_event.set()
        if self._recovery_task is not None:
            self._recovery_task.cancel()
            try:
                await self._recovery_task
            except asyncio.CancelledError:
                pass
            self._recovery_task = None
        if self._scheduler is not None:
            self._scheduler.cancel()
            try:
                await self._scheduler
            except asyncio.CancelledError:
                pass
            self._scheduler = None
        abandoned = 0
        if self._inflight:
            done, pending = await asyncio.wait(
                list(self._inflight), timeout=budget
            )
            abandoned = len(pending)  # still solving; we stop waiting
        suspended = sum(
            1 for j in self._jobs.values()
            if j.state == QUEUED and j.batch_id is not None
        )
        async with self._cond:
            queued_failed = sum(len(q) for q in self._queues.values())
            self._fail_queued_for_shutdown()
        clean = abandoned == 0
        if self.journal is not None and clean:
            try:
                self.journal.log_shutdown()
                self._m_journal.inc()
            except OSError:
                self._m_journal_err.inc()
        return {
            "drained": True,
            "clean": clean,
            "suspended": suspended,
            "abandoned": abandoned,
            "queued_failed": queued_failed,
        }

    # ------------------------------------------------------------------ #
    # submission & lookup

    async def submit(self, payload) -> Job:
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
        async with self._cond:
            if self._stopping:
                raise ValidationError("service is shutting down; not accepting jobs")
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
            q = self._queues.get(request.tenant)
            if q is None:
                q = self._queues[request.tenant] = deque()
                self._rr.append(request.tenant)
            if len(q) >= self.config.max_queue_depth:
                self._m_rejected.inc()
                raise QueueFullError(
                    request.tenant, len(q), self.config.max_queue_depth
                )
            job = new_job(request)
            if self.journal is not None:
                # write-ahead: the submit record is durable before the
                # job becomes runnable (holding the condition keeps the
                # idempotency check and the record append atomic)
                await asyncio.to_thread(self._journal_submit, job)
            if key is not None:
                self._idem[key] = job.id
            self._jobs[job.id] = job
            self._trim_history()
            q.append(job)
            self._m_submitted.inc()
            self._gauge_depth()
            self._cond.notify_all()
        return job

    def _journal_submit(self, job: Job) -> None:
        """Durably record a submit (degrades on journal failure)."""
        try:
            ref = self.journal.spill_array(job.request.sinogram)
            self.journal.log_submit(
                job.id, request_payload(job.request), ref,
                job.request.idempotency_key,
            )
            self._m_journal.inc()
        except OSError:
            self._m_journal_err.inc()

    def _journal_start(self, job: Job) -> None:
        try:
            self.journal.log_start(
                job.id, batch_id=job.batch_id, batch_width=job.batch_width
            )
            self._m_journal.inc()
        except OSError:
            self._m_journal_err.inc()

    def _journal_finish(self, job: Job) -> None:
        """Durably record a terminal transition (degrades on failure)."""
        try:
            result_ref = None
            if job.state == DONE and job.result is not None:
                result_ref = self.journal.spill_array(job.result)
            self.journal.log_finish(
                job.id, job.state, error=job.error, result_ref=result_ref,
                iterations=job.iterations, stop_reason=job.stop_reason,
            )
            self._m_journal.inc()
        except OSError:
            self._m_journal_err.inc()

    def get_job(self, job_id: str) -> Job | None:
        """Look up a job by id (safe from any thread: plain dict read)."""
        return self._jobs.get(job_id)

    def stats(self) -> dict:
        """Queue/lifecycle counts for ``/healthz`` and the CLI."""
        states: dict[str, int] = {}
        for job in list(self._jobs.values()):
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "tenants": {t: len(q) for t, q in self._queues.items()},
            "queued_total": sum(len(q) for q in self._queues.values()),
            "jobs": states,
            "workers": self.config.workers,
            "max_queue_depth": self.config.max_queue_depth,
            "max_batch": self.config.max_batch,
            "ready": self.ready,
            "draining": self._draining,
            "journal": {
                "enabled": self.journal is not None,
                "dir": self.config.journal_dir,
            },
            "recovery": dict(self.recovery),
        }

    # ------------------------------------------------------------------ #
    # restart recovery

    async def _recover(self) -> None:
        """Replay the journal and recover interrupted jobs (boot task).

        Readiness stays false until this finishes; submissions meanwhile
        get 503 "recovering".  A recovery failure degrades — the service
        comes up empty rather than refusing to boot.
        """
        rec = self.recovery
        rec["state"] = "replaying"
        try:
            to_enqueue = await asyncio.to_thread(self._recover_sync)
        except asyncio.CancelledError:
            rec["state"] = "cancelled"
            raise
        except Exception as exc:  # degraded boot beats no boot
            rec["state"] = "error"
            rec["error"] = f"{type(exc).__name__}: {exc}"
            self._ready = True
            return
        rec["state"] = "done"
        async with self._cond:
            for job in to_enqueue:
                q = self._queues.get(job.request.tenant)
                if q is None:
                    q = self._queues[job.request.tenant] = deque()
                    self._rr.append(job.request.tenant)
                q.append(job)
            self._ready = True
            self._gauge_depth()
            self._cond.notify_all()

    def _recover_sync(self) -> list:
        """Blocking half of recovery (runs in a thread): replay, restore
        finished jobs to history, rebuild interrupted ones, compact.

        Returns the jobs to re-enqueue.  Re-enqueued jobs are NOT
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
        to_enqueue: list = []
        restored = resumed = restarted = failed = 0
        for rj in replay.jobs.values():
            if rj.idempotency_key:
                self._idem[rj.idempotency_key] = rj.job_id
            if not rj.live:
                job = self._restore_finished(rj)
                if job is not None:
                    self._jobs[rj.job_id] = job
                    restored += 1
                    self._m_rec_restored.inc()
                continue
            job, mode = self._rebuild_live(rj)
            self._jobs[rj.job_id] = job
            if mode == "failed":
                # drop it from the compacted journal — re-running on
                # every boot would fail identically forever
                rj.state = "failed"
                failed += 1
                self._m_rec_failed.inc()
                self._m_failed.inc()
            else:
                to_enqueue.append(job)
                if mode == "resumed":
                    resumed += 1
                    self._m_rec_resumed.inc()
                else:
                    restarted += 1
                    self._m_rec_restarted.inc()
        rec.update(
            restored=restored, resumed=resumed,
            restarted=restarted, failed=failed,
        )
        try:
            rec["compacted"] = journal.compact(replay)
        except OSError:
            self._m_journal_err.inc()
        self._trim_history()
        return to_enqueue

    def _restore_finished(self, rj) -> Job | None:
        """Rebuild a terminal job from the journal for the history map
        (``GET /v1/jobs/<id>`` keeps answering across one restart)."""
        try:
            sino = self.journal.load_array(rj.sinogram_ref)
            payload = dict(rj.payload)
            payload["sinogram"] = encode_array(sino)
            payload.pop("deadline_s", None)  # already ran; no new clock
            request = parse_job(payload)
            job = new_job(request, job_id=rj.job_id)
            job.submitted_at = rj.submitted_at
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
        except Exception:
            return None  # unreadable history entry: drop, don't brick boot

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
            sino = self.journal.load_array(rj.sinogram_ref)
            payload = dict(rj.payload)
            payload["sinogram"] = encode_array(sino)
            request = parse_job(payload)
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
        mode = "restarted"
        try:
            state = load_checkpoint(self.journal.checkpoint_path(rj.job_id))
            expected = solver_params_hash(request.solver, request.params)
            if state.params_hash and state.params_hash != expected:
                raise FormatError("checkpoint parameterisation mismatch")
            request.resume_from = state
            # resuming mid-recurrence cannot join a fresh batch bitwise
            request.coalescible = False
            request.no_batch_reason = "resumed from checkpoint"
            mode = "resumed"
        except FileNotFoundError:
            pass  # never checkpointed: restart from scratch
        except (OSError, FormatError):
            pass  # corrupt or mismatched checkpoint: restart from scratch
        job = new_job(request, job_id=rj.job_id)
        job.submitted_at = rj.submitted_at
        return job, mode

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
    # scheduling

    async def _schedule_loop(self) -> None:
        cfg = self.config
        while True:
            async with self._cond:
                while not any(self._queues.values()):
                    await self._cond.wait()
                seed = self._pop_next()
                if seed is not None and seed.request.coalescible:
                    ready = self._count_matching(seed)
                else:
                    ready = 0
            if seed is None:
                continue
            want_mates = seed.request.coalescible and cfg.max_batch > 1
            if (want_mates and cfg.batch_window_s > 0
                    and ready < cfg.max_batch - 1):
                # hold the seed open for late-arriving key-mates
                await asyncio.sleep(cfg.batch_window_s)
            batch = [seed]
            if want_mates:
                async with self._cond:
                    batch.extend(self._take_matching(seed))
            await self._sem.acquire()
            task = asyncio.create_task(self._dispatch(batch))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    def _pop_next(self) -> Job | None:
        """Next queued job, round-robin over tenants (hold ``_cond``)."""
        now = time.monotonic()
        for _ in range(len(self._rr)):
            tenant = self._rr[0]
            self._rr.rotate(-1)
            q = self._queues.get(tenant)
            while q:
                job = q.popleft()
                if job.expired(now):
                    self._expire(job)
                    continue
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
        for q in self._queues.values():
            if not q or len(mates) >= limit:
                continue
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
        self._gauge_depth()
        return mates

    def _expire(self, job: Job) -> None:
        job.stop_reason = "deadline"
        job.finish(CANCELLED, error={
            "error": "deadline_exceeded",
            "message": f"deadline of {job.request.deadline_s}s expired "
                       f"before the job finished",
        })
        self._m_cancelled.inc()
        self._m_deadline.inc()
        if self.journal is not None:
            self._journal_finish(job)

    def _gauge_depth(self) -> None:
        self._m_queue_depth.set(sum(len(q) for q in self._queues.values()))

    # ------------------------------------------------------------------ #
    # execution (worker threads)

    async def _dispatch(self, batch: list) -> None:
        try:
            await asyncio.to_thread(self._execute_batch, batch)
        except Exception as exc:  # defense: a worker bug must not kill the loop
            err = {"error": type(exc).__name__, "message": str(exc)}
            for job in batch:
                if job.state not in TERMINAL_STATES:
                    job.finish(FAILED, error=err)
                    self._m_failed.inc()
        finally:
            self._sem.release()

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
            job.state = RUNNING
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

        if self.journal is not None:
            for job in live:
                self._journal_start(job)

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
                # recovered jobs run solo (resume vetoes coalescing);
                # column arrays in the checkpoint are (n, 1)
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
                if job.state in TERMINAL_STATES:
                    continue
                job.state = QUEUED
                job.stop_reason = "suspended"
                self._m_suspended.inc()
        except ReproError as exc:
            err = {"error": type(exc).__name__, "message": str(exc)}
            for job in live:
                if job.state not in TERMINAL_STATES:
                    job.finish(FAILED, error=err)
                    self._m_failed.inc()
                    if self.journal is not None:
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
                job.finish(DONE)
                self._m_completed.inc()
                self._m_latency.observe(job.finished_at - job.submitted_at)
                if self.journal is not None:
                    self._journal_finish(job)
        finally:
            self._m_inflight.inc(-1)

    def _store_batch_checkpoints(self, event, live, params_hash) -> None:
        """Persist one per-job checkpoint for every non-terminal job of a
        batch, sliced out of the (possibly batched) solver state.

        Runs inside the solver callback (worker thread); persistence
        failures degrade — counted, never fatal to the solve.
        """
        from repro.recon.checkpoint import (
            CheckpointState,
            column_state,
            save_checkpoint,
        )

        state = CheckpointState(
            solver=event.solver,
            k=event.k,
            params_hash=params_hash,
            arrays=event.state_provider(),
            residuals=(),
        )
        for idx, job in enumerate(live):
            if job.state in TERMINAL_STATES:
                continue
            per = column_state(state, idx)
            per = CheckpointState(
                solver=per.solver, k=per.k, params_hash=per.params_hash,
                arrays=per.arrays,
                residuals=tuple(p["residual"] for p in job.progress),
            )
            try:
                save_checkpoint(per, self.journal.checkpoint_path(job.id))
                self._m_ckpt.inc()
            except OSError:
                self._m_ckpt_err.inc()

    def _trim_history(self) -> None:
        """Drop the oldest finished jobs beyond ``max_jobs_history``."""
        excess = len(self._jobs) - self.config.max_jobs_history
        if excess <= 0:
            return
        for jid in [
            jid for jid, j in self._jobs.items() if j.state in TERMINAL_STATES
        ][:excess]:
            del self._jobs[jid]


class ServiceRunner:
    """Thread-safe front door: owns an event-loop thread for the service.

    Synchronous callers (HTTP handler threads, the CLI, tests) talk to
    the asyncio service through ``run_coroutine_threadsafe``::

        with ServiceRunner(ServeConfig(workers=4)) as runner:
            job = runner.submit(payload)           # may raise 400/429 errors
            job = runner.wait(job.id, timeout=60)
    """

    def __init__(self, config: ServeConfig | None = None):
        self.service = ReconstructionService(config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    @property
    def config(self) -> ServeConfig:
        return self.service.config

    def start(self, *, run_scheduler: bool = True) -> "ServiceRunner":
        if self._loop is not None:
            return self
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()

        def run():
            asyncio.set_event_loop(self._loop)
            self._loop.call_soon(ready.set)
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        ready.wait(timeout=10.0)
        self._call(self.service.start(run_scheduler=run_scheduler))
        return self

    def _call(self, coro, timeout: float = 60.0):
        if self._loop is None:
            raise RuntimeError("ServiceRunner is not started")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    def submit(self, payload) -> Job:
        """Thread-safe :meth:`ReconstructionService.submit`."""
        return self._call(self.service.submit(payload))

    def get_job(self, job_id: str) -> Job | None:
        return self.service.get_job(job_id)

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job reaches a terminal state (or timeout)."""
        job = self.service.get_job(job_id)
        if job is None:
            raise ValidationError(f"unknown job id {job_id!r}")
        job.done.wait(timeout)
        return job

    def stats(self) -> dict:
        return self.service.stats()

    @property
    def ready(self) -> bool:
        """Readiness of the underlying service (``/readyz``)."""
        return self._loop is not None and self.service.ready

    def wait_ready(self, timeout: float = 30.0) -> bool:
        """Block until the service is ready (recovery replay finished)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.ready:
                return True
            time.sleep(0.02)
        return self.ready

    def drain(self, timeout: float | None = None) -> dict:
        """Thread-safe :meth:`ReconstructionService.drain`."""
        budget = self.config.drain_timeout_s if timeout is None else timeout
        return self._call(self.service.drain(timeout), timeout=budget + 30.0)

    def stop(self) -> None:
        if self._loop is None:
            return
        try:
            self._call(self.service.stop(), timeout=120.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            self._loop.close()
            self._loop = None
            self._thread = None

    def __enter__(self) -> "ServiceRunner":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
