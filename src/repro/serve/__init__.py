"""repro.serve — the batch-aggregating reconstruction service.

The serving layer ties together everything the library already provides
for multi-tenant traffic: the persistent operator cache shares one
physical operator across processes, the batched SpMM drivers turn k
concurrent sinograms into one kernel pass, and the obs/resilience layers
supply metrics, tracing and watchdogs.  This package adds the piece in
between — a service that

* accepts reconstruction **jobs** (geometry + sinogram + solver
  parameters) per tenant, validated against the solver registry;
* computes each job's **operator-cache key** (the PR-3 content hash) and
  **coalesces** jobs sharing a key *and* a compatible parameterisation
  into one SpMM-backed solver batch whose columns are bitwise-identical
  to solo runs;
* applies **admission control** (per-tenant FIFO queues with a bounded
  depth and a structured 429-style reject) and round-robin **fairness**
  across tenants;
* enforces per-job **deadlines** and streams **progress** from the
  solvers' typed :class:`~repro.recon.events.IterationEvent` stream;
* exposes everything over a stdlib-only HTTP JSON API
  (``POST /v1/reconstruct``, ``GET /v1/jobs/<id>``,
  ``GET /v1/jobs/<id>/progress``) next to the existing ``/metrics`` and
  ``/healthz`` endpoints, plus a ``/readyz`` readiness probe;
* survives crashes: a durable write-ahead **job journal**
  (:class:`JobJournal`) plus periodic solver checkpoints let a
  ``kill -9``'d service restart, replay, and finish interrupted jobs
  **bitwise-identical** to never-interrupted runs; SIGTERM triggers a
  graceful **drain** (stop admitting, checkpoint in-flight work).

Entry points: ``repro serve`` (CLI) and :class:`ServiceRunner` (the
embedded, thread-safe service the HTTP layer and CLI drive).
"""

from repro.serve.jobs import (
    Job,
    JobRequest,
    QueueFullError,
    ServiceUnavailableError,
    parse_job,
)
from repro.serve.journal import JobJournal, JournalReplay
from repro.serve.service import ServeConfig, ServiceRunner
from repro.serve.http import serve_http

__all__ = [
    "Job",
    "JobJournal",
    "JobRequest",
    "JournalReplay",
    "QueueFullError",
    "ServiceUnavailableError",
    "parse_job",
    "ServeConfig",
    "ServiceRunner",
    "serve_http",
]
