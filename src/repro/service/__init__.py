"""Long-lived fixed-PSNR compression service over HTTP.

The workflow-facing layer the ROADMAP's "serves heavy traffic" north
star needs: ``fpzc serve`` turns the one-shot CLI pipeline into a
process that owns a warm worker pool + shared-memory arena
(:class:`repro.parallel.executor.Executor`) and accepts compression
jobs over a small HTTP/1.1 API:

========================  ============================================
``POST /v1/compress``     one field to a psnr/ratio/nrmse/mse target
``POST /v1/sweep``        a fields x targets fixed-PSNR sweep
``POST /v1/autotune``     a measured search to any objective target
``GET /v1/jobs/<id>``     status + achieved values (+ blob endpoints)
``DELETE /v1/jobs/<id>``  cooperative cancellation
``GET /healthz /readyz``  liveness / drain-aware readiness
``GET /metrics``          Prometheus text (``?format=json`` for JSON)
========================  ============================================

Admission control (bounded priority queue -> 429 + ``Retry-After``),
per-job deadlines, retries with backoff, dispatch two jobs deep per
pool worker, and ledger/drift/metrics integration all live in
:mod:`repro.service.app`; the stdlib-only HTTP parsing and the server
front door it shares with the cluster coordinator in
:mod:`repro.service.http`; the picklable job functions in
:mod:`repro.service.tasks`; a blocking client in
:mod:`repro.service.client`; and an in-process test harness in
:mod:`repro.service.testing`.  See ``docs/SERVICE.md``.
"""

from repro.service.app import CompressionService, ServiceConfig, run_service
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import Job, JobQueue, JobSpec

__all__ = [
    "CompressionService",
    "ServiceConfig",
    "run_service",
    "ServiceClient",
    "ServiceError",
    "Job",
    "JobQueue",
    "JobSpec",
]
