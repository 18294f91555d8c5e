"""The compression service: asyncio server + dispatcher + ops surface.

Architecture (one process, one event loop)::

    clients --- HTTP/1.1 ---> HttpServer ---> JobQueue (bounded, priority)
                                |                |
            /healthz /readyz /metrics      dispatcher loops (2 per worker)
                                                 |
                                          Executor (warm pool + arena)
                                                 |
                                     ledger + drift + service.* metrics

Requests are parsed by the front door in :mod:`repro.service.http`,
validated into :class:`~repro.service.jobs.JobSpec`\\ s and
**admitted** through the bounded queue -- a full queue answers ``429``
with a ``Retry-After`` hint instead of queueing unbounded work.
``DISPATCH_PER_WORKER`` dispatcher coroutines per pool worker pull
jobs in priority order and hand each to the pool as soon as it leaves
the queue.

Every terminal job updates the ``service.*`` metrics; successful runs
append a schema-3 ledger record with the same ``extra["conformance"]``
payload CLI runs write, so ``fpzc drift`` charts service traffic with
no special casing.  ``SIGTERM``/``SIGINT`` trigger a **drain**: the
readiness probe and admissions flip to 503 immediately, queued and
in-flight jobs get ``grace_s`` seconds to finish, then the process
exits 0.

The pool itself is a long-lived
:class:`repro.parallel.executor.Executor`, created with the ``spawn``
start method, because a serving process is multi-threaded by the time
it forks and forking such a process is unsafe.
"""

from __future__ import annotations

import asyncio
import base64
import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import repro.observe as observe
from repro.errors import ParameterError
from repro.service.http import (
    KEEP_JOBS,
    HttpError,
    HttpServer,
    Request,
    json_body,
)
from repro.service.jobs import Job, JobQueue, JobSpec
from repro.service.tasks import (
    run_autotune_job,
    run_compress_job,
    run_sweep_job,
)

__all__ = ["ServiceConfig", "CompressionService", "run_service"]

#: Dispatcher loops per pool worker.  One job waits in the pool behind
#: each running one, so a worker does not idle while a finished result
#: hops back to the event loop before its dispatcher takes the next job.
DISPATCH_PER_WORKER = 2


@dataclass
class ServiceConfig:
    """Every capacity/behaviour knob in one place (see
    ``docs/SERVICE.md`` for tuning guidance)."""

    host: str = "127.0.0.1"
    port: int = 8077
    n_workers: int = 2
    kind: str = "process"          # process | thread | inline
    queue_limit: int = 64
    grace_s: float = 10.0
    max_retries: int = 1
    ledger: Optional[str] = None
    no_ledger: bool = False
    allow_faults: bool = False     # gate for test-only fault specs
    trace_perfetto: Optional[str] = None
    cache_dir: Optional[str] = None      # None = blob cache disabled
    cache_max_bytes: Optional[int] = None

    def validate(self) -> None:
        if self.n_workers < 0:
            raise ParameterError("n_workers must be >= 0")
        if self.queue_limit < 1:
            raise ParameterError("queue_limit must be >= 1")
        if self.grace_s < 0:
            raise ParameterError("grace_s must be >= 0")
        if self.cache_max_bytes is not None and self.cache_max_bytes < 1:
            raise ParameterError("cache_max_bytes must be >= 1")


def _service_metrics():
    """The ``service.*`` metric family.

    Job counts are deterministic for a given request sequence; queue
    depth and latencies depend on wall-clock scheduling
    and stay out of deterministic snapshots (same split the resilience
    counters use).
    """
    from repro.telemetry.registry import DEFAULT_BUCKETS, metrics

    reg = metrics()
    return {
        "requests": reg.counter(
            "service.requests_total", help="HTTP requests handled"
        ),
        "submitted": reg.counter(
            "service.jobs_submitted_total", help="jobs admitted to the queue"
        ),
        "rejected": reg.counter(
            "service.jobs_rejected_total",
            help="jobs refused at admission (queue full -> 429)",
        ),
        "completed": reg.counter(
            "service.jobs_completed_total", help="jobs that finished ok"
        ),
        "failed": reg.counter(
            "service.jobs_failed_total",
            help="jobs that exhausted their retry budget",
        ),
        "cancelled": reg.counter(
            "service.jobs_cancelled_total", help="jobs cancelled by clients"
        ),
        "deduped": reg.counter(
            "service.jobs_deduped_total",
            help="compress jobs coalesced onto an identical in-flight job",
            deterministic=False,
        ),
        "timeouts": reg.counter(
            "service.jobs_timeout_total",
            help="jobs that exceeded their deadline",
            deterministic=False,
        ),
        "depth": reg.gauge(
            "service.queue_depth",
            help="live jobs waiting in the queue",
            deterministic=False,
        ),
        "inflight": reg.gauge(
            "service.jobs_inflight",
            help="jobs currently executing",
            deterministic=False,
        ),
        "queue_s": reg.histogram(
            "service.queue_seconds",
            buckets=DEFAULT_BUCKETS,
            help="submission-to-dispatch latency",
            deterministic=False,
        ),
        "job_s": reg.histogram(
            "service.job_seconds",
            buckets=DEFAULT_BUCKETS,
            help="dispatch-to-terminal latency",
            deterministic=False,
        ),
    }


class CompressionService(HttpServer):
    """One serving process; see the module docstring for the shape."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        from repro.parallel.executor import (
            Executor,
            _resilience_counters,
        )
        from repro.resilience.retry import RetryPolicy
        from repro.telemetry.ledger import git_rev

        self.config = config or ServiceConfig()
        self.config.validate()
        super().__init__(self.config.host, self.config.port)
        self.executor = Executor(
            n_workers=self.config.n_workers,
            kind=self.config.kind,
            start_method=(
                "spawn" if self.config.kind == "process" else None
            ),
        )
        self.queue = JobQueue(limit=self.config.queue_limit)
        self.jobs: Dict[str, Job] = {}
        self.metrics = _service_metrics()
        self.resilience = _resilience_counters()
        self.retry_policy = RetryPolicy(max_retries=self.config.max_retries)
        self.trace = (
            observe.Trace() if self.config.trace_perfetto else None
        )
        self.cache = None
        if self.config.cache_dir:
            from repro.cache import CacheStore

            self.cache = CacheStore(
                root=self.config.cache_dir,
                max_bytes=self.config.cache_max_bytes,
            )
        # cache key -> followers of the in-flight primary job with that
        # key; resolved when the primary reaches a terminal state.
        self._inflight_keys: Dict[str, List[Job]] = {}
        self._git_rev = git_rev()
        self._ids = itertools.count(1)
        self._dispatchers: List[asyncio.Task] = []
        self._accepting = False
        self._wake = asyncio.Event()
        self._cancel_events: Dict[str, asyncio.Event] = {}
        self._inflight = 0

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the dispatcher loops."""
        await super().start()
        n_loops = DISPATCH_PER_WORKER * max(1, self.config.n_workers)
        self._dispatchers = [
            asyncio.get_running_loop().create_task(self._dispatch_loop())
            for _ in range(n_loops)
        ]
        self._accepting = True

    async def shutdown(self, grace: Optional[float] = None) -> None:
        """Drain: refuse new work immediately, let queued + in-flight
        jobs finish within the grace window, then stop."""
        if self._draining:
            return
        self._draining = True
        self._accepting = False
        self._wake.set()
        grace = self.config.grace_s if grace is None else grace
        deadline = time.monotonic() + grace
        while (len(self.queue) or self._inflight) and (
            time.monotonic() < deadline
        ):
            await asyncio.sleep(0.01)
        for task in self._dispatchers:
            task.cancel()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        await self._close()
        if self.trace is not None:
            from repro.telemetry.export import write_chrome_trace
            from repro.telemetry.registry import metrics as _reg

            write_chrome_trace(
                self.trace,
                self.config.trace_perfetto,
                snapshot=_reg().snapshot(),
            )
        self.executor.close()
        self._stopped.set()

    # -- HTTP -----------------------------------------------------------

    async def _respond(self, request: Request):
        """Count and trace every parsed request around the shared
        routing and error mapping."""
        self.metrics["requests"].inc()
        t0 = time.perf_counter()
        try:
            return await super()._respond(request)
        finally:
            self._record_request_span(
                f"{request.method} {request.path}", time.perf_counter() - t0
            )

    def _record_request_span(self, route: str, duration_s: float) -> None:
        """Hand-built span record: async handlers interleave on one
        thread, so the synchronous span *stack* cannot be used here."""
        if self.trace is None:
            return
        import os
        import threading

        self.trace.merge(
            [
                {
                    "path": ["service.request", route],
                    "seq": 0,
                    "duration_s": duration_s,
                    "counters": {"requests": 1},
                    "gauges": {},
                    "t_start": time.perf_counter() - duration_s,
                    "pid": os.getpid(),
                    "tid": threading.get_ident(),
                }
            ]
        )

    async def _route(
        self, request: Request
    ) -> Tuple[int, bytes, str, Tuple]:
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            return self._json(200, {"ok": True, "draining": self._draining})
        if path == "/readyz" and method == "GET":
            if self._accepting:
                return self._json(200, {"ready": True})
            return self._json(503, {"ready": False, "draining": True})
        if path == "/v1/jobs" and method == "GET":
            docs = [
                j.as_dict(include_result=False)
                for j in self.jobs.values()
            ]
            return self._json(200, {"jobs": docs})
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            blob = False
            if job_id.endswith("/blob"):
                job_id, blob = job_id[: -len("/blob")], True
            job = self.jobs.get(job_id)
            if job is None:
                raise HttpError(404, f"no such job: {job_id}")
            if method == "GET" and blob:
                return self._blob_response(job)
            if method == "GET":
                doc = job.as_dict()
                if (
                    request.query.get("blob") == "base64"
                    and job.blob is not None
                ):
                    doc["blob_base64"] = base64.b64encode(
                        job.blob
                    ).decode("ascii")
                return self._json(200, doc)
            if method == "DELETE":
                return self._cancel(job)
            raise HttpError(405, f"{method} not allowed here")
        if path.startswith("/v1/") and method == "POST":
            kind = path[len("/v1/"):]
            return self._submit(kind, request)
        raise HttpError(404, f"no route for {method} {path}")

    def _metrics_response(self, request: Request):
        self.metrics["depth"].set(len(self.queue))
        self.metrics["inflight"].set(self._inflight)
        return super()._metrics_response(request)

    def _blob_response(self, job: Job):
        if job.state != "done":
            raise HttpError(409, f"job is {job.state}, not done")
        if job.blob is None:
            raise HttpError(404, "job kept no blob (keep_blob=false)")
        return (200, job.blob, "application/octet-stream", ())

    def _cache_key(self, spec: JobSpec) -> Optional[str]:
        """The blob-cache key for a cacheable job, else ``None``.

        Only fixed-PSNR compress jobs are cached: their pipeline is
        deterministic in the spec, so the key fully pins the output
        bytes.  Search modes (ratio/nrmse/mse) converge through
        history-dependent trajectories and stay uncached here.  The
        key deliberately matches the one ``fpzc compress``/``sweep``
        write, so CLI runs warm the service and vice versa.
        """
        if (
            self.cache is None
            or spec.kind != "compress"
            or spec.mode != "psnr"
            or spec.fault is not None
        ):
            return None
        from repro.cache import field_digest, psnr_key

        stats = field_digest(spec.dataset, spec.field, spec.scale)
        if stats is None:
            return None
        return psnr_key(stats[0], spec.target, spec.codec, spec.refine)

    def _submit(self, kind: str, request: Request):
        if not self._accepting:
            return self._json(
                503,
                {"error": "service is draining"},
                (("Retry-After", "1"),),
            )
        spec = JobSpec.from_payload(kind, json_body(request))
        if spec.fault is not None and not self.config.allow_faults:
            raise HttpError(
                400, "fault injection is disabled on this server"
            )
        spec.traced = self.trace is not None
        cache_key = self._cache_key(spec)
        if cache_key is not None:
            from repro.cache import lookup_psnr

            rec = lookup_psnr(self.cache, cache_key)
            if rec is not None:
                # Admission-time hit: the job is born terminal and the
                # client gets the result in the submit response itself.
                job = Job(f"j{next(self._ids):06d}", spec)
                job.cache_key = cache_key
                self.jobs[job.id] = job
                self.metrics["submitted"].inc()
                self._finish_cached(job, rec)
                self._prune_jobs()
                return self._json(
                    200,
                    {"id": job.id, "state": job.state, "cached": True},
                )
            followers = self._inflight_keys.get(cache_key)
            if followers is not None:
                # An identical job is already queued or running: ride
                # it instead of recompressing the same bytes.
                job = Job(f"j{next(self._ids):06d}", spec)
                job.follower_of = cache_key
                self.jobs[job.id] = job
                followers.append(job)
                self.metrics["submitted"].inc()
                self.metrics["deduped"].inc()
                self._prune_jobs()
                return self._json(
                    202,
                    {"id": job.id, "state": job.state, "deduped": True},
                )
        job = Job(f"j{next(self._ids):06d}", spec)
        job.cache_key = cache_key
        if not self.queue.offer(job):
            self.metrics["rejected"].inc()
            # Hint: roughly how long the backlog needs to half-drain.
            return self._json(
                429,
                {
                    "error": "job queue is full",
                    "queue_depth": len(self.queue),
                },
                (("Retry-After", "1"),),
            )
        self.jobs[job.id] = job
        self._cancel_events[job.id] = asyncio.Event()
        if cache_key is not None:
            self._inflight_keys[cache_key] = []
        self.metrics["submitted"].inc()
        self.metrics["depth"].set(len(self.queue))
        self._wake.set()
        self._prune_jobs()
        return self._json(
            202, {"id": job.id, "state": job.state}
        )

    def _cancel(self, job: Job):
        if job.terminal:
            return self._json(200, {"id": job.id, "state": job.state})
        job.cancel_requested = True
        if job.state == "queued":
            job.finish("cancelled")
            # Followers were never admitted to the queue, so there is
            # no heap entry (or depth) to tombstone for them.
            if job.follower_of is None:
                self.queue.cancel_queued(job)
            self.metrics["cancelled"].inc()
            self.metrics["depth"].set(len(self.queue))
            self._resolve_followers(job)
        event = self._cancel_events.get(job.id)
        if event is not None:
            event.set()
        return self._json(200, {"id": job.id, "state": job.state})

    def _prune_jobs(self) -> None:
        """Cap the terminal-job history so a long-lived server does not
        accumulate every blob it ever produced."""
        excess = len(self.jobs) - max(KEEP_JOBS, self.config.queue_limit * 2)
        if excess <= 0:
            return
        for job_id in [
            jid for jid, j in self.jobs.items() if j.terminal
        ][:excess]:
            self.jobs.pop(job_id, None)
            self._cancel_events.pop(job_id, None)

    # -- dispatcher -----------------------------------------------------

    def _take(self, job: Job) -> Job:
        """Count ``job`` in flight from the moment it leaves the queue:
        a drain waits on the queue and the in-flight count, so a popped
        job must be in one of them."""
        self._inflight += 1
        self.metrics["inflight"].set(self._inflight)
        self.metrics["depth"].set(len(self.queue))
        return job

    async def _next_job(self) -> Optional[Job]:
        while True:
            job = self.queue.pop()
            if job is not None:
                return self._take(job)
            if self._draining:
                return None
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=0.05)
            except asyncio.TimeoutError:
                pass

    async def _dispatch_loop(self) -> None:
        while True:
            job = await self._next_job()
            if job is None:
                return
            self.metrics["queue_s"].observe(
                max(0.0, time.monotonic() - job.submitted_at)
            )
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        """Run a job taken by :meth:`_take`, then retire it."""
        t0 = time.monotonic()
        try:
            await self._execute(job)
        finally:
            self._inflight -= 1
            self.metrics["inflight"].set(self._inflight)
            self.metrics["job_s"].observe(time.monotonic() - t0)
            self._cancel_events.pop(job.id, None)
            self._resolve_followers(job)

    async def _execute(self, job: Job) -> None:
        if job.terminal:  # cancelled while queued, popped as tombstone
            return
        if job.expired():
            self._finish_timeout(job, queued_only=True)
            return
        if job.cancel_requested:
            job.finish("cancelled")
            self.metrics["cancelled"].inc()
            return
        job.state = "running"
        job.started_at = time.monotonic()
        rng = self.retry_policy.rng()
        cancel_event = self._cancel_events.get(job.id) or asyncio.Event()
        loop = asyncio.get_running_loop()
        while True:
            spec = dict(job.spec.as_dict())
            spec["attempt"] = job.attempts
            spec["traced"] = job.spec.traced
            if job.spec.fault is not None:
                spec["fault"] = dict(job.spec.fault)
            if self.cache is not None and job.spec.fault is None:
                # Workers read and write the shared store themselves:
                # hits skip the codec inside the pool, misses persist
                # the fresh blob for every later entry point.
                spec["cache"] = {
                    "dir": str(self.cache.root),
                    "max_bytes": self.cache.max_bytes,
                }
            job.attempts += 1
            fut = self._submit_to_pool(loop, job, spec)
            waiter = loop.create_task(cancel_event.wait())
            try:
                done, _pending = await asyncio.wait(
                    {fut, waiter},
                    timeout=job.remaining(),
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                waiter.cancel()
            if fut in done:
                exc = fut.exception()
                result = None if exc is not None else fut.result()
                if exc is None and self._result_ok(result):
                    self._finish_ok(job, result)
                    return
                code, message = self._classify(exc, result)
                if not await self._account_failure(
                    job, code, message, rng
                ):
                    return
                continue
            # The pool attempt is abandoned either way: its eventual
            # result is discarded (a busy worker until it finishes).
            fut.cancel()
            if cancel_event.is_set():
                job.finish("cancelled")
                self.metrics["cancelled"].inc()
                return
            self._finish_timeout(job)
            return

    def _submit_to_pool(self, loop, job: Job, spec: Dict):
        """One attempt as an awaitable future.  Compress jobs go
        straight to the pool; sweep and autotune jobs block a
        default-executor thread and fan out internally over the same
        long-lived executor."""
        import functools

        kind = job.spec.kind
        if kind == "compress":
            if self.executor.inline:
                return loop.run_in_executor(None, run_compress_job, spec)
            return asyncio.wrap_future(
                self.executor.pool.submit(run_compress_job, spec)
            )
        fn = run_sweep_job if kind == "sweep" else run_autotune_job
        return loop.run_in_executor(
            None, functools.partial(fn, spec, executor=self.executor)
        )

    @staticmethod
    def _result_ok(result) -> bool:
        return isinstance(result, dict) and result.get("status") == "ok"

    @staticmethod
    def _classify(exc, result) -> Tuple[str, str]:
        from repro.errors import ErrorCode

        if exc is not None:
            return ErrorCode.TASK_FAILED, f"{type(exc).__name__}: {exc}"
        return (
            ErrorCode.POISONED_RESULT,
            f"worker returned {type(result).__name__} instead of a result",
        )

    async def _account_failure(
        self, job: Job, code: str, message: str, rng
    ) -> bool:
        """Record one failed attempt; returns whether to retry."""
        from repro.errors import ErrorCode

        self.resilience["failures"].inc()
        if code == ErrorCode.POISONED_RESULT:
            self.resilience["poisoned"].inc()
        job.error, job.error_code = message, code
        retry_index = job.attempts  # 1-based: attempts already made
        if retry_index > self.retry_policy.max_retries:
            self.resilience["exhausted"].inc()
            job.finish("failed")
            self.metrics["failed"].inc()
            return False
        self.resilience["retries"].inc()
        delay = self.retry_policy.delay(retry_index, rng)
        self.resilience["backoff"].inc(delay)
        await asyncio.sleep(delay)
        if job.expired():
            self._finish_timeout(job)
            return False
        return True

    def _finish_timeout(self, job: Job, queued_only: bool = False) -> None:
        from repro.errors import ErrorCode

        job.error_code = ErrorCode.TASK_TIMEOUT
        job.error = (
            f"deadline of {job.spec.deadline_s:.3f}s expired"
            + (" while queued" if queued_only else "")
        )
        job.finish("timeout")
        self.metrics["timeouts"].inc()
        self.resilience["timeouts"].inc()

    # -- completion: results, conformance, ledger -----------------------

    def _finish_ok(self, job: Job, result: Dict) -> None:
        blob = result.pop("blob", None)
        records = result.pop("records", None)
        job.blob = blob if job.spec.keep_blob else None
        job.result = result
        job.finish("done")
        self.metrics["completed"].inc()
        if records and self.trace is not None:
            self.trace.merge(records, prefix=(f"job:{job.id}",))
        extra: Dict = {
            "service": {
                "job_id": job.id,
                "priority": job.spec.priority,
                "attempts": job.attempts,
                "queued_s": round(
                    (job.started_at or job.submitted_at)
                    - job.submitted_at,
                    6,
                ),
            }
        }
        if self.cache is not None and job.spec.kind == "compress":
            extra["cache"] = {
                "hit": bool(result.get("cached")),
                "key": job.cache_key,
            }
        if job.spec.cluster is not None:
            # Coordinator-forwarded job: keep the routing provenance
            # (node, route key, failover attempt) next to the result.
            extra["cluster"] = dict(job.spec.cluster)
        conformance = self._conformance(job, result)
        if conformance is not None:
            extra["conformance"] = conformance
        if not self.config.no_ledger:
            self._append_ledger(job, result, extra)

    def _finish_cached(self, job: Job, rec) -> None:
        """Complete ``job`` from a cached
        :class:`~repro.cache.BlobRecord` at admission time: same
        terminal bookkeeping as :meth:`_finish_ok`, blob and achieved
        PSNR replayed from the store, zero pool involvement."""
        from repro.cache import field_digest

        spec = job.spec
        raw = field_digest(spec.dataset, spec.field, spec.scale)[1]
        result: Dict = {
            "status": "ok",
            "cached": True,
            "blob": rec.blob,
            "mode": job.spec.mode,
            "target": float(job.spec.target),
            "eb_rel": rec.eb_rel,
            "achieved": rec.achieved_psnr,
            "achieved_psnr": rec.achieved_psnr,
            "converged": True,
            "raw_bytes": raw,
            "compressed_bytes": len(rec.blob),
            "ratio": raw / len(rec.blob),
            "seconds": 0.0,
        }
        self._finish_ok(job, result)

    def _resolve_followers(self, job: Job) -> None:
        """Propagate a terminal primary job's outcome to every job that
        was coalesced onto it (and retire its in-flight key)."""
        if job.cache_key is None:
            return
        followers = self._inflight_keys.pop(job.cache_key, None)
        if not followers:
            return
        for f in followers:
            if f.terminal:  # cancelled while waiting
                continue
            f.attempts = job.attempts
            if job.state == "done":
                blob = job.blob
                if f.spec.keep_blob and blob is None and self.cache:
                    # Primary dropped its blob (keep_blob=false) but the
                    # worker persisted it -- serve the follower from
                    # the store.
                    e = self.cache.get(job.cache_key)
                    blob = e.payload if e is not None else None
                f.blob = blob if f.spec.keep_blob else None
                f.result = dict(job.result or {})
                f.result["deduped"] = True
                f.finish("done")
                self.metrics["completed"].inc()
            else:
                f.error = job.error
                f.error_code = job.error_code
                f.finish(job.state)
                if job.state == "failed":
                    self.metrics["failed"].inc()
                elif job.state == "timeout":
                    self.metrics["timeouts"].inc()
                elif job.state == "cancelled":
                    self.metrics["cancelled"].inc()

    def _conformance(self, job: Job, result: Dict):
        """The same Eq. 7/8 predicted-vs-achieved payload CLI runs
        record, so the drift monitor sees service traffic."""
        from repro.telemetry.drift import record_eq8_conformance

        spec = job.spec
        if result.get("cached"):
            # A replayed measurement: its conformance point was
            # recorded when the blob was first compressed.
            return None
        if spec.kind in ("compress", "autotune") and spec.mode == "psnr":
            eb_rel = result.get("eb_rel")
            achieved = result.get("achieved_psnr", result.get("achieved"))
            if eb_rel and achieved is not None:
                return record_eq8_conformance(
                    spec.dataset, spec.codec, [(spec.target, eb_rel, achieved)]
                )[0]
        if spec.kind == "sweep":
            runs = [
                (r["target_psnr"], r["eb_rel"], r["actual_psnr"])
                for r in result.get("results", ())
                if r.get("status") == "ok" and not r.get("cache_hit")
            ]
            out = record_eq8_conformance(spec.dataset, spec.codec, runs)
            return out or None
        return None

    def _append_ledger(self, job: Job, result: Dict, extra: Dict) -> None:
        from repro.telemetry.ledger import LedgerEntry, append_entry

        spec = job.spec
        kind = "sweep" if spec.kind == "sweep" else (
            "autotune" if spec.kind == "autotune" else "compress"
        )
        achieved = result.get("achieved")
        achieved_psnr = result.get("achieved_psnr")
        entry = LedgerEntry(
            kind=kind,
            git_rev=self._git_rev,
            dataset=spec.dataset,
            field=spec.field or ",".join(spec.fields),
            codec=spec.codec,
            mode=spec.mode,
            target=float(spec.target) if spec.target else None,
            achieved=float(achieved) if achieved is not None else None,
            target_psnr=(
                float(spec.target)
                if spec.mode == "psnr" and spec.target
                else None
            ),
            achieved_psnr=(
                float(achieved_psnr)
                if achieved_psnr is not None
                else None
            ),
            ratio=result.get("ratio"),
            raw_bytes=result.get("raw_bytes"),
            compressed_bytes=result.get("compressed_bytes"),
            extra=extra,
        )
        append_entry(entry, path=self.config.ledger)


async def run_service(config: Optional[ServiceConfig] = None) -> int:
    """Start a service, run it until drained, return the exit code."""
    service = CompressionService(config)
    await service.start()
    await service.serve_forever()
    return 0
