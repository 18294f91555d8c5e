"""Field-parallel fixed-PSNR sweeps.

One task = (data set, field, target PSNR): compress, then measure the
reconstruction (:func:`repro.sz.compressor.reconstruction`, which
decodes nothing for the sz codec).  Tasks ship only *names* to the
workers -- each worker loads its field through the per-process field
source (:func:`repro.datasets.load_field`), so no array crosses a
process boundary and a worker that runs several targets of one field
generates it once (the scatter pattern the mpi4py guide recommends:
communicate work descriptions, not payloads).

``n_workers=0`` runs inline, which is what the unit tests and small
sweeps use; the benchmarks choose a worker count from ``os.cpu_count``.

Resilience
----------
``sweep_dataset`` optionally runs under a
:class:`repro.resilience.retry.RetryPolicy`: each failing attempt
(worker exception, per-task deadline exceeded, poisoned result) is
retried with exponential backoff and seeded jitter, and a task that
exhausts its attempts degrades to a *failed* :class:`FieldResult`
(``status="failed"``, NaN measurements) instead of aborting the sweep.
The ``fault`` hook accepts a
:class:`repro.resilience.inject.WorkerFault` so the failure paths are
deterministically testable -- CI's fault matrix drives it.  Without a
policy the legacy fail-fast behaviour is unchanged.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, asdict, field as dc_field, fields as dc_fields
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import repro.observe as observe
from repro.errors import ErrorCode, ParameterError

__all__ = [
    "FieldResult",
    "Executor",
    "executor_scope",
    "payload_scope",
    "run_field_task",
    "sweep_dataset",
    "default_workers",
    "failed_field_result",
]


def _warm_worker(index: int) -> int:
    """No-op task submitted at :meth:`Executor.warm` time: imports the
    hot modules so the first real task pays no import cost, and sleeps
    a beat so the pool actually spawns one process per submission
    instead of reusing an idle worker."""
    import repro.core.fixed_psnr  # noqa: F401 -- import is the point
    import repro.sz.compressor  # noqa: F401

    time.sleep(0.02)
    return os.getpid()


class Executor:
    """The one source of worker pools.

    Every parallel entry point -- :func:`sweep_dataset`,
    :func:`repro.autotune.autotune` and
    :func:`repro.parallel.chunking.compress_chunked` /
    ``decompress_chunked`` -- runs on an ``Executor``: the caller's,
    passed as ``executor=``, or a per-call one that
    :func:`executor_scope` opens and closes around the call.  A
    long-lived executor lets repeated calls reuse warm workers (and the
    fields those workers already loaded)::

        with Executor(n_workers=4) as ex:
            ex.warm()                       # spawn + import up front
            r1 = sweep_dataset("ATM", [60.0], executor=ex)
            r2 = sweep_dataset("ATM", [80.0], executor=ex)   # no new pool

    ``kind`` selects the pool flavour: ``"process"`` (the default),
    ``"thread"`` (same results, zero-copy by construction -- what the
    service uses in tests and benches to avoid process spawn cost), or
    ``"inline"`` (no pool at all; ``n_workers <= 0`` forces it).
    ``start_method`` optionally pins the multiprocessing start method
    -- the service passes ``"spawn"`` because forking from a
    multi-threaded process is unsafe (and a ``DeprecationWarning`` on
    3.12+).

    A call that moves user arrays hands them to a per-call fork pool's
    workers through the memory they inherit, and to a caller's process
    executor by pickle (:func:`payload_scope`).  Results are
    bit-identical across kinds and paths.
    """

    _KINDS = ("process", "thread", "inline")

    def __init__(
        self,
        n_workers: int = 0,
        kind: str = "process",
        start_method: Optional[str] = None,
    ):
        if kind not in self._KINDS:
            raise ParameterError(
                f"unknown executor kind {kind!r}; expected one of "
                f"{self._KINDS}"
            )
        self.n_workers = int(n_workers)
        self.kind = "inline" if self.n_workers <= 0 else kind
        self.start_method = start_method
        self._pool = None
        self._lock = threading.Lock()
        self._closed = False

    # -- state ----------------------------------------------------------

    @property
    def inline(self) -> bool:
        return self.kind == "inline"

    @property
    def forks(self) -> bool:
        """Whether this is a process pool whose workers are forked from
        this process, and so start with a copy of its memory."""
        import multiprocessing

        if self.kind != "process":
            return False
        ctx = multiprocessing.get_context(self.start_method)
        return ctx.get_start_method() == "fork"

    def _check_open(self) -> None:
        if self._closed:
            raise ParameterError("executor is closed")

    @property
    def pool(self):
        """The lazily created pool (``None`` for the inline kind).

        First use is thread-safe: the service reaches the pool from the
        event loop and from default-executor threads at the same time.
        The process pool class is looked up by its module-level name on
        every creation, so patching
        ``repro.parallel.executor.ProcessPoolExecutor`` sees every pool
        this package starts."""
        with self._lock:
            self._check_open()
            if self._pool is None and self.kind != "inline":
                if self.kind == "thread":
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.n_workers,
                        thread_name_prefix="repro-exec",
                    )
                else:
                    import multiprocessing

                    self._pool = ProcessPoolExecutor(
                        max_workers=self.n_workers,
                        mp_context=multiprocessing.get_context(
                            self.start_method
                        ),
                    )
            return self._pool

    # -- work -----------------------------------------------------------

    def map(self, fn, argtuples, chunksize: int = 1) -> List:
        """Order-preserving map: ``fn(*t)`` for each tuple ``t`` of
        ``argtuples``.  ``fn`` must be a module-level (picklable)
        callable.  ``chunksize`` goes to the pool's ``map``: a process
        pool ships that many consecutive tasks to one worker at a time.
        An empty task list touches no pool."""
        self._check_open()
        tasks = list(argtuples)
        if not tasks:
            return []
        if self.kind == "inline":
            return [fn(*t) for t in tasks]
        return list(self.pool.map(fn, *zip(*tasks), chunksize=chunksize))

    def warm(self) -> int:
        """Spawn every worker now (and pre-import the codec modules in
        each) instead of on first use; returns the number of distinct
        workers that answered.  A no-op for thread/inline kinds."""
        if self.kind != "process":
            return 0
        futures = [
            self.pool.submit(_warm_worker, i) for i in range(self.n_workers)
        ]
        return len({f.result() for f in futures})

    # -- teardown -------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Shut the pool down.  Idempotent.  ``wait=False`` cancels
        queued calls and returns without waiting for running ones,
        which finish (or hang) on their own."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=not wait)

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@contextlib.contextmanager
def executor_scope(
    executor: Optional[Executor], n_workers: int, wait: bool = True
) -> Iterator[Executor]:
    """The executor one parallel call runs on: the caller's
    ``executor`` (left open; ``n_workers`` is then ignored), or a
    per-call ``Executor(n_workers)`` closed on exit.  ``wait=False``
    closes the per-call pool without waiting for running calls -- the
    retry path abandons hung attempts and must not block on them."""
    if executor is not None:
        yield executor
        return
    ex = Executor(n_workers)
    try:
        yield ex
    finally:
        ex.close(wait)


@contextlib.contextmanager
def payload_scope(executor: Optional[Executor], n_workers: int):
    """:func:`executor_scope` for calls that move user arrays: yields
    ``(executor, arena)``, where ``arena`` is the call's
    :class:`~repro.parallel.shm.ShmArena`.

    The path follows from whether the pool is per-call and from its
    start method.  Tasks inherit the call's arrays when they run
    inline, on threads, or on a per-call pool that forks (its workers
    start at the first submit, after the call has registered its
    arrays).  They receive them by pickle on a caller's process
    executor, whose workers may predate the call, and on a pool that
    does not fork."""
    from repro.parallel.shm import ShmArena

    with executor_scope(executor, n_workers) as ex:
        forked = executor is None and ex.forks
        inherit = forked or ex.kind != "process"
        with ShmArena(inherit=inherit, forked=forked) as arena:
            yield ex, arena


@dataclass(frozen=True)
class FieldResult:
    """Outcome of one (field, target) compression task.

    ``metrics`` is optional stage-level telemetry (populated when the
    sweep runs with ``collect_trace=True``): the aggregated trace dict
    plus the raw picklable span records, so parent processes can merge
    worker traces (see :mod:`repro.observe`).  It is excluded from
    equality/hash so result identity stays purely about the outcome.

    ``status`` is ``"ok"`` for a successful task and ``"failed"`` for
    one that exhausted its retry budget under a
    :class:`~repro.resilience.retry.RetryPolicy`; failed results carry
    NaN measurements, the last failure's :class:`~repro.errors.ErrorCode`
    in ``error_code`` and its message in ``error``.  ``attempts``
    counts attempts actually made (1 when nothing went wrong).
    """

    dataset: str
    field: str
    target_psnr: float
    actual_psnr: float
    deviation: float
    met: bool
    compression_ratio: float
    bit_rate: float
    eb_rel: float
    metrics: Optional[Dict] = dc_field(default=None, compare=False)
    status: str = "ok"
    error: Optional[str] = None
    error_code: Optional[str] = None
    attempts: int = 1
    #: Whether the result was served from the shared blob cache
    #: (:mod:`repro.cache`) instead of a fresh compression.  Excluded
    #: from equality so cached and fresh outcomes compare identical --
    #: the cache's correctness contract.
    cache_hit: bool = dc_field(default=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> Dict:
        """JSON-friendly representation."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict) -> "FieldResult":
        """Rebuild a result from :meth:`as_dict` output -- how rows
        cross HTTP boundaries (the cluster scatter-gather path) and
        still compare equal to locally produced ones."""
        known = {f.name for f in dc_fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in known})


def _failed_result(
    dataset: str,
    field: str,
    target_psnr: float,
    *,
    error: str,
    error_code: str,
    attempts: int,
) -> FieldResult:
    nan = float("nan")
    return FieldResult(
        dataset=dataset,
        field=field,
        target_psnr=float(target_psnr),
        actual_psnr=nan,
        deviation=nan,
        met=False,
        compression_ratio=nan,
        bit_rate=nan,
        eb_rel=nan,
        status="failed",
        error=error,
        error_code=error_code,
        attempts=attempts,
    )


def failed_field_result(
    dataset: str,
    field: str,
    target_psnr: float,
    *,
    error: str,
    error_code: str,
    attempts: int,
) -> FieldResult:
    """Public constructor for a ``status="failed"`` row -- what a task
    degrades to when it exhausts its retry budget (resilient sweeps)
    or every cluster node that could run it (scatter-gather)."""
    return _failed_result(
        dataset, field, target_psnr,
        error=error, error_code=error_code, attempts=attempts,
    )


def run_field_task(
    dataset: str,
    field: str,
    target_psnr: float,
    scale: Optional[float] = None,
    refine: Optional[str] = None,
    codec: str = "sz",
    collect_trace: bool = False,
    profile_mem: bool = False,
    cache=None,
    fault=None,
    attempt: int = 0,
) -> FieldResult:
    """Execute one task: load the field, run the fixed-PSNR pipeline,
    measure the reconstruction.

    Importable at module top level so it pickles for worker processes.
    With ``collect_trace=True`` the compression and the measurement of
    its reconstruction run under a local :class:`repro.observe.Trace`
    (so serial and pool tasks alike record ``sz.reconstruct`` under
    the task); the result's ``metrics`` dict carries the aggregated
    stage costs and the raw span records back across the process
    boundary.  ``profile_mem=True`` (implies
    ``collect_trace``) additionally runs under
    :class:`repro.telemetry.memory.profile_memory`, so every span
    record also carries its peak traced bytes -- the readings cross the
    process boundary inside the records like every other measurement.

    The field comes from :func:`repro.datasets.load_field`, so a
    process that runs several targets of one field generates it once.

    ``cache`` is an optional :class:`repro.cache.CacheStore` (it
    pickles into workers as just a path + bound) that the task's
    :func:`repro.cache.compress_psnr` step runs through: a prior run's
    blob for the same (data, codec, target, refine) -- written by any
    entry point -- is replayed with its recorded PSNR instead of
    recompressing, and fresh blobs are written through for the next
    run.  Cached and fresh results are equal by construction
    (differential-tested).

    ``fault`` is an optional
    :class:`repro.resilience.inject.WorkerFault` evaluated before any
    real work -- the deterministic stand-in for worker crashes, hangs
    and corrupted results that the retry layer is tested against.
    ``attempt`` is the zero-based attempt index the executor passes so
    a bounded fault can fail N attempts and then succeed.
    """
    if fault is not None:
        from repro.resilience.inject import POISON, apply_worker_fault

        if apply_worker_fault(fault, field, attempt) is not None:
            return POISON  # type: ignore[return-value]  (poisoned on purpose)
    # Imports inside the function keep worker start-up lean.
    from repro.cache.record import compress_psnr
    from repro.datasets.source import load_field

    data = load_field(dataset, field, scale)
    local = observe.Trace() if collect_trace or profile_mem else None
    with contextlib.ExitStack() as scope:
        if local is not None:
            scope.enter_context(observe.use_trace(local))
        if profile_mem:
            from repro.telemetry.memory import profile_memory

            scope.enter_context(profile_memory())
        rec = compress_psnr(
            data, target_psnr, codec=codec, refine=refine, store=cache
        )
    metrics = None
    if local is not None and not rec.hit:
        metrics = {
            "trace": local.as_dict(),
            "records": [r.as_dict() for r in local.records],
        }
    return FieldResult(
        dataset=dataset,
        field=field,
        target_psnr=float(target_psnr),
        actual_psnr=rec.achieved_psnr,
        deviation=float(rec.achieved_psnr - target_psnr),
        met=bool(rec.achieved_psnr >= target_psnr),
        compression_ratio=data.nbytes / len(rec.blob),
        bit_rate=8.0 * len(rec.blob) / data.size,
        eb_rel=rec.eb_rel,
        metrics=metrics,
        cache_hit=rec.hit,
    )


def default_workers() -> int:
    """A safe default worker count: physical parallelism minus one."""
    return max(1, (os.cpu_count() or 2) - 1)


# ---------------------------------------------------------------------------
# resilient execution
# ---------------------------------------------------------------------------


def _classify_failure(exc: Optional[BaseException], result) -> Tuple[str, str]:
    """Map an attempt outcome to ``(error_code, message)``."""
    if exc is not None:
        return ErrorCode.TASK_FAILED, f"{type(exc).__name__}: {exc}"
    return (
        ErrorCode.POISONED_RESULT,
        f"worker returned {type(result).__name__!s} instead of a FieldResult",
    )


def _resilience_counters():
    from repro.telemetry.registry import metrics as _metrics

    reg = _metrics()
    return {
        "failures": reg.counter(
            "resilience.task_failures_total",
            help="task attempts that failed (any cause)",
        ),
        # Deadline trips depend on wall-clock scheduling, and backoff
        # totals on the (completion-ordered) jitter draw sequence --
        # neither belongs in golden comparisons.
        "timeouts": reg.counter(
            "resilience.task_timeouts_total",
            help="task attempts that exceeded the per-task deadline",
            deterministic=False,
        ),
        "poisoned": reg.counter(
            "resilience.poisoned_results_total",
            help="task attempts that returned a non-FieldResult",
        ),
        "retries": reg.counter(
            "resilience.retries_total", help="task attempts re-scheduled"
        ),
        "exhausted": reg.counter(
            "resilience.tasks_exhausted_total",
            help="tasks that failed every attempt and degraded to a "
            "failed result",
        ),
        "backoff": reg.counter(
            "resilience.backoff_seconds_total",
            help="total scheduled backoff delay",
            deterministic=False,
        ),
    }


class _TaskState:
    """Book-keeping for one task's attempts (parent side)."""

    __slots__ = ("index", "task", "attempt", "last_error")

    def __init__(self, index: int, task: Tuple):
        self.index = index
        self.task = task
        self.attempt = 0  # zero-based index of the attempt in flight
        self.last_error: Tuple[str, str] = (ErrorCode.TASK_FAILED, "")


def _record_failure(state, code, message, policy, rng, counters):
    """Account one failed attempt.  Returns the backoff delay before
    the next attempt, or ``None`` when the budget is exhausted."""
    state.last_error = (code, message)
    counters["failures"].inc()
    if code == ErrorCode.TASK_TIMEOUT:
        counters["timeouts"].inc()
    elif code == ErrorCode.POISONED_RESULT:
        counters["poisoned"].inc()
    if state.attempt >= policy.max_retries:
        counters["exhausted"].inc()
        return None
    state.attempt += 1
    counters["retries"].inc()
    delay = policy.delay(state.attempt, rng)
    counters["backoff"].inc(delay)
    return delay


def _exhausted_result(state) -> FieldResult:
    code, message = state.last_error
    dataset, field, target = state.task[0], state.task[1], state.task[2]
    return _failed_result(
        dataset,
        field,
        target,
        error=message,
        error_code=code,
        attempts=state.attempt + 1,
    )


def _validated(result) -> bool:
    return isinstance(result, FieldResult)


def _with_attempts(result: FieldResult, attempts: int) -> FieldResult:
    if attempts == result.attempts:
        return result
    import dataclasses

    return dataclasses.replace(result, attempts=attempts)


def _sweep_inline_with_retry(tasks, policy, fault, counters):
    rng = policy.rng()
    results: List[FieldResult] = []
    for index, task in enumerate(tasks):
        state = _TaskState(index, task)
        while True:
            start = time.monotonic()
            exc = None
            result = None
            try:
                result = run_field_task(*task, fault=fault, attempt=state.attempt)
            except Exception as e:  # noqa: BLE001 -- worker faults are arbitrary
                exc = e
            elapsed = time.monotonic() - start
            if (
                policy.task_timeout is not None
                and elapsed > policy.task_timeout
            ):
                # Inline mode cannot preempt, so the deadline is
                # enforced post-hoc: a late result is discarded to keep
                # timeout semantics identical to the pool path.
                code, message = ErrorCode.TASK_TIMEOUT, (
                    f"attempt took {elapsed:.3f}s "
                    f"(deadline {policy.task_timeout:.3f}s)"
                )
            elif exc is None and _validated(result):
                results.append(_with_attempts(result, state.attempt + 1))
                break
            else:
                code, message = _classify_failure(exc, result)
            delay = _record_failure(
                state, code, message, policy, rng, counters
            )
            if delay is None:
                results.append(_exhausted_result(state))
                break
            time.sleep(delay)
    return results


def _sweep_pool_with_retry(tasks, policy, fault, counters, pool):
    rng = policy.rng()
    results: List[Optional[FieldResult]] = [None] * len(tasks)
    states = [_TaskState(i, t) for i, t in enumerate(tasks)]
    inflight: Dict = {}  # future -> (state, deadline or None)
    waiting: List[Tuple[float, _TaskState]] = []  # (ready_at, state)

    def submit(state: _TaskState) -> None:
        fut = pool.submit(
            run_field_task, *state.task, fault=fault, attempt=state.attempt
        )
        deadline = (
            time.monotonic() + policy.task_timeout
            if policy.task_timeout is not None
            else None
        )
        inflight[fut] = (state, deadline)

    def settle(state: _TaskState, code: str, message: str) -> None:
        delay = _record_failure(state, code, message, policy, rng, counters)
        if delay is None:
            results[state.index] = _exhausted_result(state)
        else:
            waiting.append((time.monotonic() + delay, state))

    for state in states:
        submit(state)
    while inflight or waiting:
        now = time.monotonic()
        for ready_at, state in list(waiting):
            if ready_at <= now:
                waiting.remove((ready_at, state))
                submit(state)
        if not inflight:
            next_ready = min(ready_at for ready_at, _ in waiting)
            time.sleep(max(0.0, next_ready - time.monotonic()))
            continue
        timeout = None
        deadlines = [dl for _, dl in inflight.values() if dl is not None]
        horizons = deadlines + [ready_at for ready_at, _ in waiting]
        if horizons:
            timeout = max(0.0, min(horizons) - time.monotonic())
        done, _pending = wait(
            set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
        )
        for fut in done:
            state, _deadline = inflight.pop(fut)
            exc = fut.exception()
            result = None if exc is not None else fut.result()
            if exc is None and _validated(result):
                results[state.index] = _with_attempts(
                    result, state.attempt + 1
                )
            else:
                settle(state, *_classify_failure(exc, result))
        now = time.monotonic()
        for fut, (state, deadline) in list(inflight.items()):
            if deadline is not None and now >= deadline:
                # The attempt is hung (or just too slow): abandon the
                # future -- its eventual result is ignored -- and
                # account a timeout.
                fut.cancel()
                del inflight[fut]
                settle(
                    state,
                    ErrorCode.TASK_TIMEOUT,
                    f"attempt exceeded the {policy.task_timeout:.3f}s "
                    "deadline",
                )
    return results


def sweep_dataset(
    dataset: str,
    targets: Sequence[float],
    fields: Optional[Sequence[str]] = None,
    scale: Optional[float] = None,
    refine: Optional[str] = None,
    codec: str = "sz",
    n_workers: int = 0,
    collect_trace: bool = False,
    profile_mem: bool = False,
    retry=None,
    fault=None,
    executor: Optional[Executor] = None,
    cache=None,
) -> List[FieldResult]:
    """Run every (field, target) combination of a data set.

    Returns results ordered by (target, field registry order) so
    downstream tables are deterministic regardless of scheduling.
    With ``collect_trace=True`` each task records a stage-level trace
    (see :func:`run_field_task`); if a trace is also active in *this*
    process, the per-worker span records are merged into it under a
    ``field:<name>`` prefix.  ``profile_mem=True`` adds per-span peak
    memory to every task's records (see
    :mod:`repro.telemetry.memory`).

    The parent generates no field: tasks ship names and go out in
    field-major order, and each worker loads its fields through the
    per-process source (:func:`repro.datasets.load_field`).  With at
    least as many fields as workers, all targets of one field go to
    one worker, so each field is generated once per sweep; with fewer
    fields than workers the targets spread over the workers, and each
    worker that runs one generates the field once.  The serial path
    also generates each field once.

    ``retry`` is an optional
    :class:`repro.resilience.retry.RetryPolicy`.  Without one, any
    task exception propagates (fail-fast, the historical behaviour).
    With one, failing attempts are retried with backoff and a task
    that exhausts its budget yields a ``status="failed"`` result --
    the sweep always returns one :class:`FieldResult` per task.
    ``fault`` optionally injects a deterministic
    :class:`repro.resilience.inject.WorkerFault` into every task (the
    CI fault matrix's hook); it requires ``retry``.

    ``executor`` runs the sweep on a long-lived :class:`Executor`
    instead of a per-call one: ``n_workers`` is taken from the
    executor, its workers keep the fields they loaded for the next
    sweep, and nothing is torn down afterwards.

    ``cache`` is an optional :class:`repro.cache.CacheStore`: every
    task consults and feeds the shared blob cache (see
    :func:`run_field_task`), so a repeated sweep replays from disk.
    Hit results carry ``cache_hit=True`` but compare equal to fresh
    ones.
    """
    from repro.datasets.registry import get_dataset
    from repro.telemetry.registry import metrics as _metrics

    if fault is not None and retry is None:
        raise ParameterError(
            "fault injection requires a RetryPolicy (fail-fast sweeps "
            "would simply crash)"
        )
    ds = get_dataset(dataset, scale=scale)
    names = list(fields) if fields is not None else ds.field_names
    unknown = set(names) - set(ds.field_names)
    if unknown:
        raise ParameterError(f"unknown fields for {dataset}: {sorted(unknown)}")
    targets = [float(t) for t in targets]
    tasks: List[Tuple] = [
        (dataset, fname, t, scale, refine, codec, collect_trace,
         profile_mem, cache)
        for fname in names
        for t in targets
    ]
    _metrics().counter("parallel.field_tasks_total").inc(len(tasks))
    # A per-call pool on the retry path shuts down without waiting for
    # abandoned (hung) attempts; on a caller's executor such an attempt
    # keeps its worker busy until it finishes on its own.
    with executor_scope(executor, n_workers, wait=retry is None) as ex:
        workers = 0 if ex.inline else ex.n_workers
        # One worker per field when the fields can keep every worker busy.
        chunksize = max(1, len(targets)) if len(names) >= workers else 1
        if retry is None:
            results = ex.map(run_field_task, tasks, chunksize=chunksize)
        elif ex.inline:
            results = _sweep_inline_with_retry(
                tasks, retry, fault, _resilience_counters()
            )
        else:
            results = _sweep_pool_with_retry(
                tasks, retry, fault, _resilience_counters(), ex.pool
            )
    # Field-major task order back to (target, field) row order.
    results = [
        results[i * len(targets) + j]
        for j in range(len(targets))
        for i in range(len(names))
    ]
    trace = observe.current_trace()
    if trace.enabled:
        for r in results:
            if r.metrics:
                trace.merge(r.metrics["records"], prefix=(f"field:{r.field}",))
    return results
