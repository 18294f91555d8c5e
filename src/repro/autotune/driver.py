"""The autotune driver: subsampling, caching, fan-out, telemetry.

:func:`autotune` is the subsystem's front door.  It layers, from the
inside out:

1. the raw objective evaluation (one trial compression,
   :mod:`repro.autotune.objective`),
2. trial memoization (:class:`repro.autotune.cache.TrialCache`),
3. **subsampled early iterations**: above a size threshold the search
   first runs on a strided subsample (~``subsample_target`` elements,
   dimensionality preserved), then re-anchors on the full data from
   the subsample's converged bound.  Small-field trials are an order
   of magnitude cheaper, and the full-data confirmation pass corrects
   the subsample's rate bias within a couple of trials;
4. **parallel pre-probes**: with ``n_workers > 0`` (or a pooled
   ``executor``) a small geometric fan of bounds around the warm
   start is evaluated concurrently through
   :meth:`repro.parallel.executor.Executor.map` and fed into the
   cache, so the sequential search's first probes are cache hits;
5. the searcher itself (:mod:`repro.autotune.search`);
6. telemetry: the whole run is an ``autotune`` span, every trial an
   ``autotune.trial`` span, and the process
   :class:`~repro.telemetry.registry.MetricsRegistry` accumulates
   search counters (trials, cache hits, convergence, bound
   trajectory).

Degenerate inputs fail fast: a constant (zero-range) field has no
meaningful rate-distortion trade-off, so the driver raises
:class:`~repro.errors.ParameterError` instead of looping a search that
cannot converge.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence

import numpy as np

import repro.observe as observe
from repro.autotune.cache import (
    TrialCache,
    warm_start,
    warm_start_from_store,
)
from repro.autotune.objective import Objective, get_objective
from repro.autotune.search import (
    DEFAULT_EB_HI,
    DEFAULT_EB_LO,
    SearchResult,
    relative_error,
    search,
)
from repro.cache.store import data_digest
from repro.errors import ParameterError
from repro.metrics.distortion import value_range

__all__ = ["AutotuneResult", "autotune"]

#: Fields above this many elements run the subsampled pre-search.
SUBSAMPLE_THRESHOLD = 1 << 17

#: Approximate element count of the strided subsample.
SUBSAMPLE_TARGET = 1 << 15

#: Geometric spacing of the parallel pre-probe fan (in eb space).
_PROBE_SPREAD = 8.0


@dataclass
class AutotuneResult:
    """A finished autotune run: the converged bound and how it was
    found.  ``search`` is the full-data :class:`SearchResult`;
    ``blob`` is the compressed container at the returned bound."""

    objective: str
    codec: str
    target: float
    tolerance: float
    converged: bool
    eb_rel: float
    achieved: float
    n_trials: int
    cache_hits: int
    subsample_trials: int
    stop_reason: str
    search: SearchResult
    subsample_search: Optional[SearchResult] = None
    blob: Optional[bytes] = dc_field(default=None, repr=False)
    trial_history: List = dc_field(default_factory=list)

    @property
    def deviation(self) -> float:
        return relative_error(self.achieved, self.target)

    def as_dict(self) -> Dict:
        """JSON-friendly summary (without the payload)."""
        return {
            "objective": self.objective,
            "codec": self.codec,
            "target": self.target,
            "tolerance": self.tolerance,
            "converged": self.converged,
            "eb_rel": self.eb_rel,
            "achieved": self.achieved,
            "deviation": self.deviation,
            "n_trials": self.n_trials,
            "cache_hits": self.cache_hits,
            "subsample_trials": self.subsample_trials,
            "stop_reason": self.stop_reason,
            "search": self.search.as_dict(),
        }

    def report(self) -> str:
        """Human-readable convergence report."""
        head = (
            f"autotune[{self.objective} -> {self.target:g} "
            f"+/- {100 * self.tolerance:g}%, codec {self.codec}]: "
            f"{self.n_trials} trials "
            f"({self.subsample_trials} subsampled, "
            f"{self.cache_hits} cache hits)"
        )
        return head + "\n" + self.search.report()


def _strided_subsample(data: np.ndarray, target_elements: int) -> np.ndarray:
    """Deterministic strided subsample preserving dimensionality.

    One shared stride per axis (ceil of the per-axis reduction factor),
    so the subsample keeps the field's smoothness structure -- which is
    what the codecs' rate depends on -- rather than shuffling points.
    """
    if data.size <= target_elements:
        return data
    ndim = max(1, data.ndim)
    factor = (data.size / target_elements) ** (1.0 / ndim)
    strides = tuple(
        max(1, int(np.ceil(min(factor, n)))) for n in data.shape
    )
    view = data[tuple(slice(None, None, s) for s in strides)]
    return np.ascontiguousarray(view)


def _probe_task(spec: Dict, payload, eb_rel: float):
    """Module-level trial evaluation for worker processes: rebuild the
    objective from its picklable spec and run one trial.  ``payload``
    is what :meth:`repro.parallel.shm.ShmArena.share` returned for the
    field: its key, or the field itself."""
    from repro.parallel.shm import resolve

    obj = get_objective(
        spec["name"], spec["target"], codec=spec["codec"],
        **spec["codec_options"],
    )
    return obj.evaluate(resolve(payload), eb_rel)


def _prefill_probes(
    objective: Objective,
    data: np.ndarray,
    fp: str,
    cache: TrialCache,
    center: float,
    n_workers: int,
    lo: float,
    hi: float,
    executor=None,
) -> None:
    """Evaluate a geometric fan of bounds around ``center`` in
    parallel and feed the cache (speculative FRaZ-style fan-out).

    The fan runs on ``executor``, or on a per-call pool of
    ``n_workers``.  Every probe evaluates the *same* array: the workers
    of a per-call fork pool read it from the memory they inherit, and a
    caller's process executor receives it by pickle with each probe.
    """
    from repro.parallel.executor import payload_scope

    bounds = sorted(
        {
            min(hi, max(lo, b))
            for b in (
                center / _PROBE_SPREAD,
                center,
                center * _PROBE_SPREAD,
            )
        }
    )
    todo = [
        b for b in bounds
        if cache.get(fp, objective.codec, objective.name, b) is None
    ]
    # The misses get re-counted when the search probes them via the
    # cache; correct the double count.
    cache.misses -= len(todo)
    if not todo:
        return
    spec = objective.spec()
    with payload_scope(executor, n_workers) as (ex, arena):
        payload = arena.share(data)
        trials = ex.map(_probe_task, [(spec, payload, b) for b in todo])
    for t in trials:
        cache.put(fp, objective.codec, objective.name, t)


def autotune(
    data,
    objective,
    target: Optional[float] = None,
    *,
    codec: str = "sz",
    tol: float = 0.05,
    max_trials: int = 12,
    max_seconds: Optional[float] = None,
    eb_lo: float = DEFAULT_EB_LO,
    eb_hi: float = DEFAULT_EB_HI,
    initial: Optional[float] = None,
    subsample_threshold: int = SUBSAMPLE_THRESHOLD,
    subsample_target: int = SUBSAMPLE_TARGET,
    n_workers: int = 0,
    executor=None,
    cache: Optional[TrialCache] = None,
    store=None,
    ledger_entries: Optional[Sequence] = None,
    keep_blob: bool = True,
    **codec_options,
) -> AutotuneResult:
    """Search the error-bound space until ``objective`` meets its
    target on ``data``.

    Parameters
    ----------
    data:
        The array to tune for (float32/float64, any dimensionality).
    objective:
        A built-in objective name (``"ratio"``, ``"bitrate"``,
        ``"psnr"``, ``"nrmse"``, ``"mse"``, ``"ssim"``,
        ``"max_error"``) with ``target`` giving the value to hit, or a
        ready :class:`~repro.autotune.objective.Objective` instance
        (then ``target``/``codec``/``codec_options`` are taken from
        it).
    tol:
        Relative convergence tolerance (0.05 = within 5%).
    max_trials, max_seconds:
        Hard budget across subsampled *and* full-data trials.
    initial:
        Explicit warm-start bound; otherwise mined from
        ``ledger_entries`` (see :func:`repro.autotune.cache.warm_start`)
        and finally the objective's model-based default guess.
    n_workers:
        Parallel pre-probe fan-out on a per-call pool of this many
        processes (0 = inline, no fan).  Its forked workers read the
        field from the memory they inherit; results are identical on
        every path.
    executor:
        An optional long-lived
        :class:`repro.parallel.executor.Executor`; the probe fan then
        runs on its warm pool (``n_workers`` is taken from it) instead
        of starting one per call.
    cache:
        A :class:`TrialCache` to reuse across calls (sibling fields,
        repeated targets); a private one is created per call otherwise.
    store:
        A :class:`repro.cache.CacheStore` backing the trial cache, so
        trials persist across processes and the warm start can mine
        prior runs' achieved PSNR from the store when the ledger has
        nothing (ignored when an explicit ``cache`` is passed that
        already has a backend).
    keep_blob:
        Keep the compressed container of the best full-data trial on
        the result (so converged output needs no recompression).

    Raises
    ------
    ParameterError
        On a constant (zero-range), empty or non-finite field, bad
        budgets/tolerances, or an unknown objective/codec.
    """
    data = np.asarray(data)
    if data.size == 0:
        raise ParameterError("cannot autotune an empty array")
    if value_range(data) == 0.0:
        raise ParameterError(
            "cannot autotune a constant field: every bound yields the "
            "same degenerate container, so no target is reachable"
        )
    if isinstance(objective, str):
        if target is None:
            raise ParameterError(
                f"objective {objective!r} needs a target value"
            )
        obj = get_objective(objective, target, codec=codec, **codec_options)
    else:
        obj = objective
        if target is not None and float(target) != obj.target:
            raise ParameterError(
                "pass the target either on the objective or as an "
                "argument, not two different values"
            )
    from repro.telemetry.registry import RATIO_BUCKETS, metrics

    reg = metrics()
    if cache is None:
        cache = TrialCache(store=store)
    elif store is not None and cache.store is None:
        cache.store = store
    fan_out = (
        executor is not None and not executor.inline
    ) or n_workers > 0
    fp = data_digest(data)
    trace = observe.current_trace()
    with trace.span("autotune") as root:
        if trace.enabled:
            # Gauges are numeric; the objective name travels in the
            # ledger record, not the trace.
            root.set("target", float(obj.target))
        # -- warm start --------------------------------------------------
        guess = initial
        if guess is None and ledger_entries:
            guess = warm_start(obj, ledger_entries)
        if guess is None and cache.store is not None:
            guess = warm_start_from_store(obj, cache.store, fp)
        if guess is None:
            guess = obj.default_guess(data)
        guess = min(eb_hi, max(eb_lo, float(guess)))
        history: List = []
        budget_left = int(max_trials)

        def tracked(evaluate):
            def wrapped(eb_rel: float):
                t = evaluate(eb_rel)
                history.append(t)
                if not t.cached:
                    reg.counter("autotune.trials_total").inc()
                    reg.histogram("autotune.trial_eb_rel").observe(t.eb_rel)
                return t

            return wrapped

        # -- subsampled pre-search --------------------------------------
        sub_result = None
        sub_trials = 0
        if data.size > subsample_threshold:
            sub = _strided_subsample(data, subsample_target)
            sub_fp = data_digest(sub)
            with trace.span("autotune.subsample") as sp:
                if trace.enabled:
                    sp.set("elements", int(sub.size))
                if fan_out:
                    _prefill_probes(
                        obj, sub, sub_fp, cache, guess, n_workers,
                        eb_lo, eb_hi, executor=executor,
                    )
                sub_eval = tracked(
                    cache.wrap(
                        lambda eb: obj.evaluate(sub, eb),
                        sub_fp, obj.codec, obj.name,
                    )
                )
                # Leave at least a third of the budget for the
                # full-data confirmation search.
                sub_budget = max(1, budget_left - max(2, budget_left // 3))
                sub_result = search(
                    sub_eval,
                    obj.target,
                    increasing=obj.increasing,
                    tol=tol,
                    initial=guess,
                    lo=eb_lo,
                    hi=eb_hi,
                    max_trials=sub_budget,
                    max_seconds=max_seconds,
                )
            sub_trials = sub_result.n_trials
            budget_left -= sub_trials
            guess = sub_result.eb_rel
        elif fan_out:
            _prefill_probes(
                obj, data, fp, cache, guess, n_workers, eb_lo, eb_hi,
                executor=executor,
            )
        # -- full-data search -------------------------------------------
        full_eval = tracked(
            cache.wrap(
                lambda eb: obj.evaluate(data, eb, keep_blob=keep_blob),
                fp, obj.codec, obj.name,
            )
        )
        result = search(
            full_eval,
            obj.target,
            increasing=obj.increasing,
            tol=tol,
            initial=guess,
            lo=eb_lo,
            hi=eb_hi,
            max_trials=max(1, budget_left),
            max_seconds=max_seconds,
        )
        best_blob: Optional[bytes] = None
        if keep_blob:
            for t in result.trials:
                if t.eb_rel == result.eb_rel and t.blob is not None:
                    best_blob = t.blob
            if best_blob is None:
                # Best trial came from the cache (no payload retained);
                # recompress once at the converged bound.
                best_blob = obj.evaluate(
                    data, result.eb_rel, keep_blob=True
                ).blob
        n_trials = len(history)
        if trace.enabled:
            root.set("n_trials", n_trials)
            root.set("converged", 1 if result.converged else 0)
            root.set("eb_rel", result.eb_rel)
    reg.counter("autotune.searches_total").inc()
    if result.converged:
        reg.counter("autotune.converged_total").inc()
    reg.counter("autotune.cache_hits_total").inc(cache.hits)
    if cache.store_hits:
        reg.counter(
            "autotune.store_hits_total",
            help="trial-cache hits served by the persistent store",
            deterministic=False,
        ).inc(cache.store_hits)
    reg.gauge("autotune.last_trials").set(n_trials)
    reg.histogram(
        "autotune.cache_hit_ratio", buckets=RATIO_BUCKETS
    ).observe(cache.hit_ratio)
    return AutotuneResult(
        objective=obj.name,
        codec=obj.codec,
        target=obj.target,
        tolerance=tol,
        converged=result.converged,
        eb_rel=result.eb_rel,
        achieved=result.achieved,
        n_trials=n_trials,
        cache_hits=cache.hits,
        subsample_trials=sub_trials,
        stop_reason=result.stop_reason,
        search=result,
        subsample_search=sub_result,
        blob=best_blob if keep_blob else None,
        trial_history=history,
    )
