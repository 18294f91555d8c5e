"""Pool-side execution of service jobs.

These functions are what actually runs inside the service's worker
pool (process or thread, see
:class:`repro.parallel.executor.Executor`), so they are module-level
and operate on plain dict specs -- both requirements for pickling into
worker processes.  Each returns a plain dict result: status, achieved
values, the compressed blob (when requested) and, when tracing is on,
the picklable span records for the dispatcher to merge into the
service trace.

Named fields come from the worker's per-process field source
(:func:`repro.datasets.load_field`): the first job for a field
generates it, later jobs in the same worker reuse the read-only array.

A PSNR job runs the fixed-PSNR step ``fpzc compress --psnr`` runs
(:func:`repro.cache.compress_psnr`, through the shared blob cache when
the service has one), and a ratio job the same
:func:`repro.autotune.autotune` search as ``fpzc compress --ratio``, so
those blobs are bit-identical to the CLI's -- the differential contract
the e2e tests assert.  NRMSE and MSE jobs also run the autotune search,
whereas ``fpzc compress --nrmse/--mse`` derives the bound in closed
form (Eq. 8 via Eq. 5/4), so their blobs differ from the CLI's.

``fault`` specs (deterministic worker faults from
:mod:`repro.resilience.inject`) only take effect when the service was
started with ``allow_faults`` -- they exist so the edge-case tests can
provoke hangs, crashes and poisoned results on demand.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import repro.observe as observe

__all__ = ["run_compress_job", "run_sweep_job", "run_autotune_job"]


def _spec_fault(spec: Dict):
    doc = spec.get("fault")
    if not doc:
        return None
    from repro.resilience.inject import WorkerFault

    return WorkerFault(
        kind=doc.get("kind", "exception"),
        fields=tuple(doc.get("fields") or ()),
        fail_attempts=int(doc.get("fail_attempts", 1)),
        hang_seconds=float(doc.get("hang_seconds", 5.0)),
    )


def _spec_cache(spec: Dict):
    """The shared :class:`repro.cache.CacheStore` named by the spec's
    ``cache`` document, or ``None`` when the service runs uncached."""
    doc = spec.get("cache")
    if not doc:
        return None
    from repro.cache import CacheStore

    return CacheStore(root=doc.get("dir"), max_bytes=doc.get("max_bytes"))


def _maybe_poisoned(spec: Dict) -> Optional[Dict]:
    """Apply a deterministic fault; ``None`` means proceed, a dict is
    a poisoned result to return verbatim (the dispatcher classifies
    it)."""
    fault = _spec_fault(spec)
    if fault is None:
        return None
    from repro.resilience.inject import apply_worker_fault

    poisoned = apply_worker_fault(
        fault, spec.get("field", ""), int(spec.get("attempt", 0))
    )
    if poisoned is not None:
        return {"status": "poisoned"}
    return None


def run_compress_job(spec: Dict) -> Dict:
    """One fixed-target compression: dataset field in, blob out.

    ``mode == "psnr"`` runs the paper's fixed-PSNR pipeline directly;
    ratio/NRMSE/MSE targets run a bounded autotune search and return
    its converged blob.  The result dict always carries
    ``achieved_psnr`` (measured on the reconstruction) so conformance
    tracking works for every mode.  The reconstruction comes from
    :func:`repro.sz.compressor.reconstruction`, so an sz blob is never
    decoded here; ``eb_rel`` is the bound the blob's header records.
    """
    poisoned = _maybe_poisoned(spec)
    if poisoned is not None:
        return poisoned
    from repro.datasets.source import load_field
    from repro.metrics.distortion import psnr as measure_psnr
    from repro.sz.compressor import reconstruction

    t0 = time.perf_counter()
    data = load_field(spec["dataset"], spec["field"], spec.get("scale"))
    mode = spec.get("mode", "psnr")
    target = float(spec["target"])
    codec = spec.get("codec", "sz")
    traced = bool(spec.get("traced"))
    local = observe.Trace() if traced else None

    cache = _spec_cache(spec)

    def _run() -> Dict:
        if mode == "psnr":
            from repro.cache.record import compress_psnr

            rec = compress_psnr(
                data, target, codec=codec, refine=spec.get("refine"),
                store=cache,
            )
            out = {
                "blob": rec.blob,
                "eb_rel": rec.eb_rel,
                "achieved": rec.achieved_psnr,
                "achieved_psnr": rec.achieved_psnr,
                "converged": True,
            }
            if rec.hit:
                out["cached"] = True
            return out
        from repro.autotune import autotune

        result = autotune(
            data,
            mode,
            target,
            codec=codec,
            tol=float(spec.get("tol", 0.05)),
            max_trials=int(spec.get("max_trials", 12)),
            keep_blob=True,
        )
        recon = reconstruction(data, result.blob)
        return {
            "blob": result.blob,
            "eb_rel": float(result.eb_rel),
            "achieved": float(result.achieved),
            "achieved_psnr": float(measure_psnr(data, recon)),
            "converged": bool(result.converged),
        }

    if local is not None:
        with observe.use_trace(local):
            with local.span("service.task") as sp:
                out = _run()
                sp.set("target", target)
    else:
        out = _run()
    blob = out.pop("blob")
    out.update(
        {
            "status": "ok",
            "mode": mode,
            "target": target,
            "raw_bytes": int(data.nbytes),
            "compressed_bytes": len(blob),
            "ratio": data.nbytes / len(blob),
            "seconds": time.perf_counter() - t0,
        }
    )
    if spec.get("keep_blob", True):
        out["blob"] = blob
    if local is not None:
        out["records"] = [r.as_dict() for r in local.records]
    return out


def run_sweep_job(spec: Dict, executor=None) -> Dict:
    """A full fixed-PSNR sweep (every requested field x target).

    Runs in the service process (a worker thread of the event loop's
    default pool) and fans out over the service's long-lived
    :class:`~repro.parallel.executor.Executor` -- the per-call pool
    startup the executor satellite removed.
    """
    poisoned = _maybe_poisoned(spec)
    if poisoned is not None:
        return poisoned
    from repro.parallel.executor import sweep_dataset

    t0 = time.perf_counter()
    results = sweep_dataset(
        spec["dataset"],
        targets=[float(t) for t in spec["targets"]],
        fields=list(spec["fields"]) or None,
        scale=spec.get("scale"),
        refine=spec.get("refine"),
        codec=spec.get("codec", "sz"),
        executor=executor,
        cache=_spec_cache(spec),
    )
    rows = [r.as_dict() for r in results]
    for row in rows:
        row.pop("metrics", None)
    met = sum(1 for r in results if r.ok and r.met)
    return {
        "status": "ok",
        "n_tasks": len(results),
        "n_met": met,
        "results": rows,
        "seconds": time.perf_counter() - t0,
    }


def run_autotune_job(spec: Dict, executor=None) -> Dict:
    """One autotune search over a dataset field, with the probe fan on
    the service's executor."""
    poisoned = _maybe_poisoned(spec)
    if poisoned is not None:
        return poisoned
    from repro.autotune import autotune
    from repro.datasets.source import load_field

    t0 = time.perf_counter()
    data = load_field(spec["dataset"], spec["field"], spec.get("scale"))
    result = autotune(
        data,
        spec.get("mode", "psnr"),
        float(spec["target"]),
        codec=spec.get("codec", "sz"),
        tol=float(spec.get("tol", 0.05)),
        max_trials=int(spec.get("max_trials", 12)),
        executor=executor,
        keep_blob=bool(spec.get("keep_blob", True)),
    )
    out = result.as_dict()
    out.update(
        {
            "status": "ok",
            "raw_bytes": int(data.nbytes),
            "seconds": time.perf_counter() - t0,
        }
    )
    if spec.get("keep_blob", True) and result.blob is not None:
        out["blob"] = result.blob
        out["compressed_bytes"] = len(result.blob)
        out["ratio"] = data.nbytes / len(result.blob)
    return out
