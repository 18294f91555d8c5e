"""The perf-regression gate behind ``fpzc bench``.

``fpzc bench`` runs a small fixed corpus (a handful of (data set,
field, codec, target) compressions, one mini sweep and two autotune
searches), collects stage traces, and writes three top-level baseline
files:

* ``BENCH_compress.json`` -- one entry per compress case,
* ``BENCH_sweep.json`` -- the mini sweep's outcome,
* ``BENCH_autotune.json`` -- the measurement-driven searches' cost
  (trial count, convergence, converged bound),
* ``BENCH_service.json`` -- the same jobs submitted through a live
  in-process compression service (``repro.service``): per-job bytes
  and achieved PSNR must match the serial pipeline exactly, plus
  service throughput timing.
* ``BENCH_cache.json`` -- the blob cache's correctness wall: a cold
  run misses, the warm rerun hits with bit-identical bytes and zero
  codec spans, and an undersized store evicts; warm-over-cold wall
  ratio lands under timing.

``fpzc bench --check`` re-runs the same corpus and compares against
the committed baselines:

* **hard failures** (exit 1) on any drift in a *deterministic* field
  -- compressed bytes, compression ratio, achieved PSNR, exact span
  counters.  These cannot drift from noise; a change means the
  pipeline's output changed.
* **soft warnings** on wall-time drift beyond ``--time-factor`` in
  either direction.  Timing varies across machines and CI runners, so
  the gate reports it without failing.

Every field of a baseline entry lives under either ``deterministic``
or ``timing`` -- the comparison logic never has to guess which is
which, and adding a new measurement forces the author to classify it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro.observe as observe
from repro.telemetry.ledger import git_rev

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "COMPRESS_CASES",
    "SWEEP_CASE",
    "AUTOTUNE_CASES",
    "SERVICE_CASES",
    "CACHE_CASE",
    "CACHE_WARM_THRESHOLD",
    "run_compress_bench",
    "run_sweep_bench",
    "run_autotune_bench",
    "run_service_bench",
    "run_cache_bench",
    "write_baselines",
    "compare_bench",
    "check_baselines",
    "BASELINE_FILES",
]

#: Version of the baseline file schema (bump on incompatible change).
BENCH_SCHEMA_VERSION = 1

#: Baseline file names, keyed by corpus part.
BASELINE_FILES = {
    "compress": "BENCH_compress.json",
    "sweep": "BENCH_sweep.json",
    "autotune": "BENCH_autotune.json",
    "service": "BENCH_service.json",
    "cache": "BENCH_cache.json",
}

#: The compress corpus: (dataset, field, codec, target PSNR).  Small
#: laptop-scale fields chosen to cover the prediction, transform and
#: block-selection pipelines without making the gate slow.
COMPRESS_CASES: Tuple[Tuple[str, str, str, float], ...] = (
    ("ATM", "CLDHGH", "sz", 80.0),
    ("ATM", "FLDS", "transform", 60.0),
    ("Hurricane", "TC", "sz", 80.0),
    ("NYX", "temperature", "hybrid", 60.0),
)

#: The sweep corpus: one dataset, two fields, two targets.
SWEEP_CASE = {
    "dataset": "ATM",
    "fields": ("CLDHGH", "FLDS"),
    "targets": (40.0, 80.0),
}

#: The autotune corpus: (dataset, field, codec, objective, target).
#: Tracks the cost of the measurement-driven search (trial count,
#: convergence, achieved value) so a regression in the search -- more
#: trials, a wider miss -- fails the gate like any byte drift.
AUTOTUNE_CASES: Tuple[Tuple[str, str, str, str, float], ...] = (
    ("ATM", "CLDHGH", "sz", "ratio", 10.0),
    ("ATM", "FLDS", "sz", "bitrate", 4.0),
)

#: The service corpus: compress jobs submitted concurrently through a
#: live in-process service (``kind`` is the job route).  Per-job bytes
#: and PSNR are deterministic -- the service runs the exact serial
#: pipeline -- while throughput lands under ``timing``.
SERVICE_CASES: Tuple[Tuple[str, str, str, float], ...] = (
    ("compress", "ATM", "CLDHGH", 40.0),
    ("compress", "ATM", "CLDHGH", 80.0),
    ("compress", "ATM", "FLDS", 40.0),
    ("compress", "ATM", "FLDS", 80.0),
)

#: The blob-cache corpus: one fixed-PSNR compression, cold then warm,
#: through a throwaway :class:`repro.cache.CacheStore`.  The warm run
#: must hit, must return bit-identical bytes and must run **zero**
#: codec spans -- a warm hit that recompresses is a hard gate failure.
CACHE_CASE = {
    "dataset": "ATM",
    "field": "CLDHGH",
    "codec": "sz",
    "target": 60.0,
}

#: Warn when the warm (cache-hit) run takes more than this fraction of
#: the cold run's wall time -- a hit is one file read and should be
#: orders of magnitude cheaper than a compression.
CACHE_WARM_THRESHOLD = 0.5

#: Span names that mean a codec actually ran (the warm-run trace must
#: contain none of them).
_CODEC_SPAN_NAMES = frozenset(
    (
        "fixed_psnr.compress",
        "sz.compress",
        "derive_bound",
        "quantize",
        "escape",
        "entropy",
    )
)


def _case_id(dataset: str, field: str, codec: str, target: float) -> str:
    return f"{dataset}/{field}/{codec}/{target:g}dB"


def run_compress_bench() -> Dict:
    """Run every compress case under a trace; returns the
    ``BENCH_compress.json`` document (schema + per-case entries, each
    split into ``deterministic`` and ``timing``)."""
    from repro.core.fixed_psnr import FixedPSNRCompressor
    from repro.datasets.registry import get_dataset
    from repro.metrics.distortion import psnr as measure_psnr
    from repro.telemetry.registry import record_trace

    cases: List[Dict] = []
    for dataset, field, codec, target in COMPRESS_CASES:
        data = get_dataset(dataset).field(field)
        comp = FixedPSNRCompressor(target, codec=codec)
        tr = observe.Trace()
        with observe.use_trace(tr):
            blob = comp.compress(data)
        record_trace(tr)
        recon = comp.decompress(blob)
        achieved = float(measure_psnr(data, recon))
        stage_seconds = {
            path[-1]: agg["duration_s"]
            for path, agg in tr.aggregate().items()
        }
        cases.append(
            {
                "id": _case_id(dataset, field, codec, target),
                "dataset": dataset,
                "field": field,
                "codec": codec,
                "target_psnr": target,
                "deterministic": {
                    "raw_bytes": int(data.nbytes),
                    "compressed_bytes": len(blob),
                    "ratio": round(data.nbytes / len(blob), 6),
                    "achieved_psnr": round(achieved, 6),
                    "trace": tr.deterministic_dict(),
                },
                "timing": {
                    "wall_s": sum(
                        agg["duration_s"]
                        for path, agg in tr.aggregate().items()
                        if len(path) == 1
                    ),
                    "stage_seconds": stage_seconds,
                },
            }
        )
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": "compress",
        "git_rev": git_rev(),
        "cases": cases,
    }


def run_sweep_bench() -> Dict:
    """Run the mini sweep under a trace; returns the
    ``BENCH_sweep.json`` document."""
    from repro.parallel.executor import sweep_dataset

    tr = observe.Trace()
    with observe.use_trace(tr):
        # The sweep's spans all sit under field:<name>, so there is no
        # root span to sum: time the call itself.
        t0 = time.perf_counter()
        results = sweep_dataset(
            SWEEP_CASE["dataset"],
            targets=list(SWEEP_CASE["targets"]),
            fields=list(SWEEP_CASE["fields"]),
            n_workers=0,
            collect_trace=True,
        )
        wall = time.perf_counter() - t0
    per_field = [
        {
            "id": _case_id(r.dataset, r.field, "sz", r.target_psnr),
            "deterministic": {
                "achieved_psnr": round(r.actual_psnr, 6),
                "ratio": round(r.compression_ratio, 6),
                "bit_rate": round(r.bit_rate, 6),
                "met": bool(r.met),
            },
        }
        for r in results
    ]
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": "sweep",
        "git_rev": git_rev(),
        "case": {
            "dataset": SWEEP_CASE["dataset"],
            "fields": list(SWEEP_CASE["fields"]),
            "targets": list(SWEEP_CASE["targets"]),
            "results": per_field,
            "timing": {"wall_s": wall},
        },
    }


def run_autotune_bench() -> Dict:
    """Run every autotune case under a trace; returns the
    ``BENCH_autotune.json`` document.

    Deterministic fields are everything the search's arithmetic pins
    down: the converged bound, the achieved value, the trial count and
    whether it converged.  The search runs without wall budgets,
    workers or ledger warm starts, so repeated runs are bit-identical.
    """
    from repro.autotune import autotune
    from repro.datasets.registry import get_dataset
    from repro.telemetry.registry import record_trace

    rows: List[Dict] = []
    wall = 0.0
    for dataset, field, codec, objective, target in AUTOTUNE_CASES:
        data = get_dataset(dataset).field(field)
        tr = observe.Trace()
        with observe.use_trace(tr):
            result = autotune(
                data,
                objective,
                target,
                codec=codec,
                tol=0.05,
                n_workers=0,
                keep_blob=False,
            )
        record_trace(tr)
        case_wall = sum(
            agg["duration_s"]
            for path, agg in tr.aggregate().items()
            if len(path) == 1
        )
        wall += case_wall
        rows.append(
            {
                "id": f"{dataset}/{field}/{codec}/{objective}={target:g}",
                "deterministic": {
                    "converged": bool(result.converged),
                    "eb_rel": round(result.eb_rel, 12),
                    "achieved": round(result.achieved, 6),
                    "n_trials": int(result.n_trials),
                    "subsample_trials": int(result.subsample_trials),
                    "stop_reason": result.stop_reason,
                },
                "timing": {"wall_s": case_wall},
            }
        )
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": "autotune",
        "git_rev": git_rev(),
        "case": {
            "cases": [
                f"{d}/{f}/{c}/{o}={t:g}" for d, f, c, o, t in AUTOTUNE_CASES
            ],
            "results": rows,
            "timing": {"wall_s": wall},
        },
    }


def run_service_bench() -> Dict:
    """Submit the service corpus through a live in-process service and
    return the ``BENCH_service.json`` document.

    Every job is submitted up front (so the queue and every dispatcher
    loop actually engage) and awaited; the deterministic block per job
    is the serial pipeline's output -- compressed bytes, ratio,
    achieved PSNR, terminal state -- which the service must reproduce
    exactly.  Queue scheduling shows up only under ``timing``.
    """
    import time

    from repro.service.testing import ServiceThread

    t0 = time.perf_counter()
    rows: List[Dict] = []
    with ServiceThread(n_workers=2, no_ledger=True) as st:
        client = st.client(timeout=300)
        jobs = [
            (
                client.submit(
                    kind,
                    {
                        "dataset": dataset,
                        "field": field,
                        "target": target,
                    },
                ),
                (kind, dataset, field, target),
            )
            for kind, dataset, field, target in SERVICE_CASES
        ]
        for job_id, (kind, dataset, field, target) in jobs:
            doc = client.wait(job_id, timeout=300)
            result = doc.get("result") or {}
            rows.append(
                {
                    "id": f"{kind}:{_case_id(dataset, field, 'sz', target)}",
                    "deterministic": {
                        "state": doc.get("state"),
                        "compressed_bytes": result.get("compressed_bytes"),
                        "ratio": round(float(result.get("ratio", 0.0)), 6),
                        "achieved_psnr": round(
                            float(result.get("achieved_psnr", 0.0)), 6
                        ),
                    },
                    "timing": {
                        "queued_s": doc.get("queued_s"),
                        "running_s": doc.get("running_s"),
                    },
                }
            )
    wall = time.perf_counter() - t0
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": "service",
        "git_rev": git_rev(),
        "case": {
            "cases": [r["id"] for r in rows],
            "results": rows,
            "timing": {
                "wall_s": wall,
                "jobs_per_s": round(len(rows) / wall, 4) if wall > 0 else 0.0,
            },
        },
    }


def run_cache_bench() -> Dict:
    """Cold-vs-warm runs of the fixed-PSNR step every entry point
    caches through (:func:`repro.cache.compress_psnr`) on a throwaway
    blob cache; returns the ``BENCH_cache.json`` document.

    Deterministic block: the cold run misses, the warm run hits, the
    warm bytes equal the cold bytes and the warm trace contains zero
    codec spans.  Any drift there means the cache is serving wrong
    bytes or silently recompressing -- both hard failures.  The
    warm-over-cold wall ratio lands under ``timing`` (soft warning via
    :data:`CACHE_WARM_THRESHOLD`).
    """
    import tempfile
    import time

    from repro.cache import CacheStore, compress_psnr
    from repro.datasets.registry import get_dataset

    cc = CACHE_CASE
    data = get_dataset(cc["dataset"]).field(cc["field"])
    target = float(cc["target"])

    with tempfile.TemporaryDirectory() as tmp:
        store = CacheStore(root=tmp)
        t0 = time.perf_counter()
        cold = compress_psnr(data, target, codec=cc["codec"], store=store)
        cold_wall = time.perf_counter() - t0
        tr = observe.Trace()
        t0 = time.perf_counter()
        with observe.use_trace(tr):
            warm = compress_psnr(data, target, codec=cc["codec"], store=store)
        warm_wall = time.perf_counter() - t0
        codec_spans = sum(
            1
            for rec in tr.records
            if rec.path and rec.path[-1] in _CODEC_SPAN_NAMES
        )
        # Eviction under pressure: a bound smaller than the one entry
        # must leave the store empty after the next sweep.
        tight = CacheStore(root=tmp, max_bytes=max(1, len(cold.blob) // 2))
        tight.evict()
        evicted = len(tight) == 0
    base_id = _case_id(cc["dataset"], cc["field"], cc["codec"], target)
    rows = [
        {
            "id": f"{base_id}/cold",
            "deterministic": {
                "hit": cold.hit,
                "compressed_bytes": len(cold.blob),
                "ratio": round(data.nbytes / len(cold.blob), 6),
            },
        },
        {
            "id": f"{base_id}/warm",
            "deterministic": {
                "hit": warm.hit,
                "identical": warm.blob == cold.blob,
                "codec_spans": codec_spans,
            },
        },
        {
            "id": f"{base_id}/eviction",
            "deterministic": {"evicted_under_pressure": bool(evicted)},
        },
    ]
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": "cache",
        "git_rev": git_rev(),
        "case": {
            "dataset": cc["dataset"],
            "cases": [r["id"] for r in rows],
            "results": rows,
            "timing": {
                "wall_s": cold_wall + warm_wall,
                "cold_wall_s": cold_wall,
                "warm_wall_s": warm_wall,
                "warm_over_cold": (
                    round(warm_wall / cold_wall, 4) if cold_wall > 0 else 0.0
                ),
            },
        },
    }


def write_baselines(directory: str = ".") -> List[Path]:
    """Run the full corpus and write both baseline files into
    ``directory``.  Returns the paths written."""
    outdir = Path(directory)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, doc in (
        ("compress", run_compress_bench()),
        ("sweep", run_sweep_bench()),
        ("autotune", run_autotune_bench()),
        ("service", run_service_bench()),
        ("cache", run_cache_bench()),
    ):
        path = outdir / BASELINE_FILES[name]
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written


# -- comparison ---------------------------------------------------------


def _diff_deterministic(prefix: str, base, fresh, failures: List[str]) -> None:
    """Recursively compare two deterministic sub-documents exactly."""
    if isinstance(base, dict) and isinstance(fresh, dict):
        for key in sorted(set(base) | set(fresh)):
            if key not in base:
                failures.append(f"{prefix}.{key}: new field (not in baseline)")
            elif key not in fresh:
                failures.append(f"{prefix}.{key}: missing from fresh run")
            else:
                _diff_deterministic(
                    f"{prefix}.{key}", base[key], fresh[key], failures
                )
        return
    if isinstance(base, list) and isinstance(fresh, list):
        if len(base) != len(fresh):
            failures.append(
                f"{prefix}: length {len(base)} -> {len(fresh)}"
            )
            return
        for i, (b, f) in enumerate(zip(base, fresh)):
            _diff_deterministic(f"{prefix}[{i}]", b, f, failures)
        return
    if base != fresh:
        failures.append(f"{prefix}: {base!r} -> {fresh!r}")


def _check_timing(
    prefix: str,
    base: Dict,
    fresh: Dict,
    time_factor: float,
    warnings: List[str],
) -> None:
    warm = fresh.get("warm_over_cold")
    if warm is not None and float(warm) > CACHE_WARM_THRESHOLD:
        warnings.append(
            f"{prefix}: warm (cache-hit) run took {float(warm):.2f}x the "
            f"cold run (target <= {CACHE_WARM_THRESHOLD:g}x -- a hit "
            "should be one file read, not a recompression)"
        )
    base_wall = float(base.get("wall_s", 0.0))
    fresh_wall = float(fresh.get("wall_s", 0.0))
    # Sub-millisecond walls are pure noise; don't warn on them.
    if base_wall < 1e-3 or fresh_wall < 1e-3:
        return
    if fresh_wall > base_wall * time_factor:
        warnings.append(
            f"{prefix}: wall time {base_wall:.4f}s -> {fresh_wall:.4f}s "
            f"(> x{time_factor:g} slower)"
        )
    elif fresh_wall * time_factor < base_wall:
        warnings.append(
            f"{prefix}: wall time {base_wall:.4f}s -> {fresh_wall:.4f}s "
            f"(> x{time_factor:g} faster -- update the baseline?)"
        )


def compare_bench(
    baseline: Dict, fresh: Dict, time_factor: float = 3.0
) -> Tuple[List[str], List[str]]:
    """Compare a fresh bench document against its baseline.

    Returns ``(failures, warnings)``: failures are deterministic-field
    drifts (the gate hard-fails), warnings are wall-time drifts beyond
    ``time_factor`` (the gate reports but passes).
    """
    failures: List[str] = []
    warnings: List[str] = []
    if baseline.get("schema") != fresh.get("schema"):
        failures.append(
            f"schema: {baseline.get('schema')} -> {fresh.get('schema')}"
        )
        return failures, warnings
    if baseline.get("kind") == "compress":
        base_cases = {c["id"]: c for c in baseline.get("cases", ())}
        fresh_cases = {c["id"]: c for c in fresh.get("cases", ())}
        for cid in sorted(set(base_cases) | set(fresh_cases)):
            if cid not in base_cases:
                failures.append(f"{cid}: case not in baseline")
                continue
            if cid not in fresh_cases:
                failures.append(f"{cid}: case missing from fresh run")
                continue
            _diff_deterministic(
                cid,
                base_cases[cid].get("deterministic", {}),
                fresh_cases[cid].get("deterministic", {}),
                failures,
            )
            _check_timing(
                cid,
                base_cases[cid].get("timing", {}),
                fresh_cases[cid].get("timing", {}),
                time_factor,
                warnings,
            )
    else:
        base_case = baseline.get("case", {})
        fresh_case = fresh.get("case", {})
        base_rows = {r["id"]: r for r in base_case.get("results", ())}
        fresh_rows = {r["id"]: r for r in fresh_case.get("results", ())}
        for rid in sorted(set(base_rows) | set(fresh_rows)):
            if rid not in base_rows:
                failures.append(f"{rid}: result not in baseline")
            elif rid not in fresh_rows:
                failures.append(f"{rid}: result missing from fresh run")
            else:
                _diff_deterministic(
                    rid,
                    base_rows[rid].get("deterministic", {}),
                    fresh_rows[rid].get("deterministic", {}),
                    failures,
                )
        _check_timing(
            f"{baseline.get('kind', 'sweep')}:"
            f"{base_case.get('dataset', 'corpus')}",
            base_case.get("timing", {}),
            fresh_case.get("timing", {}),
            time_factor,
            warnings,
        )
    return failures, warnings


def check_baselines(
    directory: str = ".",
    time_factor: float = 3.0,
    fresh_docs: Optional[Dict[str, Dict]] = None,
) -> Tuple[List[str], List[str]]:
    """Re-run the corpus (or use ``fresh_docs``, for tests) and compare
    against the baselines in ``directory``.

    Returns accumulated ``(failures, warnings)`` across both baseline
    files; a missing baseline file is itself a failure.
    """
    outdir = Path(directory)
    runners = {
        "compress": run_compress_bench,
        "sweep": run_sweep_bench,
        "autotune": run_autotune_bench,
        "service": run_service_bench,
        "cache": run_cache_bench,
    }
    failures: List[str] = []
    warnings: List[str] = []
    for name, runner in runners.items():
        path = outdir / BASELINE_FILES[name]
        if not path.exists():
            failures.append(
                f"{BASELINE_FILES[name]}: baseline missing "
                f"(run `fpzc bench` to create it)"
            )
            continue
        try:
            baseline = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            failures.append(f"{BASELINE_FILES[name]}: unreadable ({exc})")
            continue
        fresh = (
            fresh_docs[name] if fresh_docs and name in fresh_docs else runner()
        )
        f, w = compare_bench(baseline, fresh, time_factor=time_factor)
        failures.extend(f"{name}: {msg}" for msg in f)
        warnings.extend(f"{name}: {msg}" for msg in w)
    return failures, warnings
