#!/usr/bin/env python
"""CI fault-matrix driver: prove salvage and retry behave under injected faults.

Two modes, matching the two fault families of
:mod:`repro.resilience.inject`:

``salvage --case {bit_flip,truncate,drop_chunk,bad_header}``
    Builds a real FPZC container (via the SZ pipeline) and a real FPZA
    archive, aims the fault at every stream/field in turn across many
    seeds, salvages, and asserts every stream the fault did not touch
    comes back **bit-exactly** -- with a structured, typed
    :class:`~repro.resilience.salvage.SalvageReport` accounting for
    the rest.

``executor --case {recovery,exhaustion,timeout,poison}``
    Runs :func:`repro.parallel.executor.sweep_dataset` with an
    injected :class:`~repro.resilience.inject.WorkerFault` and a
    :class:`~repro.resilience.retry.RetryPolicy`, asserting the retry
    scheduler either recovers (bounded faults) or degrades to a
    partial result with per-field status (unbounded faults) instead
    of crashing the sweep.

Every fault is seeded, so a red matrix cell reproduces locally with
the exact command CI ran.  Exit code 0 means every assertion held.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ErrorCode
from repro.io.archive import write_archive
from repro.io.container import Container
from repro.parallel.executor import sweep_dataset
from repro.resilience import (
    RetryPolicy,
    WorkerFault,
    corrupt_archive_field,
    corrupt_container_stream,
    inject,
    salvage_archive,
    salvage_container,
)

# Small but real: three genuinely compressed fields keep a matrix cell
# under a few seconds while exercising the actual stream layout.
FIELDS = ("temperature", "velocity_x", "baryon_density")
TARGET_PSNR = 60.0


def _build_container() -> bytes:
    """A genuine FPZC container from the SZ pipeline (not toy bytes)."""
    from repro.datasets.registry import get_dataset
    from repro.sz.compressor import compress

    field = get_dataset("NYX", scale=0.04).field(FIELDS[0])
    return compress(np.ascontiguousarray(field), 1e-3, mode="rel")


def _build_archive() -> Tuple[bytes, Dict[str, bytes]]:
    from repro.datasets.registry import get_dataset
    from repro.sz.compressor import compress

    ds = get_dataset("NYX", scale=0.04)
    fields = {
        name: compress(np.ascontiguousarray(ds.field(name)), 1e-3, mode="rel")
        for name in FIELDS
    }
    return write_archive(fields.items()), fields


def _check_report(report, kind: str) -> None:
    assert report.kind == kind, report.kind
    for outcome in report.lost:
        assert outcome.code in ErrorCode.ALL, outcome
    assert report.resyncs >= 0


def _salvage_container_case(case: str, seeds: int) -> int:
    """Returns the number of (seed, target-stream) cells checked."""
    blob = _build_container()
    original = Container.from_bytes(blob)
    payloads = dict(original.streams)
    names = list(payloads)
    checked = 0
    for seed in range(seeds):
        if case == "bad_header":
            targets = [None]  # header faults are not per-stream
        else:
            targets = names
        for target in targets:
            if target is None:
                bad = inject(blob, "bad_header", seed=seed)
            else:
                bad = corrupt_container_stream(blob, target, case, seed=seed)
            container, report = salvage_container(bad)
            _check_report(report, "container")
            got = dict(container.streams)
            survivors = _expected_survivors(names, target, case)
            for name in survivors:
                assert got.get(name) == payloads[name], (
                    f"stream {name!r} not bit-exact "
                    f"(case={case}, seed={seed}, target={target})"
                )
            checked += 1
    return checked


def _salvage_archive_case(case: str, seeds: int) -> int:
    blob, fields = _build_archive()
    names = list(fields)
    checked = 0
    for seed in range(seeds):
        targets = [None] if case == "bad_header" else names
        for target in targets:
            if target is None:
                bad = inject(blob, "bad_header", seed=seed)
            else:
                bad = corrupt_archive_field(blob, target, case, seed=seed)
            recovered, report = salvage_archive(bad)
            _check_report(report, "archive")
            survivors = _expected_survivors(names, target, case)
            for name in survivors:
                assert recovered.get(name) == fields[name], (
                    f"field {name!r} not bit-exact "
                    f"(case={case}, seed={seed}, target={target})"
                )
            checked += 1
    return checked


def _expected_survivors(
    names: List[str], target, case: str
) -> List[str]:
    """Which streams a correctly-working salvage MUST recover.

    ``bit_flip``/``drop_chunk`` are confined to the target's payload
    span, and ``bad_header`` touches only the header, so everything
    except the target must survive.  ``truncate`` cuts inside the
    target and discards the tail -- only streams *before* it are
    guaranteed.
    """
    if case == "bad_header":
        return list(names)
    if case == "truncate":
        return names[: names.index(target)]
    return [n for n in names if n != target]


def run_salvage(case: str, seeds: int) -> int:
    n_container = _salvage_container_case(case, seeds)
    n_archive = _salvage_archive_case(case, seeds)
    print(
        f"fault-matrix salvage/{case}: {n_container} container + "
        f"{n_archive} archive cells, every untouched stream bit-exact"
    )
    return 0


# ---------------------------------------------------------------------------
# executor scenarios
# ---------------------------------------------------------------------------

_FAST_RETRY = dict(backoff_base=0.01, backoff_max=0.05, seed=0)


def _sweep(fault: WorkerFault, retry: RetryPolicy, n_workers: int = 0):
    return sweep_dataset(
        "NYX",
        targets=[TARGET_PSNR],
        fields=list(FIELDS),
        scale=0.04,
        n_workers=n_workers,
        retry=retry,
        fault=fault,
    )


def _scenario_recovery() -> None:
    """A crash on the first attempt is retried and succeeds."""
    fault = WorkerFault("exception", fields=(FIELDS[0],), fail_attempts=1)
    results = _sweep(fault, RetryPolicy(max_retries=2, **_FAST_RETRY))
    assert all(r.ok for r in results), [
        (r.field, r.status) for r in results
    ]
    hit = [r for r in results if r.field == FIELDS[0]]
    assert hit and all(r.attempts == 2 for r in hit), hit
    assert all(math.isfinite(r.actual_psnr) for r in results)


def _scenario_exhaustion() -> None:
    """A task that fails every attempt degrades to a partial sweep
    result with per-field status instead of crashing."""
    fault = WorkerFault("exception", fields=(FIELDS[0],), fail_attempts=99)
    results = _sweep(fault, RetryPolicy(max_retries=2, **_FAST_RETRY))
    failed = [r for r in results if not r.ok]
    assert [r.field for r in failed] == [FIELDS[0]], failed
    assert failed[0].status == "failed", failed[0]
    assert failed[0].error_code == ErrorCode.TASK_FAILED, failed[0]
    assert failed[0].attempts == 3, failed[0]
    ok = [r for r in results if r.ok]
    assert len(ok) == len(FIELDS) - 1 and all(
        math.isfinite(r.actual_psnr) for r in ok
    )


def _scenario_timeout() -> None:
    """A hung worker trips the per-task deadline in pool mode; the
    retry (fault no longer applies) succeeds."""
    # The deadline clock starts at submit and so covers queue wait and
    # cold worker spawn -- keep it generous relative to startup, with
    # one worker per task, and make the hang clearly longer still.
    fault = WorkerFault(
        "hang", fields=(FIELDS[0],), fail_attempts=1, hang_seconds=8.0
    )
    retry = RetryPolicy(max_retries=2, task_timeout=4.0, **_FAST_RETRY)
    results = _sweep(fault, retry, n_workers=len(FIELDS))
    assert all(r.ok for r in results), [
        (r.field, r.status, r.error_code) for r in results
    ]
    hit = [r for r in results if r.field == FIELDS[0]]
    assert hit and all(r.attempts >= 2 for r in hit), hit


def _scenario_poison() -> None:
    """A worker returning garbage instead of a FieldResult is treated
    as a failure, not propagated into the result list."""
    fault = WorkerFault("poison", fields=(FIELDS[0],), fail_attempts=99)
    results = _sweep(fault, RetryPolicy(max_retries=1, **_FAST_RETRY))
    failed = [r for r in results if not r.ok]
    assert [r.field for r in failed] == [FIELDS[0]], failed
    assert failed[0].error_code == ErrorCode.POISONED_RESULT, failed[0]


_SCENARIOS = {
    "recovery": _scenario_recovery,
    "exhaustion": _scenario_exhaustion,
    "timeout": _scenario_timeout,
    "poison": _scenario_poison,
}


def run_executor(case: str) -> int:
    _SCENARIOS[case]()
    print(f"fault-matrix executor/{case}: OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p_salvage = sub.add_parser("salvage")
    p_salvage.add_argument(
        "--case",
        required=True,
        choices=["bit_flip", "truncate", "drop_chunk", "bad_header"],
    )
    p_salvage.add_argument("--seeds", type=int, default=10)
    p_exec = sub.add_parser("executor")
    p_exec.add_argument(
        "--case", required=True, choices=sorted(_SCENARIOS)
    )
    args = parser.parse_args(argv)
    if args.mode == "salvage":
        return run_salvage(args.case, args.seeds)
    return run_executor(args.case)


if __name__ == "__main__":
    sys.exit(main())
