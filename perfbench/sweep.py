"""``atm_sweep``: the paper's Figure-2 experiment as ``fpzc sweep`` runs
it -- ``sweep_dataset("ATM", targets=[40, 60, 80], n_workers=2)`` over
all 79 fields (237 tasks), default shm transport, a pool per call, no
cache.

The traced run times the pooled sweep with parent-side shims only
(field generation, shm share, pool start), then replays the same 237
tasks serially (``n_workers=0``) under the full codec shims for the
per-task layer costs.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from typing import Dict, List

from harness import Tally, geomean, leak_check, mean, median, peak_rss_mb, timed_setup
from shims import Tracer, install_codec_shims
from codec import container_counts, layer_metrics

DATASET = "ATM"
TARGETS = (40.0, 60.0, 80.0)
N_WORKERS = 2
N_CHECKED = 6
MIN_SWEEPS = 2


def _install_parent_shims(tracer: Tracer) -> Dict[str, int]:
    from concurrent.futures import ProcessPoolExecutor

    import repro.parallel.executor as executor
    from repro.datasets.registry import Dataset
    from repro.parallel.shm import ShmArena

    starts = {"pools": 0}

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts["pools"] += 1
            super().__init__(*args, **kwargs)

    tracer.patch_method(Dataset, "field", "datasets.field_gen")
    tracer.patch_method(ShmArena, "share", "parallel.share")
    tracer.patch_attr(executor, "ProcessPoolExecutor", CountingPool)
    return starts


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir) -> dict:
    from repro.datasets.registry import get_dataset
    from repro.parallel.executor import run_field_task, sweep_dataset

    tally = Tally()
    names = get_dataset(DATASET).field_names
    n_tasks = len(names) * len(TARGETS)
    raw_mb = n_tasks * get_dataset(DATASET).field(names[0]).nbytes / 1e6

    # Set-up warms the pool path on a small sweep of the same shape.
    _, setup_s = timed_setup(
        lambda: sweep_dataset(DATASET, targets=[60.0], fields=names[:4], n_workers=N_WORKERS)
    )
    # Rows come back ordered by (target, field): row i is
    # (TARGETS[i // 79], names[i % 79]).  A seeded subset is checked
    # against the serial task function.
    checked = random.Random(seed).sample(range(n_tasks), N_CHECKED)
    expected = {
        i: run_field_task(DATASET, names[i % len(names)], TARGETS[i // len(names)])
        for i in checked
    }

    def check(rows) -> None:
        if len(rows) != n_tasks:
            tally.attempted += n_tasks
            tally.failed += n_tasks
            tally.messages.append(f"sweep returned {len(rows)} rows, expected {n_tasks}")
            return
        for i, row in enumerate(rows):
            ok = row.ok and (i not in expected or row == expected[i])
            tally.record(ok, f"task {i} ({row.field} @ {row.target_psnr:g}): {row.status}")

    tracer = None
    starts: Dict[str, int] = {}
    if trace:
        tracer = Tracer()
        starts = _install_parent_shims(tracer)
    sweep_s: List[float] = []
    start = time.perf_counter()
    try:
        while len(sweep_s) < MIN_SWEEPS or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            with tracer.span("sweep") if tracer is not None else nullcontext():
                rows = sweep_dataset(DATASET, targets=list(TARGETS), n_workers=N_WORKERS)
            sweep_s.append(time.perf_counter() - t0)
            check(rows)
    finally:
        if tracer is not None:
            tracer.restore()

    e2e = {
        "throughput_mbps": raw_mb / median(sweep_s),
        "latency_p50_ms": 1e3 * median(sweep_s),
        "ratio": geomean(r.compression_ratio for r in rows),
        "psnr_abs_dev_db": mean(abs(r.deviation) for r in rows),
        "psnr_met_frac": mean(float(r.met) for r in rows),
        "peak_rss_mb": peak_rss_mb(include_children=N_WORKERS),
        "setup_s": setup_s,
    }
    values = dict(e2e)
    if tracer is not None:
        n = len(sweep_s)
        field_gen = tracer.incl_time("datasets.field_gen") / n
        share = tracer.incl_time("parallel.share") / n
        pool_s = tracer.incl_time("sweep") / n - field_gen - share

        replay = Tracer()
        install_codec_shims(replay)
        try:
            with replay.span("sweep.serial"):
                serial_rows = sweep_dataset(DATASET, targets=list(TARGETS), n_workers=0)
        finally:
            replay.restore()
        for i, (a, b) in enumerate(zip(serial_rows, rows)):
            tally.record(a == b, f"serial replay differs on task {i}")
        serial_task_s = replay.incl_time("sweep.serial") - replay.incl_time("datasets.field_gen")

        values = layer_metrics(replay)
        values.update(container_counts(replay.captured["compress.sz"]))
        values.update({
            "datasets.field_gen_s": field_gen,
            "parallel.share_s": share,
            "parallel.pool_s": pool_s,
            "parallel.efficiency": serial_task_s / (N_WORKERS * pool_s),
            "parallel.tasks": n_tasks,
            "parallel.pool_starts": starts["pools"] / n,
            "traced.throughput_mbps": e2e["throughput_mbps"],
            "traced.latency_p50_ms": e2e["latency_p50_ms"],
        })
        summary = {"sweeps": n, "serial_replay_s": replay.incl_time("sweep.serial"),
                   "per_layer": values}
        tracer.records.extend(replay.records)
        tracer.write(out_dir / f"trace-{workload}-{seed}.json", summary)
    leak_check(tally)
    return {"values": values, "tally": tally}
