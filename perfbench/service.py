"""``service_jobs``: ``fpzc serve --pool process --workers 2`` as a real
subprocess (blob cache off, ledger in a throwaway file), driven by two
closed-loop client threads.  Each job: submit an ATM compress job,
poll its status every :data:`POLL_S` until it is terminal, fetch the
blob.  Latency runs from submit to having the blob.

The jobs cycle through 6 fields x {40, 60, 80} dB in an order drawn
from the seed; every fetched blob must match, by SHA-256, the blob the
in-process ``FixedPSNRCompressor`` makes for the same spec.  A warm-up
pass is discarded.  The traced run also wraps the client calls and
replays each spec's worker function (``run_compress_job``) in-process
under the codec shims, to split the server-reported running time.
"""

from __future__ import annotations

import hashlib
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

from harness import (
    Tally, children_of, geomean, leak_check, mean, median, percentile,
    timed_setup, vm_hwm_mb,
)
from shims import Tracer, install_codec_shims
from codec import container_counts, layer_metrics

DATASET = "ATM"
FIELDS = ("CLDHGH", "FLDS", "PRECT", "PSL", "TS", "U10")
TARGETS = (40.0, 60.0, 80.0)
N_CLIENTS = 2
#: Status poll interval: well under the ~50-100 ms a job takes, so
#: polling granularity adds little to the measured latency.
POLL_S = 0.005
JOB_TIMEOUT_S = 30.0
READY_TIMEOUT_S = 60.0
TERMINAL = ("done", "failed", "timeout", "cancelled")


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """One ``fpzc serve`` subprocess."""

    def __init__(self, root: Path, out_dir: Path, tag: str):
        from repro.service.client import ServiceClient

        self.port = _free_port()
        self.ledger = out_dir / f"ledger-{tag}.jsonl"
        self.log_path = out_dir / f"server-{tag}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        self.log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(self.port),
             "--pool", "process", "--workers", "2", "--ledger", str(self.ledger),
             "--grace", "10"],
            cwd=root, env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.url = f"http://127.0.0.1:{self.port}"
        self.client = ServiceClient(self.url, timeout=JOB_TIMEOUT_S, retry_429=0)
        self.pids: List[int] = [self.proc.pid]

    def wait_ready(self) -> bool:
        from repro.errors import TransportError
        from repro.service.client import ServiceError

        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline and self.proc.poll() is None:
            try:
                if self.client.readyz():
                    return True
            except (ServiceError, TransportError):
                pass
            time.sleep(0.01)
        return False

    def process_tree(self) -> List[int]:
        return [self.proc.pid, *children_of(self.proc.pid)]

    def stop(self) -> int:
        """SIGTERM, wait for the drain; returns the exit code (-9 when
        it had to be killed)."""
        self.pids = self.process_tree()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rc = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            rc = -9
        self.log.close()
        return rc

    def cleanup(self, keep_log: bool) -> None:
        self.ledger.unlink(missing_ok=True)
        if not keep_log:
            self.log_path.unlink(missing_ok=True)


def _specs(seed: int) -> List[Dict]:
    specs = [
        {"dataset": DATASET, "field": f, "mode": "psnr", "target": t, "codec": "sz"}
        for f in FIELDS for t in TARGETS
    ]
    random.Random(seed).shuffle(specs)
    return specs


def _references(specs: List[Dict]):
    """SHA-256, ratio and achieved PSNR of the in-process blob per spec."""
    from repro.core.fixed_psnr import FixedPSNRCompressor
    from repro.datasets.registry import get_dataset
    from repro.metrics.distortion import psnr

    refs, blobs = [], []
    for spec in specs:
        data = get_dataset(spec["dataset"]).field(spec["field"])
        comp = FixedPSNRCompressor(spec["target"], codec=spec["codec"])
        blob = comp.compress(data)
        achieved = float(psnr(data, comp.decompress(blob)))
        refs.append({
            "sha256": hashlib.sha256(blob).hexdigest(),
            "ratio": data.nbytes / len(blob),
            "achieved": achieved,
            "raw_mb": data.nbytes / 1e6,
        })
        blobs.append(blob)
    return refs, blobs


def _client_loop(client, specs, refs, offset, stop_at, max_jobs, results, lock):
    """Closed loop: the next job is submitted only once the previous
    one's blob is in hand."""
    from repro.errors import TransportError
    from repro.service.client import ServiceError

    k = offset
    done = 0
    while time.perf_counter() < stop_at and done < max_jobs:
        i = k % len(specs)
        k += 1
        done += 1
        rec = {"spec": i, "ok": False, "polls": 0}
        t0 = time.perf_counter()
        try:
            job_id = str(client.submit_doc("compress", specs[i])["id"])
            while True:
                doc = client.status(job_id)
                rec["polls"] += 1
                if doc.get("state") in TERMINAL:
                    break
                if time.perf_counter() - t0 > JOB_TIMEOUT_S:
                    raise TimeoutError(f"job {job_id} still {doc.get('state')}")
                time.sleep(POLL_S)
            if doc["state"] != "done":
                raise RuntimeError(f"job {job_id} ended {doc['state']}: {doc.get('error')}")
            blob = client.fetch_blob(job_id)
            rec["latency_s"] = time.perf_counter() - t0
            rec["ok"] = hashlib.sha256(blob).hexdigest() == refs[i]["sha256"]
            rec["error"] = "" if rec["ok"] else "blob differs from the in-process blob"
            rec["queued_s"] = float(doc.get("queued_s", 0.0))
            rec["running_s"] = float(doc.get("running_s", 0.0))
        except (ServiceError, TransportError, TimeoutError, RuntimeError) as exc:
            rec["error"] = str(exc)
        rec["end"] = time.perf_counter()
        with lock:
            results.append(rec)


def _drive(server: Server, specs, refs, seconds: float, max_jobs: int) -> List[Dict]:
    from repro.service.client import ServiceClient

    results: List[Dict] = []
    lock = threading.Lock()
    stop_at = time.perf_counter() + seconds
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(ServiceClient(server.url, timeout=JOB_TIMEOUT_S, retry_429=0),
                  specs, refs, c * len(specs) // N_CLIENTS, stop_at, max_jobs,
                  results, lock),
        )
        for c in range(N_CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def _batch_stats(server: Server):
    hist = server.client.metrics_json()["metrics"].get("service.batch_size", {})
    return float(hist.get("sum", 0.0)), float(hist.get("count", 0.0))


def _install_client_shims(tracer: Tracer) -> None:
    from repro.service.client import ServiceClient

    tracer.patch_method(ServiceClient, "submit_doc", "service.submit_rtt")
    tracer.patch_method(ServiceClient, "status", "service.poll_rtt")
    tracer.patch_method(ServiceClient, "fetch_blob", "service.fetch_rtt")


def _replay(specs: List[Dict]):
    """Run each spec's worker function in-process under the codec
    shims; returns the tracer and the mean wall seconds per job."""
    from repro.service.tasks import run_compress_job

    tracer = Tracer()
    install_codec_shims(tracer)
    try:
        t0 = time.perf_counter()
        for spec in specs:
            run_compress_job(dict(spec))
        per_job = (time.perf_counter() - t0) / len(specs)
    finally:
        tracer.restore()
    return tracer, per_job


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    root = out_dir.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    specs = _specs(seed)
    servers: List[Server] = []

    def start() -> Server:
        server = Server(root, out_dir, f"{os.getpid()}-{len(servers)}")
        servers.append(server)
        tally.record(server.wait_ready(), f"server on port {server.port} never became ready")
        return server

    def stop(server: Server) -> None:
        rc = server.stop()
        tally.record(rc == 0, f"server exited {rc} after SIGTERM, expected 0")

    # setup_s = spawn until /readyz answers.  Each earlier server is
    # stopped, untimed, before the next spawn; the last one serves the
    # run.
    server, setup_s = timed_setup(start, between=lambda: stop(servers[-1]))
    tracer = None
    try:
        refs, ref_blobs = _references(specs)
        warm = _drive(server, specs, refs, seconds=60.0, max_jobs=len(specs))
        for rec in warm:
            tally.record(rec["ok"], f"warm-up job {specs[rec['spec']]}: {rec.get('error')}")
        batch0 = _batch_stats(server)
        if trace:
            tracer = Tracer()
            _install_client_shims(tracer)
        t_start = time.perf_counter()
        try:
            results = _drive(server, specs, refs, seconds=seconds, max_jobs=10**9)
        finally:
            if tracer is not None:
                tracer.restore()
        wall = max(r["end"] for r in results) - t_start
        batch1 = _batch_stats(server)
        peak_mb = vm_hwm_mb(server.process_tree())
    finally:
        for s in servers:
            if s.proc.returncode is None:
                stop(s)
    for rec in results:
        tally.record(rec["ok"], f"job {specs[rec['spec']]}: {rec.get('error')}")
    good = [r for r in results if r["ok"]]
    latencies = [r["latency_s"] for r in good]
    e2e = {
        "throughput_mbps": sum(refs[r["spec"]]["raw_mb"] for r in good) / wall,
        "latency_p50_ms": 1e3 * median(latencies),
        "ratio": geomean(r["ratio"] for r in refs),
        "psnr_abs_dev_db": mean(abs(r["achieved"] - s["target"]) for r, s in zip(refs, specs)),
        "psnr_met_frac": mean(float(r["achieved"] >= s["target"]) for r, s in zip(refs, specs)),
        "peak_rss_mb": peak_mb,
        "setup_s": setup_s,
    }
    values = dict(e2e)
    if tracer is not None:
        replay, replay_job_s = _replay(specs)
        n = len(good)
        submit_ms = 1e3 * tracer.mean_call_s("service.submit_rtt")
        fetch_ms = 1e3 * tracer.mean_call_s("service.fetch_rtt")
        queued_ms = 1e3 * mean(r["queued_s"] for r in good)
        running_ms = 1e3 * mean(r["running_s"] for r in good)
        polls = mean(r["polls"] for r in good)
        datasets_ms = 1e3 * replay.incl_time("datasets.field_gen") / len(specs)
        psnr_ms = 1e3 * replay.incl_time("metrics.psnr") / len(specs)
        values = layer_metrics(replay)  # one pass = each spec once
        values.update(container_counts(ref_blobs))
        values.update({
            "service.submit_rtt_ms": submit_ms,
            "service.queued_ms": queued_ms,
            "service.running_ms": running_ms,
            "service.poll_rtt_ms": 1e3 * tracer.mean_call_s("service.poll_rtt"),
            "service.polls_per_job": polls,
            "service.fetch_rtt_ms": fetch_ms,
            "service.batch_size_mean": (batch1[0] - batch0[0]) / max(batch1[1] - batch0[1], 1),
            "service.replay_datasets_ms": datasets_ms,
            "service.replay_codec_ms": 1e3 * replay_job_s - datasets_ms - psnr_ms,
            "service.replay_psnr_ms": psnr_ms,
            "service.worker_overhead_ms": running_ms - 1e3 * replay_job_s,
            "service.unattributed_ms": (
                1e3 * mean(latencies) - submit_ms - queued_ms - running_ms - fetch_ms
            ),
            "service.latency_p90_ms": 1e3 * percentile(latencies, 90),
            "service.jobs_per_s": n / wall,
            "traced.throughput_mbps": e2e["throughput_mbps"],
            "traced.latency_p50_ms": e2e["latency_p50_ms"],
        })
        tracer.records.extend(replay.records)
        tracer.write(out_dir / f"trace-{workload}-{seed}.json",
                     {"jobs": n, "poll_interval_s": POLL_S, "per_layer": values})
    leak_check(
        tally,
        extra_pids=[p for s in servers for p in s.pids],
        extra_shm_owners=[s.proc.pid for s in servers],
        ports=[s.port for s in servers],
    )
    for s in servers:
        s.cleanup(keep_log=tally.failed > 0)
    return {"values": values, "tally": tally}
