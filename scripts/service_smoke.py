#!/usr/bin/env python
"""Service smoke driver: serve, submit, scrape, drain.

Intended for CI (the ``service-smoke`` job) and local sanity::

    PYTHONPATH=src python scripts/service_smoke.py [workdir]

End-to-end exercise of the compression service as a real subprocess
-- the exact deployment shape, signals included:

1. ``fpzc serve`` starts (process pool, 2 workers) against an empty
   ledger, ``<workdir>/service_ledger.jsonl`` (and with
   ``--expect-cache-hit`` an empty ``<workdir>/cache``): both are
   cleared first, so runs in one workdir do not see each other's
   entries.  ``/readyz`` must go 200 within the startup budget.
2. A compress job (ATM/CLDHGH @ 60 dB) and an autotune job must both
   finish ``done``; the compress blob must round-trip through the
   static decompressor with the achieved PSNR the service reported,
   and be bit-identical to the serial pipeline's blob.
3. ``/metrics`` must expose nonzero ``fpzc_service_*`` counters and
   the batch/queue histograms.
4. Both runs must land in the ledger with ``extra.service`` attached,
   and ``fpzc drift --ledger`` must read that history (exit 0 or 2 --
   anything but a parse/IO failure).
5. With ``--expect-cache-hit``, the server runs with ``--cache`` and a
   second identical compress submit must answer an instant ``200``
   with ``cached: true`` and the exact blob of the first run, and the
   ``fpzc_cache_hits_total`` counter must be nonzero.
6. ``SIGTERM`` must drain the server to exit code 0 within the grace
   window.

Exit code 0 when every stage holds; the first violated stage prints
and fails the script.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cli.main import main  # noqa: E402
from repro.core.fixed_psnr import FixedPSNRCompressor  # noqa: E402
from repro.datasets.registry import get_dataset  # noqa: E402
from repro.metrics.distortion import psnr  # noqa: E402
from repro.errors import TransportError  # noqa: E402
from repro.service.client import ServiceClient, ServiceError  # noqa: E402
from repro.telemetry.ledger import read_entries  # noqa: E402

PORT = int(os.environ.get("FPZC_SMOKE_PORT", "18077"))
TARGET = 60.0


def check(label: str, ok: bool) -> None:
    print(f"{'ok' if ok else 'FAIL'}: {label}")
    if not ok:
        sys.exit(1)


def wait_ready(client: ServiceClient, budget_s: float = 30.0) -> bool:
    deadline = time.monotonic() + budget_s
    while time.monotonic() < deadline:
        try:
            if client.readyz():
                return True
        except (ServiceError, TransportError):
            pass
        time.sleep(0.1)
    return False


def run(workdir: str = ".", expect_cache_hit: bool = False) -> int:
    work = Path(workdir)
    work.mkdir(parents=True, exist_ok=True)
    ledger = str(work / "service_ledger.jsonl")
    Path(ledger).unlink(missing_ok=True)
    shutil.rmtree(work / "cache", ignore_errors=True)

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    serve_args = [
        "serve",
        "--port", str(PORT), "--workers", "2", "--pool", "process",
        "--ledger", ledger, "--grace", "30",
    ]
    if expect_cache_hit:
        serve_args += ["--cache", "--cache-dir", str(work / "cache")]
    server = subprocess.Popen(
        [
            sys.executable, "-c",
            "import sys; from repro.cli.main import main; "
            "sys.exit(main(sys.argv[1:]))",
            *serve_args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    client = ServiceClient(f"http://127.0.0.1:{PORT}", timeout=60.0)
    try:
        check("server ready", wait_ready(client))

        compress_id = client.submit_compress(
            "ATM", "CLDHGH", target=TARGET
        )
        autotune_id = client.submit(
            "autotune",
            {"dataset": "ATM", "field": "FLDS", "target": TARGET},
        )
        compress_doc = client.wait(compress_id, timeout=180)
        autotune_doc = client.wait(autotune_id, timeout=180)
        check("compress job done", compress_doc["state"] == "done")
        check("autotune job done", autotune_doc["state"] == "done")

        achieved = compress_doc["result"]["achieved_psnr"]
        check(
            f"achieved PSNR {achieved:.2f} dB within band of {TARGET:g}",
            abs(achieved - TARGET) < 5.0,
        )
        blob = client.fetch_blob(compress_id)
        data = get_dataset("ATM").field("CLDHGH")
        serial = FixedPSNRCompressor(TARGET, codec="sz").compress(data)
        check("blob bit-identical to serial pipeline", blob == serial)
        recon = FixedPSNRCompressor.decompress(blob)
        check(
            "blob round-trips at reported PSNR",
            abs(float(psnr(data, recon)) - achieved) < 1e-6,
        )

        metrics = client.metrics_text()

        def value(name: str) -> float:
            for line in metrics.splitlines():
                if line.startswith(name + " "):
                    return float(line.split()[1])
            return -1.0

        check(
            "service counters nonzero",
            value("fpzc_service_jobs_submitted_total") >= 2
            and value("fpzc_service_jobs_completed_total") >= 2,
        )
        check(
            "queue/job histograms observed",
            value("fpzc_service_queue_seconds_count") >= 1
            and value("fpzc_service_job_seconds_count") >= 1,
        )

        if expect_cache_hit:
            # Same spec as the first compress job: the blob cache must
            # answer at admission, without touching the queue.
            doc = client._json(
                "POST",
                "/v1/compress",
                {
                    "dataset": "ATM",
                    "field": "CLDHGH",
                    "mode": "psnr",
                    "target": TARGET,
                    "codec": "sz",
                },
            )
            check("warm submit answered from cache", doc.get("cached") is True)
            check("warm submit already done", doc.get("state") == "done")
            warm_blob = client.fetch_blob(str(doc["id"]))
            check("cached blob bit-identical to first run", warm_blob == blob)
            metrics = client.metrics_text()
            check("cache hit counter nonzero", value("fpzc_cache_hits_total") >= 1)

        entries, skipped = read_entries(path=ledger)
        expected_entries = 3 if expect_cache_hit else 2
        check(
            "all runs in the ledger with extra.service",
            skipped == 0
            and len(entries) == expected_entries
            and all("service" in (e.extra or {}) for e in entries),
        )
        check(
            "drift monitor reads service history",
            main(["drift", "--ledger", ledger]) == 0,
        )
    finally:
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
        try:
            rc = server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            rc = -9
        out = server.stdout.read().decode(errors="replace")
        if out:
            print("--- server output ---")
            print(out)
    check("SIGTERM drains to exit 0", rc == 0)
    print("service smoke: all stages passed")
    return 0


if __name__ == "__main__":
    argv = sys.argv[1:]
    expect_hit = "--expect-cache-hit" in argv
    argv = [a for a in argv if a != "--expect-cache-hit"]
    sys.exit(run(argv[0] if argv else ".", expect_cache_hit=expect_hit))
