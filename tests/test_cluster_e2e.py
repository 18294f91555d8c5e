"""End-to-end tests for the cluster tier.

Real sockets everywhere: member :class:`ServiceThread` nodes behind a
:class:`CoordinatorThread`, driven by the blocking client.  Covers the
cluster's contractual claims:

* routed blobs are bit-identical to the serial pipeline's;
* repeat submissions of a cached fingerprint are answered by the
  owning node from its cache with **zero** codec dispatches;
* killing one of two members mid-sweep completes the sweep via
  failover with measurement rows bit-identical to a serial sweep and
  **no duplicated** conformance records across the members' ledgers
  (exactly-once);
* a member that starts draining answers submits with 503, and the
  sweep fails over past it instead of failing;
* ``/cluster/metrics`` merges member snapshots; ``/cluster/ring`` and
  ``/cluster/nodes`` report ownership and health;
* client-level satellites: 429 + ``Retry-After`` honored with bounded
  seeded-jitter retry, and a dead server surfacing as a typed
  :class:`TransportError` (CLI exit 2).
"""

import dataclasses
import json
import threading
import time

import pytest

from repro.cluster.testing import CoordinatorThread
from repro.core.fixed_psnr import FixedPSNRCompressor
from repro.datasets.registry import get_dataset
from repro.errors import ErrorCode, TransportError
from repro.service.app import ServiceConfig
from repro.service.client import ServiceClient, ServiceError
from repro.service.testing import ServiceThread
from repro.telemetry.registry import metrics as _registry

DATASET = "ATM"
FIELD = "CLDHGH"
TARGET = 60.0


def member(tmp_path, name, cache_dir=None):
    """A member node config: thread pool (forkable from the harness
    loop), private ledger, optionally a (shared) blob cache."""
    return ServiceThread(
        config=ServiceConfig(
            port=0,
            n_workers=2,
            kind="thread",
            ledger=str(tmp_path / f"{name}-ledger.jsonl"),
            cache_dir=str(cache_dir) if cache_dir else None,
        )
    )


def read_ledger(path):
    if not path.exists():
        return []
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


def kill_member(st: ServiceThread) -> None:
    """Abrupt death (vs. a graceful drain): close the socket and
    cancel the dispatchers mid-await, so in-flight jobs are lost
    without terminal bookkeeping -- the crash the failover path must
    absorb."""

    async def _die():
        svc = st.service
        svc._draining = True  # noqa: SLF001
        svc._accepting = False  # noqa: SLF001
        for task in svc._dispatchers:  # noqa: SLF001
            task.cancel()
        if svc._server is not None:  # noqa: SLF001
            svc._server.close()  # noqa: SLF001
            await svc._server.wait_closed()  # noqa: SLF001
        svc._stopped.set()  # noqa: SLF001

    import asyncio

    asyncio.run_coroutine_threadsafe(_die(), st.loop).result(timeout=30)


def stop_admitting(st: ServiceThread) -> None:
    """The first step of a graceful drain: the member answers submits
    with 503 while its socket, queue and workers stay up."""

    async def _stop():
        st.service._accepting = False  # noqa: SLF001

    import asyncio

    asyncio.run_coroutine_threadsafe(_stop(), st.loop).result(timeout=30)


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cluster")
    cache = tmp / "cache"
    with member(tmp, "a", cache) as a, member(tmp, "b", cache) as b:
        with CoordinatorThread(
            peers=(a.url, b.url), probe_interval_s=0.2
        ) as co:
            yield {"a": a, "b": b, "co": co, "tmp": tmp}


class TestOps:
    def test_healthz_reports_role_and_members(self, cluster):
        doc = cluster["co"].client().healthz()
        assert doc["role"] == "coordinator"
        assert doc["nodes"] == {
            cluster["a"].url: "alive",
            cluster["b"].url: "alive",
        }

    def test_readyz_requires_a_live_member(self, cluster):
        assert cluster["co"].client().readyz()

    def test_ring_ownership_sums_to_one(self, cluster):
        client = cluster["co"].client()
        ring = client._json("GET", "/cluster/ring")
        assert sorted(ring["nodes"]) == sorted(
            [cluster["a"].url, cluster["b"].url]
        )
        assert sum(ring["ownership"].values()) == pytest.approx(1.0, abs=1e-4)

    def test_nodes_reports_health_states(self, cluster):
        doc = cluster["co"].client()._json("GET", "/cluster/nodes")
        assert set(doc["peers"]) == {cluster["a"].url, cluster["b"].url}
        assert all(
            st["status"] == "alive" for st in doc["states"].values()
        )

    def test_unknown_route_is_404(self, cluster):
        with pytest.raises(ServiceError) as err:
            cluster["co"].client()._json("GET", "/nope")
        assert err.value.status == 404


class TestRoutedCompress:
    def test_blob_bit_identical_to_serial(self, cluster):
        client = cluster["co"].client(timeout=180)
        doc = client.submit_doc(
            "compress",
            {"dataset": DATASET, "field": FIELD, "mode": "psnr",
             "target": TARGET},
        )
        assert doc["state"] == "done"
        cid = doc["coordinator_id"]
        blob = client.fetch_blob(cid)
        serial = FixedPSNRCompressor(target_psnr=TARGET).compress(
            get_dataset(DATASET).field(FIELD)
        )
        assert blob == serial

    def test_warm_resubmit_is_cache_hit_with_zero_dispatch(self, cluster):
        client = cluster["co"].client(timeout=180)
        payload = {"dataset": DATASET, "field": "CLDLOW", "mode": "psnr",
                   "target": TARGET}
        first = client.submit_doc("compress", payload)
        assert first["state"] == "done"
        node_first = first["cluster"]["node"]
        # The members and harness share one process registry, so the
        # queue-latency histogram counts every codec dispatch in the
        # cluster: flat across the resubmit == nothing recompressed.
        dispatches = _registry().get("service.queue_seconds").count
        second = client.submit_doc("compress", payload)
        assert second["state"] == "done"
        assert second["result"]["cached"] is True
        # Affinity: the same owning node answers, from its cache.
        assert second["cluster"]["node"] == node_first
        assert _registry().get("service.queue_seconds").count == dispatches

    def test_routed_job_document_retrievable(self, cluster):
        client = cluster["co"].client(timeout=180)
        doc = client.submit_doc(
            "compress",
            {"dataset": DATASET, "field": FIELD, "mode": "psnr",
             "target": TARGET},
        )
        again = client.status(doc["coordinator_id"])
        assert again["result"]["achieved_psnr"] == pytest.approx(
            doc["result"]["achieved_psnr"]
        )

    def test_cli_job_commands_through_the_coordinator(self, cluster, capsys):
        """``fpzc submit``, ``status`` and ``fetch`` against a
        coordinator use the id its own job routes resolve (``submit``
        used to wait on the member's id and exit 2 with the
        coordinator's 404)."""
        from repro.cli.main import main

        url = ["--url", cluster["co"].url]
        out = cluster["tmp"] / "cli.fpz"
        assert main([
            "submit", DATASET, FIELD, "--psnr", str(TARGET),
            "--out", str(out), *url,
        ]) == 0
        job = capsys.readouterr().out.split(":")[0]
        assert job.startswith("c")
        assert main(["status", job, *url]) == 0
        assert json.loads(capsys.readouterr().out)["state"] == "done"
        fetched = cluster["tmp"] / "fetched.fpz"
        assert main(["fetch", job, "--out", str(fetched), *url]) == 0
        serial = FixedPSNRCompressor(target_psnr=TARGET).compress(
            get_dataset(DATASET).field(FIELD)
        )
        assert out.read_bytes() == fetched.read_bytes() == serial

    def test_member_ledger_carries_forwarding_provenance(self, cluster):
        entries = read_ledger(
            cluster["tmp"] / "a-ledger.jsonl"
        ) + read_ledger(cluster["tmp"] / "b-ledger.jsonl")
        forwarded = [
            e for e in entries if (e.get("extra") or {}).get("cluster")
        ]
        assert forwarded, "no member ledger entry has extra.cluster"
        mark = forwarded[0]["extra"]["cluster"]
        assert mark["coordinator"] == "coordinator"
        assert mark["dedupe_key"] == mark["key"]


class TestClusterMetrics:
    def test_merged_snapshot_lists_members(self, cluster):
        client = cluster["co"].client()
        doc = client._json("GET", "/cluster/metrics?format=json")
        assert doc["cluster"]["members"] == {
            cluster["a"].url: "merged",
            cluster["b"].url: "merged",
        }
        assert "cluster.jobs_routed_total" in doc["metrics"]

    def test_prometheus_rendering(self, cluster):
        status, _, data = cluster["co"].client()._request(
            "GET", "/cluster/metrics"
        )
        text = data.decode()
        assert status == 200
        assert "fpzc_cluster_jobs_routed_total" in text
        assert "fpzc_service_jobs_submitted_total" in text


class TestSweepScatterGather:
    def test_rows_bit_identical_to_serial(self, cluster):
        from repro.parallel.executor import FieldResult, sweep_dataset

        client = cluster["co"].client(timeout=300)
        doc = client._json("POST", "/v1/sweep", {
            "dataset": DATASET,
            "targets": [40.0, TARGET],
            "fields": [FIELD, "CLDLOW"],
        })
        assert doc["state"] == "done"
        assert doc["n_tasks"] == 4 and doc["n_failed"] == 0
        rows = [FieldResult.from_dict(r) for r in doc["rows"]]
        serial = sweep_dataset(
            DATASET, targets=[40.0, TARGET], fields=[FIELD, "CLDLOW"]
        )
        assert rows == serial


class TestFailoverMidSweep:
    def test_kill_one_member_sweep_completes_exactly_once(
        self, tmp_path
    ):
        from repro.parallel.executor import sweep_dataset

        cache = tmp_path / "cache"
        targets = [40.0, 55.0, 70.0]
        fields = [FIELD, "CLDLOW", "CLDMED"]
        with member(tmp_path, "a", cache) as a, \
                member(tmp_path, "b", cache) as b:
            with CoordinatorThread(
                peers=(a.url, b.url), probe_interval_s=0.2
            ) as co:
                router = co.router
                by_url = {a.url: a, b.url: b}
                # Pick the victim deterministically: the member owning
                # the *last* task's fingerprint, so the kill lands
                # while its shard is queued or running.
                keys = [
                    router.route_key("compress", {
                        "dataset": DATASET, "field": f, "mode": "psnr",
                        "target": t, "codec": "sz", "keep_blob": False,
                    })
                    for t in targets for f in fields
                ]
                # Ownership captured *before* the kill mutates the ring.
                owners = {k: router.ring.owner(k) for k in keys}
                victim_url = owners[keys[-1]]
                victim_tasks = sum(
                    1 for k in keys if owners[k] == victim_url
                )
                assert victim_tasks >= 1

                rows_box = {}

                def run_sweep():
                    rows_box["rows"] = router.sweep(
                        DATASET, targets=targets, fields=fields
                    )

                t = threading.Thread(target=run_sweep)
                t.start()
                time.sleep(0.3)  # let the scatter land on both nodes
                kill_member(by_url[victim_url])
                t.join(timeout=300)
                assert not t.is_alive(), "sweep did not complete"
                rows = rows_box["rows"]

                # 1. The sweep completed: every row ok despite the kill.
                assert [r.status for r in rows] == ["ok"] * len(rows)

                # 2. Bit-identical measurements vs. a serial sweep
                #    (attempts differ for failed-over tasks by design).
                serial = sweep_dataset(
                    DATASET, targets=targets, fields=fields
                )
                normalize = [
                    dataclasses.replace(r, attempts=1) for r in rows
                ]
                assert normalize == serial

                # 3. The victim is dead and lost its ring ownership.
                deadline = time.monotonic() + 10
                while (
                    router.membership.state(victim_url) != "dead"
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.05)
                assert router.membership.state(victim_url) == "dead"
                assert victim_url not in router.ring.nodes

            # 4. Exactly-once: across both members' ledgers no task has
            #    two conformance records.  Survivor-owned tasks have
            #    exactly one; a victim-owned task has at most one (its
            #    fresh record, or the survivor's after failover -- a
            #    re-route that found the shared cache warm records a
            #    cache hit, not a second conformance point).
            entries = read_ledger(tmp_path / "a-ledger.jsonl") + read_ledger(
                tmp_path / "b-ledger.jsonl"
            )
            conf_counts = {}
            for e in entries:
                extra = e.get("extra") or {}
                if "conformance" not in extra:
                    continue
                task = (e["field"], float(e["target"]))
                conf_counts[task] = conf_counts.get(task, 0) + 1
            assert conf_counts, "no conformance records at all"
            assert all(n == 1 for n in conf_counts.values()), conf_counts
            # Tasks owned by the survivor always have their one record;
            # a victim-owned task may legitimately have zero (it died
            # after persisting the blob but before its ledger write,
            # and the failover answered from the shared cache).
            task_owner = dict(zip(
                [(f, t) for t in targets for f in fields],
                [owners[k] for k in keys],
            ))
            for task, owner in task_owner.items():
                if owner != victim_url:
                    assert conf_counts.get(task) == 1, (task, conf_counts)


class TestJobTable:
    def test_routed_job_table_keeps_the_newest(self, tmp_path):
        """The coordinator keeps the same number of routed job
        documents a service keeps; older IDs are dropped first."""
        from repro.service.http import KEEP_JOBS

        with member(tmp_path, "a") as a:
            with CoordinatorThread(peers=(a.url,)) as co:
                co.router.submit_and_wait = lambda kind, payload: {
                    "id": "j000001", "state": "done",
                    "cluster": {"node": a.url},
                }
                client = co.client()
                payload = {"dataset": DATASET, "field": FIELD,
                           "target": TARGET}
                ids = [
                    client.submit_doc("compress", payload)["coordinator_id"]
                    for _ in range(KEEP_JOBS + 8)
                ]
                assert list(co.coordinator.jobs) == ids[-KEEP_JOBS:]
                assert client.status(ids[-1])["state"] == "done"
                assert client.status(ids[-KEEP_JOBS])["state"] == "done"
                with pytest.raises(ServiceError) as err:
                    client.status(ids[0])
                assert err.value.status == 404


class TestDrainingMember:
    def test_sweep_fails_over_past_a_draining_owner(self, tmp_path):
        from repro.parallel.executor import sweep_dataset

        targets = [40.0, TARGET]
        fields = [FIELD, "CLDLOW"]
        with member(tmp_path, "a") as a, member(tmp_path, "b") as b:
            # No health probe during the test: the drained member stays
            # on the ring, so its submits really meet the 503.
            with CoordinatorThread(
                peers=(a.url, b.url), probe_interval_s=600.0
            ) as co:
                router = co.router
                first = router.route_key("compress", {
                    "dataset": DATASET, "field": FIELD, "mode": "psnr",
                    "target": targets[0], "codec": "sz",
                    "keep_blob": False,
                })
                owner = router.ring.owner(first)
                stop_admitting({a.url: a, b.url: b}[owner])
                failovers = router.metrics["failovers"]
                base = failovers.value  # cluster.failovers_total

                rows = router.sweep(DATASET, targets=targets, fields=fields)

                assert [r.status for r in rows] == ["ok"] * len(rows)
                assert rows == sweep_dataset(
                    DATASET, targets=targets, fields=fields
                )
                assert failovers.value >= base + 1


class TestClientSatellites:
    def test_429_retry_honors_retry_after(self, tmp_path):
        """A full queue answers 429 + Retry-After; the client sleeps
        the hint (bounded, seeded jitter) and the retried submit
        eventually lands."""
        with ServiceThread(
            config=ServiceConfig(
                port=0, n_workers=1, kind="thread", queue_limit=1,
                no_ledger=True,
            )
        ) as st:
            patient = ServiceClient(
                st.url, retry_429=100, retry_backoff_s=0.05,
                retry_after_cap_s=0.2, retry_seed=1,
            )
            failfast = ServiceClient(st.url, retry_429=0)
            payload = {"dataset": DATASET, "field": FIELD, "mode": "psnr",
                       "target": TARGET}
            # Saturate: one running + one queued fills limit=1.
            ids = [failfast.submit("compress", dict(payload, target=30.0 + i))
                   for i in range(2)]
            # Fail-fast sees the 429 with a hint...
            saw = None
            for _ in range(50):
                try:
                    ids.append(failfast.submit(
                        "compress", dict(payload, target=90.0)
                    ))
                except ServiceError as exc:
                    saw = exc
                    break
            assert saw is not None, "queue never filled"
            assert saw.status == 429
            assert saw.retry_after is not None
            # ...while the retrying client rides the hint to success.
            job = patient.submit("compress", dict(payload, target=95.0))
            doc = patient.wait(job, timeout=120)
            assert doc["state"] == "done"
            for jid in ids:
                failfast.wait(jid, timeout=120)

    def test_429_backoff_is_bounded_and_seeded(self):
        client = ServiceClient(
            "http://127.0.0.1:9", retry_429=3, retry_backoff_s=0.05,
            retry_after_cap_s=0.5, retry_seed=3,
        )
        d1 = client._backoff_429(0, retry_after=60.0)
        assert d1 <= 0.5 * 1.25  # hint capped before jitter
        twin = ServiceClient(
            "http://127.0.0.1:9", retry_429=3, retry_backoff_s=0.05,
            retry_after_cap_s=0.5, retry_seed=3,
        )
        assert twin._backoff_429(0, retry_after=60.0) == d1

    def test_dead_server_raises_typed_transport_error(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(TransportError) as err:
            client.submit("compress", {"dataset": DATASET, "field": FIELD,
                                       "mode": "psnr", "target": TARGET})
        assert err.value.code == ErrorCode.CONNECT_FAILED
        with pytest.raises(TransportError):
            client.status("j000001")

    def test_dead_server_cli_exit_code_2(self, capsys):
        from repro.cli.main import main

        rc = main(["status", "j000001", "--url", "http://127.0.0.1:1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
