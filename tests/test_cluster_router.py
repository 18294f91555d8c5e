"""Unit tests for the cluster router (stubbed member clients).

The router's contracts, each pinned here without sockets:

* the route key of a cacheable fixed-PSNR compress job IS the blob
  fingerprint (cache-owner affinity with the single-node tier);
* failover walks the ring preference order, only on
  :class:`TransportError` or a draining member's 503, at most
  ``total_attempts()`` hops, and any other HTTP-level
  :class:`ServiceError` is the member's verdict -- never re-routed;
* the dedupe key travels in ``payload["cluster"]`` with the forwarded
  header stamped;
* exhaustion raises ``node_unavailable``; sweep degrades it to a
  failed row instead of aborting.
"""

import pytest

from repro.cluster.membership import DEGRADED, Membership
from repro.cluster.ring import HashRing
from repro.cluster.router import FORWARDED_HEADER, ClusterRouter, node_lane
from repro.errors import ErrorCode, TransportError
from repro.resilience.retry import RetryPolicy
from repro.service.client import ServiceError

DATASET = "ATM"
FIELD = "CLDHGH"
NODES = ("http://n1:8077", "http://n2:8077", "http://n3:8077")

#: Canned member result document for a done compress job.
RESULT = {
    "status": "ok",
    "mode": "psnr",
    "target": 60.0,
    "eb_rel": 1.5e-4,
    "achieved_psnr": 60.7,
    "ratio": 12.5,
    "raw_bytes": 100_000,
    "compressed_bytes": 8_000,
}


class FakeClient:
    """Scripted member: records every request, fails on demand."""

    def __init__(self, url, dead=False, reject=False, draining=False):
        self.url = url
        self.dead = dead
        self.reject = reject
        self.draining = draining
        self.submits = []
        self.status_calls = 0

    def submit_doc(self, kind, payload, headers=None):
        self.submits.append((kind, payload, dict(headers or {})))
        if self.dead:
            raise TransportError(
                f"cannot reach {self.url}", code=ErrorCode.CONNECT_FAILED
            )
        if self.reject:
            raise ServiceError(400, "bad spec")
        if self.draining:
            raise ServiceError(503, "service is draining", retry_after=1.0)
        return {
            "id": "j000001",
            "state": "done",
            "result": dict(RESULT, target=payload.get("target")),
        }

    def wait(self, job_id, timeout=120.0):
        return {"id": job_id, "state": "done", "result": dict(RESULT)}

    def status(self, job_id):
        self.status_calls += 1
        return {
            "id": job_id,
            "state": "done",
            "result": dict(RESULT, cached=True),
        }

    def fetch_blob(self, job_id):
        return b"\x00blob"


def make_router(clients, policy=None, trace=None):
    ring = HashRing(NODES, vnodes=32)
    membership = Membership(NODES, probe=lambda url: True)
    return ClusterRouter(
        ring,
        membership,
        policy=policy or RetryPolicy(
            max_retries=2, backoff_base=0.0001, backoff_max=0.001, seed=0
        ),
        trace=trace,
        client_factory=lambda url: clients[url],
    )


def payload(target=60.0):
    return {
        "dataset": DATASET,
        "field": FIELD,
        "mode": "psnr",
        "target": target,
        "codec": "sz",
    }


@pytest.fixture()
def clients():
    return {url: FakeClient(url) for url in NODES}


class TestRouteKey:
    def test_psnr_compress_uses_blob_fingerprint(self, clients):
        from repro.cache import blob_key, data_digest
        from repro.datasets.registry import get_dataset

        router = make_router(clients)
        key = router.route_key("compress", payload())
        data = get_dataset(DATASET).field(FIELD)
        assert key == blob_key(
            data_digest(data),
            codec="sz",
            mode="psnr",
            target=60.0,
            refine=None,
        )

    def test_key_is_stable_and_target_sensitive(self, clients):
        router = make_router(clients)
        assert router.route_key("compress", payload()) == router.route_key(
            "compress", payload()
        )
        assert router.route_key("compress", payload(40.0)) != (
            router.route_key("compress", payload(60.0))
        )

    def test_unknown_field_falls_back_to_spec_hash(self, clients):
        router = make_router(clients)
        doc = {"dataset": DATASET, "field": "no_such_field",
               "mode": "psnr", "target": 60.0}
        key = router.route_key("compress", doc)
        assert len(key) == 64 and key == router.route_key("compress", doc)

    def test_autotune_uses_spec_hash(self, clients):
        router = make_router(clients)
        doc = {"dataset": DATASET, "field": FIELD, "target": 60.0}
        assert router.route_key("autotune", doc) != router.route_key(
            "compress", doc
        )


class TestRouting:
    def test_job_goes_to_ring_owner(self, clients):
        router = make_router(clients)
        doc = router.submit_and_wait("compress", payload())
        key = router.route_key("compress", payload())
        owner = router.ring.owner(key)
        assert doc["cluster"]["node"] == owner
        assert doc["cluster"]["failovers"] == 0
        assert len(clients[owner].submits) == 1

    def test_dedupe_key_and_header_travel(self, clients):
        router = make_router(clients)
        router.submit_and_wait("compress", payload())
        key = router.route_key("compress", payload())
        owner = router.ring.owner(key)
        kind, body, headers = clients[owner].submits[0]
        assert kind == "compress"
        assert body["cluster"]["dedupe_key"] == key
        assert body["cluster"]["key"] == key
        assert body["cluster"]["coordinator"] == "coordinator"
        assert headers[FORWARDED_HEADER] == "coordinator"

    def test_failover_walks_preference_order(self, clients):
        router = make_router(clients)
        base = router.metrics["failovers"].value  # counter is process-global
        key = router.route_key("compress", payload())
        prefs = router.ring.preference(key)
        clients[prefs[0]].dead = True
        doc = router.submit_and_wait("compress", payload())
        assert doc["cluster"]["node"] == prefs[1]
        assert doc["cluster"]["failovers"] == 1
        # The dead owner was tried first, then marked unhealthy.
        assert len(clients[prefs[0]].submits) == 1
        assert router.membership.state(prefs[0]) == DEGRADED
        assert router.metrics["failovers"].value == base + 1

    def test_http_error_is_not_failed_over(self, clients):
        router = make_router(clients)
        key = router.route_key("compress", payload())
        prefs = router.ring.preference(key)
        clients[prefs[0]].reject = True
        with pytest.raises(ServiceError):
            router.submit_and_wait("compress", payload())
        # The member answered; its verdict stands -- no second node.
        assert len(clients[prefs[1]].submits) == 0
        assert router.membership.routable(prefs[0])

    def test_draining_owner_is_failed_over(self, clients):
        """A 503 means the member is draining: it has not ruled on the
        job, so the next candidate takes it."""
        router = make_router(clients)
        base = router.metrics["failovers"].value
        key = router.route_key("compress", payload())
        prefs = router.ring.preference(key)
        clients[prefs[0]].draining = True
        doc = router.submit_and_wait("compress", payload())
        assert doc["cluster"]["node"] == prefs[1]
        assert doc["cluster"]["failovers"] == 1
        assert len(clients[prefs[0]].submits) == 1
        assert router.metrics["failovers"].value == base + 1

    def test_exhaustion_raises_node_unavailable(self, clients):
        for c in clients.values():
            c.dead = True
        router = make_router(clients)
        base = router.metrics["exhausted"].value
        with pytest.raises(TransportError) as err:
            router.submit_and_wait("compress", payload())
        assert err.value.code == ErrorCode.NODE_UNAVAILABLE
        assert router.metrics["exhausted"].value == base + 1

    def test_attempts_bounded_by_policy(self, clients):
        for c in clients.values():
            c.dead = True
        router = make_router(
            clients,
            policy=RetryPolicy(
                max_retries=1, backoff_base=0.0001, seed=0
            ),
        )
        with pytest.raises(TransportError):
            router.submit_and_wait("compress", payload())
        tried = sum(len(c.submits) for c in clients.values())
        assert tried == 2  # total_attempts() = max_retries + 1

    def test_degraded_owner_skipped_at_submit(self, clients):
        router = make_router(clients)
        key = router.route_key("compress", payload())
        prefs = router.ring.preference(key)
        router.membership.report_failure(prefs[0], "probe says down")
        doc = router.submit_and_wait("compress", payload())
        assert doc["cluster"]["node"] == prefs[1]
        assert len(clients[prefs[0]].submits) == 0

    def test_admission_cache_hit_fetches_full_document(self, clients):
        router = make_router(clients)
        owner = router.ring.owner(router.route_key("compress", payload()))

        def minimal_submit(kind, body, headers=None):
            clients[owner].submits.append((kind, body, headers))
            return {"id": "j000009", "state": "done", "cached": True}

        clients[owner].submit_doc = minimal_submit
        doc = router.submit_and_wait("compress", payload())
        assert clients[owner].status_calls == 1
        assert doc["result"]["cached"] is True


class TestSweep:
    def test_rows_come_back_in_serial_order(self, clients):
        router = make_router(clients)
        base = router.metrics["sweep_tasks"].value
        rows = router.sweep(DATASET, targets=[40.0, 60.0],
                            fields=[FIELD, "CLDLOW"])
        assert [(r.target_psnr, r.field) for r in rows] == [
            (40.0, FIELD), (40.0, "CLDLOW"),
            (60.0, FIELD), (60.0, "CLDLOW"),
        ]
        assert all(r.status == "ok" for r in rows)
        assert router.metrics["sweep_tasks"].value == base + 4

    def test_unknown_field_rejected(self, clients):
        from repro.errors import ParameterError

        router = make_router(clients)
        with pytest.raises(ParameterError):
            router.sweep(DATASET, targets=[60.0], fields=["nope"])

    def test_total_node_loss_degrades_to_failed_rows(self, clients):
        for c in clients.values():
            c.dead = True
        router = make_router(clients)
        base = router.metrics["exhausted"].value
        rows = router.sweep(DATASET, targets=[60.0], fields=[FIELD])
        assert len(rows) == 1
        assert rows[0].status == "failed"
        assert rows[0].error_code == ErrorCode.NODE_UNAVAILABLE
        assert router.metrics["exhausted"].value >= base + 1

    def test_draining_owner_is_failed_over_at_scatter(self, clients):
        router = make_router(clients)
        p = dict(payload(), keep_blob=False)
        prefs = router.ring.preference(router.route_key("compress", p))
        clients[prefs[0]].draining = True
        rows = router.sweep(DATASET, targets=[60.0], fields=[FIELD])
        assert [r.status for r in rows] == ["ok"]
        assert len(clients[prefs[0]].submits) == 1
        assert len(clients[prefs[1]].submits) == 1

    def test_trace_spans_use_node_lanes(self, clients):
        from repro.observe import Trace

        trace = Trace()
        router = make_router(clients, trace=trace)
        router.submit_and_wait("compress", payload())
        key = router.route_key("compress", payload())
        owner = router.ring.owner(key)
        recs = [r for r in trace.records if r.path[0] == "cluster.route"]
        assert recs and recs[0].pid == node_lane(owner)
        assert recs[0].path[1] == owner


class TestNodeLane:
    def test_stable_and_offset(self):
        lane = node_lane("http://n1:8077")
        assert lane == node_lane("http://n1:8077")
        assert 100000 <= lane < 200000
        assert lane != node_lane("http://n2:8077")
