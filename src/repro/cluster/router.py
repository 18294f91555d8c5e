"""Job routing: fingerprints -> ring owner -> failover successors.

The router is the cluster's data path.  For every job it computes a
**route key** -- for cacheable fixed-PSNR compress jobs the *exact*
blob-cache fingerprint (:func:`repro.cache.psnr_key` over the field's
:func:`~repro.cache.data_digest`), so the ring sends repeat
submissions of the same ``(data_digest, codec, mode, target)`` to the
node whose cache already holds the blob; for everything else a
canonical hash of the spec, which at least keeps identical work
pinned to one node.

Failover follows the ring's preference order (owner, then distinct
successors) under :class:`~repro.resilience.retry.RetryPolicy`
semantics: at most ``total_attempts()`` nodes are tried, with the
policy's seeded-jitter delay between hops, and only when a node cannot
take the job: a :class:`~repro.errors.TransportError` (dead or
unreachable node) or a 503 (a draining member refusing new work; it has
not ruled on the job).  Every other HTTP-level error is the member's
verdict on the job and is never re-executed elsewhere.  The route key
doubles as the in-flight dedupe key and travels with the job
(``payload["cluster"]``), so a member that already holds or is
computing the same fingerprint answers from its cache/in-flight table
instead of recompressing: a failed-over job is re-*submitted* but never
double-*executed* into the ledger -- the member that died never
recorded it, and the member that finishes records it exactly once.

``sweep`` is the scatter-gather path: one compress job per
``(target, field)`` task in the exact serial order of
:func:`repro.parallel.executor.sweep_dataset` (targets outer, fields
in registry order), submitted to each task's ring owner, gathered
into :class:`~repro.parallel.executor.FieldResult` rows that compare
equal to the serial sweep's.  Tasks that exhaust every live node
degrade to ``status="failed"`` rows instead of raising.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.membership import Membership
from repro.cluster.ring import HashRing, ring_point
from repro.errors import ErrorCode, TransportError
from repro.parallel.executor import FieldResult, failed_field_result
from repro.resilience.retry import RetryPolicy
from repro.service.client import ServiceError

__all__ = ["ClusterRouter", "node_lane"]

#: Header the router stamps on every forwarded request, so member
#: access logs can distinguish direct clients from coordinator traffic.
FORWARDED_HEADER = "X-Fpzc-Forwarded-By"


def node_lane(url: str) -> int:
    """A stable synthetic pid for ``url``: Perfetto exports use it as
    the process lane, so traces of one cluster run show one swimlane
    per member node.  Offset past real pids' usual range to avoid
    colliding with the coordinator's own lane."""
    return 100000 + ring_point(f"lane:{url}") % 100000


def _cannot_take(exc: Exception) -> bool:
    """Whether a submit error means the node cannot take the job (so
    the next candidate should), rather than a verdict on the job: the
    node is unreachable, or it is draining and answered 503."""
    return isinstance(exc, TransportError) or exc.status == 503


def _cluster_metrics():
    from repro.telemetry.registry import metrics

    reg = metrics()
    return {
        "routed": reg.counter(
            "cluster.jobs_routed_total",
            help="jobs forwarded to a member node",
            deterministic=False,
        ),
        "failovers": reg.counter(
            "cluster.failovers_total",
            help="jobs re-routed to a ring successor after a "
            "transport failure",
            deterministic=False,
        ),
        "exhausted": reg.counter(
            "cluster.jobs_exhausted_total",
            help="jobs that failed every candidate node and degraded "
            "to a failed row",
            deterministic=False,
        ),
        "sweep_tasks": reg.counter(
            "cluster.sweep_tasks_total",
            help="scatter-gather sweep tasks sharded across members",
            deterministic=False,
        ),
        "nodes_alive": reg.gauge(
            "cluster.nodes_alive",
            help="members currently routable",
            deterministic=False,
        ),
        "nodes_total": reg.gauge(
            "cluster.nodes_total",
            help="members in the topology",
            deterministic=False,
        ),
    }


class ClusterRouter:
    """Routes jobs over a ring + membership pair (thread-safe)."""

    def __init__(
        self,
        ring: HashRing,
        membership: Membership,
        *,
        policy: Optional[RetryPolicy] = None,
        timeout_s: float = 300.0,
        name: str = "coordinator",
        trace=None,
        client_factory=None,
    ):
        self.ring = ring
        self.membership = membership
        self.policy = policy or RetryPolicy(
            max_retries=2, backoff_base=0.05, backoff_max=1.0, seed=0
        )
        self._rng = self.policy.rng()
        self.timeout_s = float(timeout_s)
        self.name = name
        self.trace = trace
        self._client_factory = client_factory or self._default_client
        self._clients: Dict[str, object] = {}
        self._lock = threading.Lock()
        self.metrics = _cluster_metrics()
        self.metrics["nodes_total"].set(len(membership.peers))
        self.metrics["nodes_alive"].set(membership.n_alive())
        # Dead members lose their ring ownership to the successors;
        # a recovered member deterministically takes it back.
        membership.on_transition(self._on_transition)

    def _default_client(self, url: str):
        from repro.service.client import ServiceClient

        # Admission retries happen inside the member's own client
        # budget; the router adds node-level failover on top.
        return ServiceClient(url, timeout=self.timeout_s, retry_429=3)

    def _client(self, url: str):
        with self._lock:
            client = self._clients.get(url)
            if client is None:
                client = self._clients[url] = self._client_factory(url)
            return client

    def _on_transition(self, url: str, old: str, new: str) -> None:
        from repro.cluster.membership import DEAD

        if new == DEAD:
            self.ring.remove(url)
        elif old == DEAD:
            self.ring.add(url)
        self.metrics["nodes_alive"].set(self.membership.n_alive())

    # -- route keys -----------------------------------------------------

    def route_key(self, kind: str, payload: Dict) -> str:
        """The ring key for a job.  Fixed-PSNR compress jobs use the
        blob-cache fingerprint itself (cache-owner affinity); other
        kinds hash their canonical spec."""
        mode = str(payload.get("mode") or "psnr")
        if kind == "compress" and mode == "psnr" and payload.get("field"):
            from repro.cache import field_digest, psnr_key

            stats = field_digest(
                str(payload.get("dataset") or ""),
                str(payload["field"]),
                payload.get("scale"),
            )
            if stats is not None:
                return psnr_key(
                    stats[0],
                    float(payload.get("target") or 0.0),
                    str(payload.get("codec") or "sz"),
                    payload.get("refine"),
                )
        import hashlib
        import json

        canon = json.dumps(
            {"kind": kind, "spec": payload}, sort_keys=True, default=str
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    # -- single-job forwarding ------------------------------------------

    def candidates(self, key: str) -> List[str]:
        """Preference-ordered routable nodes for ``key``: the ring walk
        filtered by membership (degraded/dead members skipped).  Falls
        back to the full topology walk when the ring lost every member
        (all dead): the caller still gets a deterministic order to
        fail through."""
        prefs = [
            url
            for url in self.ring.preference(key)
            if self.membership.routable(url)
        ]
        if prefs:
            return prefs
        return list(self.membership.peers)

    def submit_and_wait(
        self,
        kind: str,
        payload: Dict,
        *,
        timeout: Optional[float] = None,
        label: Optional[str] = None,
    ) -> Dict:
        """Forward one job to its owner, failing over along the ring.

        Returns the member's terminal job document with a ``cluster``
        section (node, route key, failover count) appended.  Raises
        :class:`~repro.errors.TransportError` with
        :data:`~repro.errors.ErrorCode.NODE_UNAVAILABLE` when every
        candidate is gone.
        """
        timeout = self.timeout_s if timeout is None else timeout
        key = self.route_key(kind, payload)
        candidates = self.candidates(key)[: self.policy.total_attempts()]
        last_error: Optional[str] = None
        for attempt, node in enumerate(candidates):
            if attempt:
                self.metrics["failovers"].inc()
                time.sleep(self.policy.delay(attempt, self._rng))
            body = dict(payload)
            body["cluster"] = {
                "coordinator": self.name,
                "node": node,
                "key": key,
                "attempt": attempt,
                "dedupe_key": key,
            }
            client = self._client(node)
            t0 = time.perf_counter()
            try:
                doc = client.submit_doc(
                    kind, body, headers={FORWARDED_HEADER: self.name}
                )
                if doc.get("state") not in ("done", "failed", "timeout",
                                            "cancelled"):
                    doc = client.wait(str(doc["id"]), timeout=timeout)
                elif "result" not in doc:
                    # Admission-time cache hit: the submit response is
                    # the minimal acknowledgement; the status document
                    # carries the replayed result.
                    doc = client.status(str(doc["id"]))
            except (TransportError, ServiceError) as exc:
                if not _cannot_take(exc):
                    raise
                last_error = str(exc)
                self.membership.report_failure(node, last_error)
                continue
            self.membership.report_success(node)
            self.metrics["routed"].inc()
            self._record_span(
                node, label or f"{kind}:{key[:12]}",
                time.perf_counter() - t0,
            )
            doc["cluster"] = {
                "node": node,
                "key": key,
                "attempt": attempt,
                "failovers": attempt,
            }
            return doc
        self.metrics["exhausted"].inc()
        raise TransportError(
            f"no member node could run this {kind} job "
            f"(tried {len(candidates)}: last error: {last_error})",
            code=ErrorCode.NODE_UNAVAILABLE,
        )

    def fetch_blob(self, node: str, job_id: str) -> bytes:
        """Proxy a member's blob (the coordinator's blob endpoint)."""
        return self._client(node).fetch_blob(job_id)

    # -- scatter-gather sweep -------------------------------------------

    def sweep(
        self,
        dataset: str,
        targets: Sequence[float],
        fields: Optional[Sequence[str]] = None,
        *,
        scale: Optional[float] = None,
        refine: Optional[str] = None,
        codec: str = "sz",
        timeout: Optional[float] = None,
    ) -> List[FieldResult]:
        """Shard a fields x targets sweep across the cluster.

        One compress job per ``(target, field)`` task, routed by that
        task's blob fingerprint, results gathered in the serial
        :func:`~repro.parallel.executor.sweep_dataset` order so the
        merged rows compare equal to a single-node sweep.  A task whose
        every candidate node died degrades to a ``status="failed"``
        row (``error_code="node_unavailable"``); the sweep itself never
        raises for node loss.
        """
        from repro.datasets.registry import get_dataset
        from repro.errors import ParameterError

        ds = get_dataset(dataset, scale=scale)
        names = list(fields) if fields else list(ds.field_names)
        unknown = set(names) - set(ds.field_names)
        if unknown:
            raise ParameterError(
                f"unknown fields for {dataset}: {sorted(unknown)}"
            )
        tasks = [(float(t), f) for t in targets for f in names]
        self.metrics["sweep_tasks"].inc(len(tasks))

        # Scatter: submit every task (cheap POSTs) before waiting on
        # any, so members compress their shards concurrently.
        pending: List[Optional[Tuple[str, str, Dict]]] = []
        for target, field in tasks:
            pending.append(self._sweep_submit(
                dataset, field, target, scale, refine, codec,
            ))
        # Gather in task order; a node that died mid-run surfaces as a
        # TransportError from wait() and the task re-routes.
        results: List[FieldResult] = []
        for (target, field), handle in zip(tasks, pending):
            results.append(self._sweep_gather(
                dataset, field, target, scale, refine, codec, handle,
                timeout,
            ))
        return results

    def _sweep_payload(
        self, dataset, field, target, scale, refine, codec
    ) -> Dict:
        payload: Dict = {
            "dataset": dataset,
            "field": field,
            "mode": "psnr",
            "target": float(target),
            "codec": codec,
            # Blobs stay on the member (its cache keeps them); the
            # gathered row carries measurements only, like a serial
            # sweep's FieldResult.
            "keep_blob": False,
        }
        if scale is not None:
            payload["scale"] = scale
        if refine is not None:
            payload["refine"] = refine
        return payload

    def _sweep_submit(
        self, dataset, field, target, scale, refine, codec
    ) -> Optional[Tuple[str, str, Dict]]:
        """Submit one task to its owner; returns ``(node, job_id,
        payload)`` or ``None`` when no node accepted it."""
        payload = self._sweep_payload(
            dataset, field, target, scale, refine, codec
        )
        key = self.route_key("compress", payload)
        for attempt, node in enumerate(
            self.candidates(key)[: self.policy.total_attempts()]
        ):
            if attempt:
                self.metrics["failovers"].inc()
                time.sleep(self.policy.delay(attempt, self._rng))
            body = dict(payload)
            body["cluster"] = {
                "coordinator": self.name,
                "node": node,
                "key": key,
                "attempt": attempt,
                "dedupe_key": key,
            }
            try:
                doc = self._client(node).submit_doc(
                    "compress", body, headers={FORWARDED_HEADER: self.name}
                )
            except (TransportError, ServiceError) as exc:
                if not _cannot_take(exc):
                    raise
                self.membership.report_failure(node, str(exc))
                continue
            self.membership.report_success(node)
            return (node, str(doc["id"]), payload)
        return None

    def _sweep_gather(
        self, dataset, field, target, scale, refine, codec, handle,
        timeout,
    ) -> FieldResult:
        """Wait for one task, re-routing on node death, and build its
        :class:`FieldResult` row."""
        attempts = 1
        t0 = time.perf_counter()
        if handle is not None:
            node, job_id, payload = handle
            try:
                doc = self._client(node).wait(
                    job_id, timeout=self.timeout_s if timeout is None
                    else timeout,
                )
                self.metrics["routed"].inc()
                self._record_span(
                    node, f"{field}@{target:g}",
                    time.perf_counter() - t0,
                )
                return self._row_from_doc(
                    dataset, field, target, scale, doc, node, attempts
                )
            except TransportError as exc:
                # The owner died holding our job: every instant it
                # spent is lost, but its ledger never saw the result,
                # so a clean re-route stays exactly-once.
                self.membership.report_failure(node, str(exc))
        # Re-route through submit_and_wait (fresh candidate walk,
        # including the backoff schedule); exhaustion degrades to a
        # failed row instead of aborting the sweep.
        payload = self._sweep_payload(
            dataset, field, target, scale, refine, codec
        )
        try:
            doc = self.submit_and_wait(
                "compress", payload, timeout=timeout,
                label=f"{field}@{target:g}",
            )
        except TransportError as exc:
            return failed_field_result(
                dataset, field, target,
                error=str(exc),
                error_code=exc.code or ErrorCode.NODE_UNAVAILABLE,
                attempts=attempts + 1,
            )
        return self._row_from_doc(
            dataset, field, target, scale, doc,
            doc.get("cluster", {}).get("node", "?"),
            attempts + int(doc.get("cluster", {}).get("failovers", 0)) + 1,
        )

    def _row_from_doc(
        self, dataset, field, target, scale, doc, node, attempts
    ) -> FieldResult:
        """A member's terminal compress document -> the FieldResult row
        the serial sweep would have produced for the same task."""
        if doc.get("state") != "done" or not doc.get("result"):
            return failed_field_result(
                dataset, field, target,
                error=str(doc.get("error") or f"job ended {doc.get('state')}"),
                error_code=str(
                    doc.get("error_code") or ErrorCode.TASK_FAILED
                ),
                attempts=attempts,
            )
        result = doc["result"]
        from repro.cache import field_digest

        stats = field_digest(dataset, field, scale)
        size = stats[2] if stats else 0
        compressed = result.get("compressed_bytes") or 0
        actual = float(result["achieved_psnr"])
        return FieldResult(
            dataset=dataset,
            field=field,
            target_psnr=float(target),
            actual_psnr=actual,
            deviation=float(actual - target),
            met=bool(actual >= target),
            compression_ratio=float(result["ratio"]),
            bit_rate=(
                8.0 * compressed / size if size and compressed
                else float("nan")
            ),
            eb_rel=float(result["eb_rel"]),
            status="ok",
            attempts=attempts,
            cache_hit=bool(result.get("cached")),
        )

    # -- tracing --------------------------------------------------------

    def _record_span(self, node: str, label: str, duration_s: float) -> None:
        """Hand-built span on the node's synthetic Perfetto lane --
        the coordinator's view of remote work, one pid per member."""
        if self.trace is None:
            return
        self.trace.merge(
            [
                {
                    "path": ["cluster.route", node, label],
                    "seq": 0,
                    "duration_s": duration_s,
                    "counters": {"jobs": 1},
                    "gauges": {},
                    "t_start": time.perf_counter() - duration_s,
                    "pid": node_lane(node),
                    "tid": 1,
                }
            ]
        )
