"""The cluster coordinator: one HTTP front door over N member nodes.

``fpzc cluster serve`` runs this process.  It runs on the same
front door as the member services (:class:`repro.service.http.
HttpServer`) and exposes:

=============================  =======================================
``POST /v1/compress``          route one job to its ring owner
``POST /v1/autotune``          (same routing, spec-hash key)
``POST /v1/sweep``             scatter-gather across the members
``GET /v1/jobs/<id>``          a routed job's terminal document
``GET /v1/jobs/<id>/blob``     blob, proxied from the owning member
``GET /healthz /readyz``       coordinator liveness / >=1 member alive
``GET /metrics``               the coordinator's own registry
``GET /cluster/metrics``       member snapshots merged (Prometheus/JSON)
``GET /cluster/ring``          vnode count + per-member ownership
``GET /cluster/nodes``         membership health states
=============================  =======================================

Topology comes from ``--peers`` or a JSON file::

    {"peers": ["http://10.0.0.1:8077", "http://10.0.0.2:8077"],
     "vnodes": 64, "dead_after": 3, "probe_interval_s": 2.0,
     "max_retries": 2, "retry_seed": 0}

Routing, failover and the exactly-once argument live in
:mod:`repro.cluster.router`; health state in
:mod:`repro.cluster.membership`.  The coordinator itself holds no job
queue -- members do their own admission control -- so it stays a thin
asyncio loop: blocking member I/O runs on the default thread-pool
executor, one thread per in-flight forwarded request.

``/cluster/metrics`` is the observability tentpole: it fetches every
routable member's ``/metrics?format=json`` snapshot and folds them
into one registry with
:meth:`repro.telemetry.registry.MetricsRegistry.merge_snapshot` --
counters add, gauges take the member's reading -- then appends the
coordinator's own ``fpzc_cluster_*`` families, so one Prometheus
scrape sees the whole fleet.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.cluster.membership import Membership
from repro.cluster.ring import HashRing
from repro.cluster.router import ClusterRouter
from repro.errors import ParameterError, ReproError, TransportError
from repro.resilience.retry import RetryPolicy
from repro.service.http import (
    KEEP_JOBS,
    HttpError,
    HttpServer,
    Request,
    json_body,
)

__all__ = [
    "ClusterConfig",
    "ClusterCoordinator",
    "build_router",
    "load_topology",
    "run_coordinator",
]


def load_topology(path) -> Dict:
    """Parse a topology JSON file: an object with a non-empty
    ``peers`` list plus optional tuning keys (see module docstring)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParameterError(f"cannot read topology {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParameterError(f"topology {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or not doc.get("peers"):
        raise ParameterError(
            f"topology {path} must be an object with a non-empty "
            f"'peers' list"
        )
    return doc


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a coordinator process needs."""

    host: str = "127.0.0.1"
    port: int = 8076
    peers: Tuple[str, ...] = ()
    vnodes: int = 64
    dead_after: int = 3
    probe_interval_s: float = 2.0
    probe_timeout_s: float = 5.0
    max_retries: int = 2
    backoff_base: float = 0.05
    retry_seed: int = 0
    request_timeout_s: float = 300.0
    name: str = "coordinator"
    trace_perfetto: Optional[str] = None

    def __post_init__(self):
        if not self.peers:
            raise ParameterError("cluster needs at least one peer")

    @classmethod
    def from_topology(cls, path, **overrides) -> "ClusterConfig":
        doc = load_topology(path)
        kwargs: Dict = {"peers": tuple(str(p) for p in doc["peers"])}
        for key in (
            "vnodes", "dead_after", "probe_interval_s", "probe_timeout_s",
            "max_retries", "backoff_base", "retry_seed",
            "request_timeout_s", "name",
        ):
            if key in doc:
                kwargs[key] = doc[key]
        kwargs.update(
            {k: v for k, v in overrides.items() if v is not None}
        )
        return cls(**kwargs)


def build_router(config: ClusterConfig, trace=None) -> ClusterRouter:
    """Ring + membership + router wired per ``config`` -- shared by
    the coordinator daemon and the ``fpzc sweep --cluster`` CLI path."""
    ring = HashRing(config.peers, vnodes=config.vnodes)
    membership = Membership(
        config.peers,
        dead_after=config.dead_after,
        probe_interval_s=config.probe_interval_s,
        probe_timeout_s=config.probe_timeout_s,
        policy=RetryPolicy(
            max_retries=max(config.max_retries, 1),
            backoff_base=max(config.backoff_base, 0.01),
            backoff_max=max(config.probe_interval_s, 1.0),
            seed=config.retry_seed,
        ),
    )
    return ClusterRouter(
        ring,
        membership,
        policy=RetryPolicy(
            max_retries=config.max_retries,
            backoff_base=config.backoff_base,
            backoff_max=2.0,
            seed=config.retry_seed,
        ),
        timeout_s=config.request_timeout_s,
        name=config.name,
        trace=trace,
    )


class ClusterCoordinator(HttpServer):
    """The asyncio front end around a :class:`ClusterRouter`."""

    def __init__(self, config: ClusterConfig):
        super().__init__(config.host, config.port)
        self.config = config
        self.trace = None
        if config.trace_perfetto:
            from repro.observe import Trace

            self.trace = Trace()
        self.router = build_router(config, trace=self.trace)
        self.membership = self.router.membership
        self.ring = self.router.ring
        self._ids = itertools.count(1)
        #: cid -> (node, terminal doc) for the newest KEEP_JOBS routed
        #: single jobs, oldest first.
        self.jobs: Dict[str, Tuple[str, Dict]] = {}
        self._probe_task: Optional[asyncio.Task] = None
        self._started = time.monotonic()

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        # Synchronous startup probe so /readyz is truthful immediately.
        await loop.run_in_executor(None, self.membership.probe_all)
        await super().start()
        self._probe_task = loop.create_task(self._probe_loop())

    async def shutdown(self) -> None:
        if self._draining:
            return
        self._draining = True
        if self._probe_task is not None:
            self._probe_task.cancel()
            await asyncio.gather(self._probe_task, return_exceptions=True)
        await self._close()
        if self.trace is not None and self.config.trace_perfetto:
            from repro.cluster.router import node_lane
            from repro.telemetry.export import write_chrome_trace
            from repro.telemetry.registry import metrics as _reg

            write_chrome_trace(
                self.trace,
                self.config.trace_perfetto,
                snapshot=_reg().snapshot(),
                process_names={
                    node_lane(url): f"node {url}"
                    for url in self.membership.peers
                },
            )
        self._stopped.set()

    async def _probe_loop(self) -> None:
        loop = asyncio.get_running_loop()
        interval = max(0.05, min(self.config.probe_interval_s, 0.5))
        while True:
            await asyncio.sleep(interval)
            await loop.run_in_executor(None, self.membership.probe_due)

    # -- HTTP -----------------------------------------------------------

    async def _route(self, request: Request):
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            return self._json(200, {
                "ok": True,
                "role": "coordinator",
                "uptime_s": round(time.monotonic() - self._started, 3),
                "nodes": {
                    url: st["status"]
                    for url, st in self.membership.states().items()
                },
            })
        if path == "/readyz" and method == "GET":
            alive = self.membership.n_alive()
            if self._draining or alive == 0:
                return self._json(503, {"ready": False, "alive": alive})
            return self._json(200, {"ready": True, "alive": alive})
        if path == "/cluster/metrics" and method == "GET":
            return await self._cluster_metrics(request)
        if path == "/cluster/ring" and method == "GET":
            return self._json(200, self.ring.as_dict())
        if path == "/cluster/nodes" and method == "GET":
            return self._json(200, {
                "peers": self.membership.peers,
                "states": self.membership.states(),
            })
        if path.startswith("/v1/"):
            return await self._route_v1(request)
        raise HttpError(404, f"no route for {method} {path}")

    async def _route_v1(self, request: Request):
        method, path = request.method, request.path
        parts = path.split("/")  # ['', 'v1', ...]
        if method == "POST" and len(parts) == 3 and parts[2] in (
            "compress", "sweep", "autotune"
        ):
            kind = parts[2]
            doc = json_body(request)
            loop = asyncio.get_running_loop()
            if kind == "sweep":
                return await loop.run_in_executor(
                    None, functools.partial(self._do_sweep, doc)
                )
            routed = await loop.run_in_executor(
                None, self.router.submit_and_wait, kind, doc
            )
            return self._json(200, self._remember(routed))
        if len(parts) >= 4 and parts[1] == "v1" and parts[2] == "jobs":
            cid = parts[3]
            entry = self.jobs.get(cid)
            if entry is None:
                raise HttpError(404, f"no such job {cid}")
            node, doc = entry
            if method == "GET" and len(parts) == 4:
                return self._json(200, doc)
            if method == "GET" and len(parts) == 5 and parts[4] == "blob":
                remote_id = str(doc.get("id"))
                loop = asyncio.get_running_loop()
                blob = await loop.run_in_executor(
                    None, self.router.fetch_blob, node, remote_id
                )
                return (200, blob, "application/octet-stream", ())
        raise HttpError(404, f"no route for {method} {path}")

    def _remember(self, doc: Dict) -> Dict:
        """File a routed job's terminal document under a new coordinator
        ID, dropping the oldest past :data:`KEEP_JOBS`."""
        cid = f"c{next(self._ids):06d}"
        self.jobs[cid] = (doc.get("cluster", {}).get("node", "?"), doc)
        while len(self.jobs) > KEEP_JOBS:
            del self.jobs[next(iter(self.jobs))]
        return {**doc, "coordinator_id": cid}

    # -- forwarded work (runs on executor threads) ----------------------

    def _do_sweep(self, payload: Dict):
        targets = [float(t) for t in payload.get("targets") or ()]
        if not targets:
            raise HttpError(400, "sweep jobs need 'targets'")
        dataset = str(payload.get("dataset") or "")
        if not dataset:
            raise HttpError(400, "sweep jobs need a 'dataset'")
        rows = self.router.sweep(
            dataset,
            targets,
            fields=[str(f) for f in payload.get("fields") or ()] or None,
            scale=payload.get("scale"),
            refine=payload.get("refine"),
            codec=str(payload.get("codec") or "sz"),
        )
        failed = [r for r in rows if r.status != "ok"]
        return self._json(200, {
            "state": "done",
            "kind": "sweep",
            "dataset": dataset,
            "n_tasks": len(rows),
            "n_failed": len(failed),
            "rows": [r.as_dict() for r in rows],
        })

    # -- observability --------------------------------------------------

    async def _cluster_metrics(self, request: Request):
        """Every member's snapshot + the coordinator's own, merged."""
        loop = asyncio.get_running_loop()
        doc = await loop.run_in_executor(None, self._merged_snapshot)
        return self._render_metrics(request, doc)

    def _merged_snapshot(self) -> Dict:
        from repro.telemetry.registry import MetricsRegistry
        from repro.telemetry.registry import metrics as _reg

        merged = MetricsRegistry()
        merged.merge_snapshot(_reg().snapshot())
        members = {}
        for url in self.membership.peers:
            if not self.membership.routable(url):
                members[url] = "skipped"
                continue
            try:
                snap = self.router._client(url).metrics_json()
            except (ReproError, TransportError) as exc:
                self.membership.report_failure(url, str(exc))
                members[url] = "unreachable"
                continue
            merged.merge_snapshot(snap)
            members[url] = "merged"
        doc = merged.snapshot()
        doc["cluster"] = {"members": members}
        return doc


async def run_coordinator_async(config: ClusterConfig) -> int:
    coordinator = ClusterCoordinator(config)
    await coordinator.start()
    print(
        f"fpzc cluster coordinator on "
        f"http://{config.host}:{coordinator.port} "
        f"({len(config.peers)} peer(s), vnodes={config.vnodes})",
        flush=True,
    )
    await coordinator.serve_forever()
    return 0


def run_coordinator(config: ClusterConfig) -> int:
    """Blocking entry point (``fpzc cluster serve``)."""
    return asyncio.run(run_coordinator_async(config))
