"""Multi-node compression cluster: N ``fpzc serve`` daemons as one system.

The distributed tier over the single-node service stack.  One process
runs as **coordinator** (``fpzc cluster serve``) and routes
compress/sweep/autotune jobs to member nodes over the same stdlib
HTTP/1.1 protocol the service already speaks.  The pieces:

:mod:`repro.cluster.ring`
    Consistent-hash ring with virtual nodes over blob-cache
    fingerprints, so repeat submissions of the same
    ``(data_digest, codec, mode, target)`` land on the member whose
    cache already holds the blob.  Monotone: membership change moves
    only ~1/N of the keyspace.
:mod:`repro.cluster.membership`
    Health states (alive/degraded/dead) from ``/readyz`` probes with
    seeded-jitter backoff; dead members lose their ring ownership to
    the successors, deterministically.
:mod:`repro.cluster.router`
    The data path: route key -> owner -> failover along the ring
    under :class:`~repro.resilience.retry.RetryPolicy` semantics,
    dedupe keys traveling with every job (exactly-once ledger
    records); scatter-gather sweeps whose merged
    :class:`~repro.parallel.executor.FieldResult` rows compare equal
    to the serial path.
:mod:`repro.cluster.coordinator`
    The coordinator's routes on the front door it shares with the
    member services (:class:`repro.service.http.HttpServer`), plus
    cluster observability:
    ``/cluster/metrics`` (member Prometheus snapshots merged via
    ``merge_snapshot``), ``/cluster/ring``, ``/cluster/nodes``.
:mod:`repro.cluster.testing`
    :class:`~repro.cluster.testing.CoordinatorThread`, the in-process
    harness multi-node e2e tests build clusters from.

See ``docs/CLUSTER.md`` for topology format, routing/failover
semantics and the exactly-once argument.
"""

from repro.cluster.coordinator import (
    ClusterConfig,
    ClusterCoordinator,
    build_router,
    load_topology,
    run_coordinator,
)
from repro.cluster.membership import Membership
from repro.cluster.ring import HashRing
from repro.cluster.router import ClusterRouter

__all__ = [
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterRouter",
    "HashRing",
    "Membership",
    "build_router",
    "load_topology",
    "run_coordinator",
]
