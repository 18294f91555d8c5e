"""In-process coordinator harness for tests.

:class:`CoordinatorThread` is :class:`repro.service.testing.
ServerThread` around a :class:`~repro.cluster.coordinator.
ClusterCoordinator` -- real sockets, real probe loop -- so synchronous
test code can drive a whole in-process cluster (member
:class:`~repro.service.testing.ServiceThread` instances + this
coordinator) with the blocking :class:`~repro.service.client.
ServiceClient`.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
from repro.service.testing import ServerThread

__all__ = ["CoordinatorThread"]


class CoordinatorThread(ServerThread):
    """A live coordinator on a background event loop::

        with ServiceThread() as a, ServiceThread() as b:
            with CoordinatorThread(peers=(a.url, b.url)) as co:
                client = co.client()
                job = client.submit_compress("ATM", "CLDHGH", target=60.0)
    """

    server_cls = ClusterCoordinator
    config_cls = ClusterConfig
    defaults = {"port": 0}
    role = "coordinator"
    client_timeout = 120.0

    @property
    def coordinator(self) -> Optional[ClusterCoordinator]:
        return self.server

    @property
    def router(self):
        assert self.server is not None
        return self.server.router
