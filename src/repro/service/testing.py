"""In-process server harness for tests and benchmarks.

:class:`ServerThread` runs one :class:`~repro.service.http.HttpServer`
-- real sockets, its real background tasks -- on a private event loop
in a daemon thread, so synchronous test code can drive it with the
blocking :class:`~repro.service.client.ServiceClient`.
:class:`ServiceThread` runs a :class:`~repro.service.app.
CompressionService` this way; :class:`repro.cluster.testing.
CoordinatorThread` a cluster coordinator.

Service defaults are test-friendly: port 0 (the OS picks a free port)
and a **thread**-kind executor.  The thread kind matters twice over:
worker processes cannot be forked from a thread that is not the main
thread (and the service loop here is exactly that), and results are
bit-identical across executor kinds anyway -- the differential
contract the data plane established.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, Optional

from repro.errors import ReproError
from repro.service.app import CompressionService, ServiceConfig
from repro.service.client import ServiceClient
from repro.service.http import HttpServer

__all__ = ["ServerThread", "ServiceThread"]


class ServerThread:
    """A live server on a background event loop; use as a context
    manager.  Subclasses set the class attributes below."""

    #: The server class, built from the config inside the loop thread,
    #: and its config class.
    server_cls: type
    config_cls: type
    #: Config values that keyword overrides go over.
    defaults: Dict = {}
    #: Names the loop thread and the startup errors.
    role = "server"
    #: Default timeout of :meth:`client` requests.
    client_timeout = 60.0

    def __init__(self, config=None, **overrides):
        if config is None:
            config = self.config_cls(**{**self.defaults, **overrides})
        elif overrides:
            raise ReproError("give either config or overrides, not both")
        self.config = config
        self.server: Optional[HttpServer] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle ------------------------------------------------------

    def start(self):
        self._thread = threading.Thread(
            target=self._run, name=f"fpzc-{self.role}", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ReproError(f"{self.role} did not start within 30s")
        if self._startup_error is not None:
            raise ReproError(
                f"{self.role} failed to start: {self._startup_error}"
            )
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self.loop = loop
        try:
            # Constructed inside the loop thread so every asyncio
            # primitive binds to this loop.
            self.server = self.server_cls(self.config)
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 -- reported to starter
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_until_complete(
                self.server.serve_forever(install_signals=False)
            )
        finally:
            # As asyncio.run does: let still-pending tasks (background
            # loops cancelled mid-await, handlers of connections that
            # never sent a whole request) unwind before the loop
            # closes, instead of destroying them pending.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
            loop.close()

    def stop(self, **shutdown_kw) -> None:
        """Drain (``shutdown_kw`` go to the server's ``shutdown``, e.g.
        a service's ``grace``) and join; safe to call twice."""
        if self.loop is None or self.server is None:
            return
        if self._thread is None or not self._thread.is_alive():
            return
        # A drain already under way (explicit shutdown, or a prior
        # stop()) ends the loop itself: scheduling another coroutine
        # would race the closing loop and leak un-awaited.
        if not self.server._draining:  # noqa: SLF001
            coro = self.server.shutdown(**shutdown_kw)
            try:
                future = asyncio.run_coroutine_threadsafe(coro, self.loop)
            except RuntimeError:
                # Loop already closed: the drain has happened; reap
                # the un-awaited coroutine.
                coro.close()
            else:
                try:
                    future.result(timeout=60)
                except Exception:  # noqa: BLE001 -- loop may be closing
                    pass
        self._thread.join(timeout=60)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- access ---------------------------------------------------------

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def client(self, timeout: Optional[float] = None) -> ServiceClient:
        return ServiceClient(
            self.url,
            timeout=self.client_timeout if timeout is None else timeout,
        )


class ServiceThread(ServerThread):
    """A live compression service::

        with ServiceThread(n_workers=2) as st:
            client = st.client()
            job = client.submit_compress("ATM", "CLDHGH", target=60.0)
            done = client.wait(job)
    """

    server_cls = CompressionService
    config_cls = ServiceConfig
    defaults = {"port": 0, "n_workers": 2, "kind": "thread"}
    role = "service"

    @property
    def service(self) -> Optional[CompressionService]:
        return self.server
