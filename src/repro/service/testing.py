"""In-process service harness for tests and benchmarks.

:class:`ServiceThread` runs a full :class:`~repro.service.app.
CompressionService` -- real sockets, real dispatcher -- on a private
event loop in a daemon thread, so synchronous test code can drive it
with the blocking :class:`~repro.service.client.ServiceClient`.

Defaults are test-friendly: port 0 (the OS picks a free port) and a
**thread**-kind executor.  The thread kind matters twice over: worker
processes cannot be forked from a thread that is not the main thread
(and the service loop here is exactly that), and results are
bit-identical across executor kinds anyway -- the differential
contract the data plane established.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from repro.errors import ReproError
from repro.service.app import CompressionService, ServiceConfig
from repro.service.client import ServiceClient

__all__ = ["ServiceThread"]


class ServiceThread:
    """A live service on a background event loop; use as a context
    manager::

        with ServiceThread(n_workers=2) as st:
            client = st.client()
            job = client.submit_compress("ATM", "CLDHGH", target=60.0)
            done = client.wait(job)
    """

    def __init__(self, config: Optional[ServiceConfig] = None, **overrides):
        if config is None:
            defaults = dict(port=0, n_workers=2, kind="thread")
            defaults.update(overrides)
            config = ServiceConfig(**defaults)
        elif overrides:
            raise ReproError("give either config or overrides, not both")
        self.config = config
        self.service: Optional[CompressionService] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run, name="fpzc-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ReproError("service did not start within 30s")
        if self._startup_error is not None:
            raise ReproError(
                f"service failed to start: {self._startup_error}"
            )
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self.loop = loop
        try:
            # Constructed inside the loop thread so every asyncio
            # primitive binds to this loop.
            self.service = CompressionService(self.config)
            loop.run_until_complete(self.service.start())
        except BaseException as exc:  # noqa: BLE001 -- reported to starter
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_until_complete(
                self.service.serve_forever(install_signals=False)
            )
        finally:
            # As asyncio.run does: let still-pending tasks (dispatchers
            # cancelled mid-await, handlers of connections a killed
            # service never answered) unwind before the loop closes,
            # instead of destroying them pending.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
            loop.close()

    def stop(self, grace: Optional[float] = None) -> None:
        """Drain and join; safe to call twice."""
        if self.loop is None or self.service is None:
            return
        if self._thread is None or not self._thread.is_alive():
            return
        if self.service._draining:  # noqa: SLF001
            # Drain already under way (explicit shutdown, or a prior
            # stop()): scheduling another coroutine would race the
            # closing loop and leak un-awaited; just join below.
            pass
        else:
            coro = self.service.shutdown(grace=grace)
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

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- access ---------------------------------------------------------

    @property
    def port(self) -> int:
        assert self.service is not None
        return self.service.port

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def client(self, timeout: float = 60.0) -> ServiceClient:
        return ServiceClient(self.url, timeout=timeout)
