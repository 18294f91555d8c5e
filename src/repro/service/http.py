"""Minimal HTTP/1.1 on raw asyncio streams, and the server both
``fpzc serve`` and ``fpzc cluster serve`` run on it.

The servers speak just enough HTTP for their job APIs: request-line +
headers + ``Content-Length`` bodies in, fixed-length responses out,
``Connection: close`` per exchange (the clients are scripts and
side-cars, not browsers holding keep-alive pools).  Implemented
directly on :mod:`asyncio` streams -- no ``http.server``, no threads
per connection, no framework -- because the dispatcher must live on
the same event loop that reads the sockets.

Hard limits guard the parser (header block and body size caps, 400 on
malformed syntax, 413 over the body cap, 501 for chunked bodies) so a
misbehaving client cannot balloon memory before admission control even
sees the request.

:class:`HttpServer` is the front door: bind, serve until drained, one
connection handler that maps errors to statuses, and the ``/metrics``
route.  :class:`~repro.service.app.CompressionService` and
:class:`~repro.cluster.coordinator.ClusterCoordinator` add their
routes and their own start/stop work.
"""

from __future__ import annotations

import asyncio
import json
import signal
from dataclasses import dataclass, field as dc_field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.errors import ReproError, TransportError

__all__ = [
    "KEEP_JOBS",
    "HttpError",
    "HttpServer",
    "Request",
    "read_request",
    "render_response",
    "json_body",
]

#: Cap on the request line + header block.
MAX_HEADER_BYTES = 64 * 1024

#: Terminal job documents a server keeps for ``GET /v1/jobs/<id>``;
#: older ones are dropped so a long-lived server stays bounded.
KEEP_JOBS = 512

#: Reason phrases for the statuses the servers emit.
REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A protocol-level failure that maps straight to a response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, str] = dc_field(default_factory=dict)
    headers: Dict[str, str] = dc_field(default_factory=dict)
    body: bytes = b""


async def read_request(
    reader: asyncio.StreamReader, max_body: int = 16 * 1024 * 1024
) -> Optional[Request]:
    """Parse one request off ``reader``.

    Returns ``None`` on a cleanly closed connection before any bytes;
    raises :class:`HttpError` for anything malformed or over limits.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "header block too large")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "header block too large")
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
        raise HttpError(400, "undecodable request head")
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    split = urlsplit(target)
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            raise HttpError(400, f"malformed header line: {line!r}")
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked request bodies are not supported")
    body = b""
    if "content-length" in headers:
        try:
            n = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "bad Content-Length")
        if n < 0:
            raise HttpError(400, "bad Content-Length")
        if n > max_body:
            raise HttpError(413, f"body exceeds the {max_body}-byte cap")
        try:
            body = await reader.readexactly(n)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "truncated request body")
    return Request(
        method=method.upper(),
        path=split.path,
        query={k: v for k, v in parse_qsl(split.query)},
        headers=headers,
        body=body,
    )


def render_response(
    status: int,
    body: bytes = b"",
    content_type: str = "application/json",
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> bytes:
    """Serialize one complete ``Connection: close`` response."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def json_body(request: Request) -> Dict:
    """Decode the request body as a JSON object (400 otherwise)."""
    if not request.body:
        raise HttpError(400, "request needs a JSON body")
    try:
        doc = json.loads(request.body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HttpError(400, f"bad JSON body: {exc}")
    if not isinstance(doc, dict):
        raise HttpError(400, "request body must be a JSON object")
    return doc


#: A route's answer: status, body, content type, extra headers.
Response = Tuple[int, bytes, str, Tuple[Tuple[str, str], ...]]


class HttpServer:
    """The asyncio front door: one listening socket, one handler per
    connection, errors mapped to statuses.

    Subclasses supply :meth:`_route` and :meth:`shutdown`; a
    subclass's ``start`` and ``shutdown`` do their own work around
    :meth:`start` and :meth:`_close` here.
    """

    def __init__(self, host: str, port: int):
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped = asyncio.Event()
        self._draining = False

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        if self._server is None or not self._server.sockets:
            return self._port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the listening socket."""
        self._server = await asyncio.start_server(
            self._handle, host=self._host, port=self._port
        )

    async def serve_forever(self, install_signals: bool = True) -> None:
        """Run until a signal (or :meth:`shutdown`) drains the server."""
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        sig,
                        lambda: asyncio.ensure_future(self.shutdown()),
                    )
                except (NotImplementedError, RuntimeError):
                    pass  # non-main thread / platform without support
        await self._stopped.wait()

    async def shutdown(self) -> None:
        raise NotImplementedError

    async def _close(self) -> None:
        """Stop accepting connections (the end of every drain)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                response = self._json(exc.status, {"error": exc.message})
            else:
                if request is None:
                    return
                response = await self._respond(request)
            writer.write(render_response(*response))
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, request: Request) -> Response:
        """Answer one parsed request; no exception escapes."""
        try:
            if request.method == "GET" and request.path == "/metrics":
                return self._metrics_response(request)
            return await self._route(request)
        except HttpError as exc:
            return self._json(exc.status, {"error": exc.message})
        except TransportError as exc:
            return self._json(503, {"error": str(exc), "error_code": exc.code})
        except ReproError as exc:
            return self._json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 -- last-resort 500
            return self._json(500, {"error": f"{type(exc).__name__}: {exc}"})

    async def _route(self, request: Request) -> Response:
        raise NotImplementedError

    @staticmethod
    def _json(status: int, doc: Dict, extra: Tuple = ()) -> Response:
        return (
            status,
            json.dumps(doc, sort_keys=True).encode(),
            "application/json",
            tuple(extra),
        )

    def _metrics_response(self, request: Request) -> Response:
        """``GET /metrics``: the process registry."""
        from repro.telemetry.registry import metrics

        return self._render_metrics(request, metrics().snapshot())

    @classmethod
    def _render_metrics(cls, request: Request, snap: Dict) -> Response:
        """``snap`` as Prometheus text, or JSON for ``?format=json``."""
        if request.query.get("format") == "json":
            return cls._json(200, snap)
        from repro.report import render_prometheus

        return (
            200,
            render_prometheus(snap).encode(),
            "text/plain; version=0.0.4",
            (),
        )
