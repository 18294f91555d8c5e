"""Tests for the stdlib asyncio HTTP layer: the request parser and
response renderer as units, then the front door both servers share
(``fpzc serve`` and ``fpzc cluster serve``) checked on live servers."""

import asyncio
import gc
import json
import re
import socket
import sys
import time
import warnings

import pytest

from repro.cluster.testing import CoordinatorThread
from repro.service.http import (
    HttpError,
    Request,
    json_body,
    read_request,
    render_response,
)
from repro.service.testing import ServiceThread


def _parse(data: bytes, max_body: int = 16 * 1024 * 1024):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader, max_body=max_body)

    return asyncio.run(go())


class TestReadRequest:
    def test_simple_get(self):
        req = _parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert req.method == "GET"
        assert req.path == "/healthz"
        assert req.headers["host"] == "x"
        assert req.body == b""

    def test_query_string_parsed(self):
        req = _parse(b"GET /metrics?format=json&x=1 HTTP/1.1\r\n\r\n")
        assert req.path == "/metrics"
        assert req.query == {"format": "json", "x": "1"}

    def test_post_with_body(self):
        body = json.dumps({"dataset": "ATM"}).encode()
        raw = (
            b"POST /v1/compress HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        req = _parse(raw)
        assert req.method == "POST"
        assert json_body(req) == {"dataset": "ATM"}

    def test_clean_close_returns_none(self):
        assert _parse(b"") is None

    def test_truncated_head_is_400(self):
        with pytest.raises(HttpError) as exc:
            _parse(b"GET / HTTP/1.1\r\nHost: x\r\n")
        assert exc.value.status == 400

    def test_malformed_request_line_is_400(self):
        with pytest.raises(HttpError) as exc:
            _parse(b"NONSENSE\r\n\r\n")
        assert exc.value.status == 400

    def test_malformed_header_is_400(self):
        with pytest.raises(HttpError) as exc:
            _parse(b"GET / HTTP/1.1\r\nno colon here\r\n\r\n")
        assert exc.value.status == 400

    def test_chunked_body_is_501(self):
        with pytest.raises(HttpError) as exc:
            _parse(
                b"POST /v1/compress HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
            )
        assert exc.value.status == 501

    def test_bad_content_length_is_400(self):
        for value in (b"nope", b"-5"):
            with pytest.raises(HttpError) as exc:
                _parse(
                    b"POST / HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n"
                )
            assert exc.value.status == 400

    def test_body_over_cap_is_413(self):
        with pytest.raises(HttpError) as exc:
            _parse(
                b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100,
                max_body=10,
            )
        assert exc.value.status == 413

    def test_truncated_body_is_400(self):
        with pytest.raises(HttpError) as exc:
            _parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
        assert exc.value.status == 400

    def test_giant_header_block_is_413(self):
        raw = (
            b"GET / HTTP/1.1\r\n"
            + b"X-Pad: " + b"a" * (70 * 1024) + b"\r\n\r\n"
        )
        with pytest.raises(HttpError) as exc:
            _parse(raw)
        assert exc.value.status == 413


class TestRenderResponse:
    def test_shape(self):
        raw = render_response(200, b'{"ok": true}')
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 12" in head
        assert b"Connection: close" in head
        assert body == b'{"ok": true}'

    def test_extra_headers_and_reason(self):
        raw = render_response(
            429, b"{}", extra_headers=(("Retry-After", "1"),)
        )
        assert raw.startswith(b"HTTP/1.1 429 Too Many Requests\r\n")
        assert b"Retry-After: 1\r\n" in raw

    def test_unknown_status_still_renders(self):
        assert render_response(418, b"").startswith(b"HTTP/1.1 418 ")


class TestJsonBody:
    def test_empty_body_is_400(self):
        with pytest.raises(HttpError) as exc:
            json_body(Request(method="POST", path="/"))
        assert exc.value.status == 400

    def test_invalid_json_is_400(self):
        with pytest.raises(HttpError) as exc:
            json_body(Request(method="POST", path="/", body=b"{nope"))
        assert exc.value.status == 400

    def test_non_object_is_400(self):
        with pytest.raises(HttpError) as exc:
            json_body(Request(method="POST", path="/", body=b"[1, 2]"))
        assert exc.value.status == 400


# -- the front door, on live servers --------------------------------------

#: One sample line of the Prometheus text exposition format.
_PROM_SAMPLE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+$")


@pytest.fixture(scope="module", params=["service", "coordinator"])
def server(request):
    """A live service, or a live coordinator in front of one."""
    with ServiceThread(no_ledger=True) as st:
        if request.param == "service":
            yield st
        else:
            with CoordinatorThread(peers=(st.url,)) as co:
                yield co


def _exchange(port: int, raw: bytes):
    """Send ``raw`` on a fresh connection; return (status, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


class TestFrontDoor:
    def test_malformed_request_line_is_400_with_json_error(self, server):
        status, body = _exchange(server.port, b"NONSENSE\r\n\r\n")
        assert status == 400
        assert json.loads(body)["error"]

    def test_body_over_16_mib_is_413(self, server):
        raw = (
            b"POST /v1/compress HTTP/1.1\r\nContent-Length: "
            + str(16 * 1024 * 1024 + 1).encode()
            + b"\r\n\r\n"
        )
        assert _exchange(server.port, raw)[0] == 413

    def test_chunked_body_is_501(self, server):
        raw = (
            b"POST /v1/compress HTTP/1.1\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        )
        assert _exchange(server.port, raw)[0] == 501

    def test_unknown_route_is_404(self, server):
        status, body = _exchange(server.port, b"GET /nope HTTP/1.1\r\n\r\n")
        assert status == 404
        assert json.loads(body)["error"]

    def test_non_json_body_on_compress_is_400(self, server):
        raw = (
            b"POST /v1/compress HTTP/1.1\r\n"
            b"Content-Length: 5\r\n\r\n{nope"
        )
        status, body = _exchange(server.port, raw)
        assert status == 400
        assert json.loads(body)["error"]

    def test_metrics_prometheus_text_and_json_snapshot(self, server):
        client = server.client()
        samples = [
            line
            for line in client.metrics_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert samples
        assert all(_PROM_SAMPLE.match(line) for line in samples), samples
        snap = client.metrics_json()
        assert snap["schema"] == 1
        assert isinstance(snap["metrics"], dict) and snap["metrics"]


def _handler_tasks(loop) -> int:
    """Connection handlers pending on ``loop`` (read from its thread)."""

    async def count():
        return sum(
            t.get_coro().__name__ == "_handle" for t in asyncio.all_tasks()
        )

    return asyncio.run_coroutine_threadsafe(count(), loop).result(timeout=10)


@pytest.mark.parametrize("harness", ["service", "coordinator"])
def test_stop_unwinds_a_half_read_request(harness, caplog):
    """Stopping a harness while a client has sent only part of its
    request head cancels that handler and closes its transport before
    the loop closes: no task destroyed pending, no unclosed transport,
    no unraisable ``Event loop is closed``."""
    unraisable = []
    old_hook = sys.unraisablehook
    sys.unraisablehook = unraisable.append
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            member = ServiceThread(no_ledger=True).start()
            try:
                st = (
                    member
                    if harness == "service"
                    else CoordinatorThread(peers=(member.url,)).start()
                )
                sock = socket.create_connection(("127.0.0.1", st.port))
                try:
                    sock.sendall(b"GET /healthz HTTP/1.1\r\n")
                    deadline = time.monotonic() + 10
                    while not _handler_tasks(st.loop):
                        assert time.monotonic() < deadline, "never accepted"
                        time.sleep(0.01)
                    st.stop()
                finally:
                    sock.close()
            finally:
                member.stop()
            gc.collect()
    finally:
        sys.unraisablehook = old_hook
    assert unraisable == []
    assert [w for w in caught if w.category is ResourceWarning] == []
    assert "destroyed but it is pending" not in caplog.text
