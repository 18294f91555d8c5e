"""Thin synchronous client for the compression service.

Built on :mod:`http.client` (stdlib, blocking) because the consumers
are scripts, tests and the ``fpzc submit/status/fetch/cancel``
subcommands -- none of which want an event loop.  One TCP connection
per call matches the server's ``Connection: close`` discipline.

The server URL resolves from (in order): the explicit ``url``
argument, the ``FPZC_SERVICE_URL`` environment variable, and the
default ``http://127.0.0.1:8077``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import time
from typing import Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import ErrorCode, ParameterError, ReproError, TransportError

__all__ = ["ServiceError", "ServiceClient", "DEFAULT_URL"]

DEFAULT_URL = "http://127.0.0.1:8077"


class ServiceError(ReproError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str, retry_after: Optional[float] = None):
        super().__init__(f"service answered {status}: {message}")
        self.status = status
        self.retry_after = retry_after


def resolve_url(url: Optional[str] = None) -> str:
    return url or os.environ.get("FPZC_SERVICE_URL") or DEFAULT_URL


class ServiceClient:
    """Scriptable access to every service endpoint.

    Transport failures (connection refused/reset -- a dead or
    mid-restart server) raise :class:`~repro.errors.TransportError`
    with :data:`~repro.errors.ErrorCode.CONNECT_FAILED`, never a raw
    ``OSError``; HTTP-level errors raise :class:`ServiceError`.

    A 429 (queue full) is retried up to ``retry_429`` times, sleeping
    the server's ``Retry-After`` hint (capped at ``retry_after_cap_s``)
    with deterministic seeded jitter, before the :class:`ServiceError`
    is surfaced.  ``retry_429=0`` restores fail-fast admission.
    """

    def __init__(
        self,
        url: Optional[str] = None,
        timeout: float = 60.0,
        retry_429: int = 2,
        retry_backoff_s: float = 0.05,
        retry_after_cap_s: float = 5.0,
        retry_seed: int = 0,
    ):
        split = urlsplit(resolve_url(url))
        if split.scheme != "http" or not split.hostname:
            raise ParameterError(
                f"service URL must be http://host:port, got {resolve_url(url)!r}"
            )
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout = timeout
        if retry_429 < 0:
            raise ParameterError("retry_429 must be >= 0")
        self.retry_429 = int(retry_429)
        self.retry_backoff_s = float(retry_backoff_s)
        self.retry_after_cap_s = float(retry_after_cap_s)
        self._rng = random.Random(retry_seed)

    # -- transport ------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = (
                json.dumps(body).encode("utf-8") if body is not None else None
            )
            hdrs = dict(headers or {})
            if payload:
                hdrs.setdefault("Content-Type", "application/json")
            conn.request(method, path, body=payload, headers=hdrs)
            resp = conn.getresponse()
            data = resp.read()
            return (
                resp.status,
                {k.lower(): v for k, v in resp.getheaders()},
                data,
            )
        except OSError as exc:
            raise TransportError(
                f"cannot reach {self.host}:{self.port}: {exc}",
                code=ErrorCode.CONNECT_FAILED,
            )
        finally:
            conn.close()

    def _json(
        self,
        method: str,
        path: str,
        body: Optional[Dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Dict:
        status, headers, data = self._request(method, path, body, headers)
        try:
            doc = json.loads(data.decode("utf-8")) if data else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            doc = {"error": data[:200].decode("latin-1")}
        if status >= 400:
            retry_after = None
            if "retry-after" in headers:
                try:
                    retry_after = float(headers["retry-after"])
                except ValueError:
                    pass
            raise ServiceError(
                status, str(doc.get("error", "unknown error")), retry_after
            )
        return doc

    # -- ops ------------------------------------------------------------

    def healthz(self) -> Dict:
        return self._json("GET", "/healthz")

    def readyz(self) -> bool:
        status, _, _ = self._request("GET", "/readyz")
        return status == 200

    def metrics_text(self) -> str:
        status, _, data = self._request("GET", "/metrics")
        if status != 200:
            raise ServiceError(status, "metrics unavailable")
        return data.decode("utf-8")

    def metrics_json(self) -> Dict:
        return self._json("GET", "/metrics?format=json")

    # -- jobs -----------------------------------------------------------

    def submit(
        self,
        kind: str,
        payload: Dict,
        headers: Optional[Dict[str, str]] = None,
    ) -> str:
        """Submit one job; returns the id the server's job routes
        resolve: a coordinator's own ``coordinator_id`` (its ``id`` is
        the member's), else ``id``.

        A 429 (admission control) is retried honoring the server's
        ``Retry-After`` hint -- capped, seeded-jitter backoff, at most
        ``retry_429`` extra attempts -- then raised as
        :class:`ServiceError` (with ``retry_after`` set)."""
        doc = self.submit_doc(kind, payload, headers=headers)
        return str(doc.get("coordinator_id", doc["id"]))

    def submit_doc(
        self,
        kind: str,
        payload: Dict,
        headers: Optional[Dict[str, str]] = None,
    ) -> Dict:
        """Like :meth:`submit` but returns the full submit response
        document (``cached``/``deduped`` flags included)."""
        for attempt in range(self.retry_429 + 1):
            try:
                return self._json("POST", f"/v1/{kind}", payload, headers)
            except ServiceError as exc:
                if exc.status != 429 or attempt >= self.retry_429:
                    raise
                time.sleep(self._backoff_429(attempt, exc.retry_after))
        raise AssertionError("unreachable")  # pragma: no cover

    def _backoff_429(self, attempt: int, retry_after: Optional[float]) -> float:
        """How long to sleep before re-submitting after a 429: the
        server's hint when it sent one (else exponential from
        ``retry_backoff_s``), capped, with deterministic +-25% jitter
        so synchronized clients don't re-stampede the queue."""
        base = (
            float(retry_after)
            if retry_after is not None
            else self.retry_backoff_s * (2.0 ** attempt)
        )
        base = min(max(base, 0.0), self.retry_after_cap_s)
        return base * (0.75 + 0.5 * self._rng.random())

    def submit_compress(
        self,
        dataset: str,
        field: str,
        *,
        mode: str = "psnr",
        target: float,
        codec: str = "sz",
        **options,
    ) -> str:
        payload = {
            "dataset": dataset,
            "field": field,
            "mode": mode,
            "target": target,
            "codec": codec,
        }
        payload.update(options)
        return self.submit("compress", payload)

    def status(self, job_id: str) -> Dict:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def fetch_blob(self, job_id: str) -> bytes:
        status, _, data = self._request("GET", f"/v1/jobs/{job_id}/blob")
        if status != 200:
            message = data[:200].decode("latin-1")
            raise ServiceError(status, message)
        return data

    def cancel(self, job_id: str) -> Dict:
        return self._json("DELETE", f"/v1/jobs/{job_id}")

    def wait(
        self,
        job_id: str,
        timeout: float = 120.0,
        poll_s: float = 0.05,
    ) -> Dict:
        """Poll until the job reaches a terminal state; returns its
        final status document."""
        deadline = time.monotonic() + timeout
        while True:
            doc = self.status(job_id)
            if doc.get("state") in ("done", "failed", "timeout", "cancelled"):
                return doc
            if time.monotonic() >= deadline:
                raise ServiceError(
                    408, f"job {job_id} still {doc.get('state')} after "
                    f"{timeout:g}s"
                )
            time.sleep(poll_s)
