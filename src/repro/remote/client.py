"""Blocking HTTP clients for the remote cache tier and fleet peers.

:class:`ServiceClient` is the base both clients share, deliberately
boring: ``http.client`` over one-shot connections (the servers close
after every response anyway), a lock around the failure bookkeeping,
and a cooldown that marks a flaky service *down* so a dead one costs
one timeout — not one timeout per job.  :class:`RemoteCacheClient` is
what a :class:`~repro.engine.cache.ResultCache` mounts as its third
tier; :class:`~repro.remote.dispatch.PeerClient` ships job batches.

Every ``get`` verifies the body's sha256 against the
``X-Repro-Sha256`` header before returning it; a mismatch counts as a
verification failure and reads as a miss.  Every ``put`` sends the
digest so the server can refuse a corrupted upload.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Iterable
from urllib.parse import urlsplit

from repro.remote import protocol


class RemoteCacheError(Exception):
    """Transport-level failure talking to the cache server."""


class RemoteCacheVerificationError(RemoteCacheError):
    """A fetched object failed sha256 verification — never unpickled."""


class ServiceClient:
    """What both fleet clients share: a validated ``http://host:port``
    base URL, one-shot ``http.client`` requests, and a failure counter
    that marks the service *down* for a cooldown.

    Subclasses set the class constants: ``SERVICE`` (names the URL in
    errors), ``UNREACHABLE`` (the exception transport trouble raises),
    ``TIMEOUT`` (default per-request seconds),
    ``DOWN_AFTER_FAILURES`` and ``DOWN_COOLDOWN`` (seconds).
    """

    SERVICE: str
    UNREACHABLE: type[Exception]
    TIMEOUT: float
    DOWN_AFTER_FAILURES: int
    DOWN_COOLDOWN: float

    def __init__(self, base_url: str, timeout: float | None = None) -> None:
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(
                f"{self.SERVICE} URL must look like http://host:port, "
                f"got {base_url!r}"
            )
        self.base_url = base_url.rstrip("/")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = self.TIMEOUT if timeout is None else timeout
        self._lock = threading.Lock()
        self._failures = 0
        self._down_until = 0.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.base_url!r})"

    # -- availability -------------------------------------------------

    def available(self) -> bool:
        """False while the service is sitting out a cooldown."""
        with self._lock:
            return time.monotonic() >= self._down_until

    def note_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._down_until = 0.0

    def note_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._failures >= self.DOWN_AFTER_FAILURES:
                self._down_until = time.monotonic() + self.DOWN_COOLDOWN
                self._failures = 0

    # -- request core -------------------------------------------------

    def _request(
        self, method: str, path: str, body: bytes | None = None,
        headers: dict[str, str] | None = None,
        timeout: float | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One request on a fresh connection: ``(status, lower-cased
        headers, body)``.  Transport trouble is noted for the down
        heuristic and raised as :attr:`UNREACHABLE`."""
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout,
        )
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            data = b"" if method == "HEAD" else response.read()
            out_headers = {
                name.lower(): value
                for name, value in response.getheaders()
            }
            return response.status, out_headers, data
        except (OSError, http.client.HTTPException) as exc:
            self.note_failure()
            raise self.UNREACHABLE(
                f"{method} {self.base_url}{path}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        finally:
            conn.close()


class RemoteCacheClient(ServiceClient):
    """Thread-safe client for one cache server.

    All methods are non-raising in the hot path: transport failures
    surface as ``None``/``False``/empty results and feed the
    down-marking heuristic; only a malformed ``base_url`` raises, at
    construction time, where argparse validation wants it.
    """

    SERVICE = "remote cache"
    UNREACHABLE = RemoteCacheError
    TIMEOUT = 5.0
    DOWN_AFTER_FAILURES = 3
    DOWN_COOLDOWN = 30.0

    def _request(self, *args, **kwargs) -> tuple[int, dict[str, str], bytes]:
        """Any answer, even a 404, proves the server is reachable."""
        answer = super()._request(*args, **kwargs)
        self.note_success()
        return answer

    # -- cache operations ---------------------------------------------

    def get(self, job_id: str) -> bytes | None:
        """Fetch and digest-verify an object.

        ``None`` on a miss or transport failure; raises
        :class:`RemoteCacheVerificationError` when the body's sha256
        does not match the server's claim — the bytes never reach a
        ``pickle.loads``.
        """
        if not self.available():
            return None
        try:
            status, headers, data = self._request(
                "GET", f"/cache/{job_id}"
            )
        except RemoteCacheError:
            return None
        if status != 200:
            return None
        claimed = headers.get(protocol.DIGEST_HEADER)
        actual = protocol.payload_digest(data)
        if claimed is not None and claimed != actual:
            raise RemoteCacheVerificationError(
                f"digest mismatch fetching {job_id}: body hashes to "
                f"{actual}, server claims {claimed}"
            )
        return data

    def head(self, job_id: str) -> bool:
        if not self.available():
            return False
        try:
            status, _, _ = self._request("HEAD", f"/cache/{job_id}")
        except RemoteCacheError:
            return False
        return status == 200

    def put(self, job_id: str, data: bytes) -> bool:
        """Publish an object (digest attached); False on any failure."""
        if not self.available():
            return False
        try:
            status, _, _ = self._request(
                "PUT", f"/cache/{job_id}", body=data,
                headers={
                    protocol.DIGEST_HEADER:
                        protocol.payload_digest(data),
                    "Content-Type": "application/octet-stream",
                },
            )
        except RemoteCacheError:
            return False
        return status == 200

    def manifest(self, job_ids: Iterable[str]) -> set[str] | None:
        """Batched existence check; ``None`` when the server can't
        answer (callers fall back to per-job GET attempts)."""
        if not self.available():
            return None
        ids = list(job_ids)
        if not ids:
            return set()
        body = json.dumps({"job_ids": ids}).encode("utf-8")
        try:
            status, _, data = self._request(
                "POST", "/cache/manifest", body=body,
                headers={"Content-Type": "application/json"},
            )
        except RemoteCacheError:
            return None
        if status != 200:
            return None
        try:
            present = json.loads(data)["present"]
        except (json.JSONDecodeError, KeyError, TypeError):
            return None
        return set(present)

    def healthy(self) -> bool:
        try:
            status, _, _ = self._request("GET", "/healthz")
        except RemoteCacheError:
            return False
        return status == 200
