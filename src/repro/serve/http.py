"""Shared stdlib-asyncio HTTP/1.1 plumbing for the serving surfaces.

Both frontends — the experiment server (:mod:`repro.serve.server`) and
the remote cache object store (:mod:`repro.remote.cache_server`) —
speak the same deliberately minimal dialect: one request per
connection, ``Connection: close``, no TLS, no chunked bodies.  This
module holds the pieces they share: the per-connection handler
(:func:`handle_client`), request parsing, response framing, and the
:class:`HttpError` routed straight to a JSON error response.
Front either server with a real proxy for anything public.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Awaitable, Callable

STATUS_TEXT = {
    200: "OK", 201: "Created", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    409: "Conflict", 410: "Gone", 413: "Payload Too Large",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """Routed straight to a JSON error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


async def handle_client(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    route: Callable[..., Awaitable[None]], max_body: int,
) -> None:
    """One connection, one request (``Connection: close``).

    Parses the request, hands it to ``route(method, target, headers,
    body, writer)``, answers an :class:`HttpError` (or any other
    exception, as a 500) with a JSON error, and always closes the
    connection.  A client that goes away mid-response is ignored:
    whatever it started keeps going.
    """
    try:
        try:
            request = await read_request(reader, max_body=max_body)
        except HttpError as exc:
            await respond_json(writer, exc.status, {"error": exc.message})
            return
        if request is None:
            return
        try:
            await route(*request, writer)
        except HttpError as exc:
            await respond_json(writer, exc.status, {"error": exc.message})
        except (ConnectionResetError, BrokenPipeError):
            pass
        except Exception as exc:
            await respond_json(
                writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
            )
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def read_request(
    reader: asyncio.StreamReader, max_body: int | None = None
):
    """Parse one request; ``None`` for malformed/truncated ones.

    Returns ``(method, target, headers, body)`` with lower-cased
    header names.  ``max_body`` rejects oversized uploads with
    :class:`HttpError` 413 *before* buffering them.
    """
    try:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            return None
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length") or 0)
        if max_body is not None and length > max_body:
            raise HttpError(
                413, f"body of {length} bytes exceeds the "
                f"{max_body}-byte limit"
            )
        if length:
            body = await read_body(reader, length)
    except (ConnectionResetError, asyncio.IncompleteReadError,
            asyncio.LimitOverrunError, ValueError):
        return None  # malformed or truncated request: just drop it
    return method.upper(), target, headers, body


async def read_body(reader: asyncio.StreamReader, length: int) -> bytes:
    """Read an exact-length body in chunks, immune to the stream's
    ``limit`` (``readexactly`` honors it; large cache objects don't)."""
    chunks: list[bytes] = []
    remaining = length
    while remaining:
        chunk = await reader.read(min(remaining, 1 << 20))
        if not chunk:
            raise asyncio.IncompleteReadError(b"".join(chunks), length)
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def header_block(
    status: int, content_type: str, extra: dict[str, str] | None = None,
) -> bytes:
    """Response headers for a streamed (unframed-length) body."""
    lines = [
        f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'OK')}",
        f"Content-Type: {content_type}",
        "Cache-Control: no-cache",
        "Connection: close",
    ]
    for name, value in (extra or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def respond_bytes(
    writer: asyncio.StreamWriter, status: int, body: bytes,
    content_type: str = "application/octet-stream",
    extra_headers: dict[str, str] | None = None,
) -> None:
    """One complete fixed-length response; swallows a vanished client."""
    head = [
        f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'OK')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    try:
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        if body:
            writer.write(body)
        await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass


async def respond_json(
    writer: asyncio.StreamWriter, status: int, payload: Any,
) -> None:
    body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    await respond_bytes(
        writer, status, body, content_type="application/json"
    )
