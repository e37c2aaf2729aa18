"""Persistent HTTP/1.1 connections for the service and the fabric router.

Both servers in the project speak the same small subset of HTTP/1.1:
``Content-Length`` bodies only, one JSON (or Prometheus text) response
per request, and connections that stay open between requests.  This
module is that subset, once:

* :class:`Http1Server` — the accept/connection loop that
  :class:`~repro.service.server.ReproService` and
  :class:`~repro.fabric.router.FabricRouter` inherit.  A subclass
  answers one :class:`Request` with one :class:`Response` in
  :meth:`Http1Server.respond`; the loop reads, writes and decides
  whether the connection stays open.
* :func:`encode_request` / :func:`read_response` — the client half,
  used by the router on its pooled shard connections;
  :func:`recv_response` is its blocking twin, used by
  :class:`~repro.service.client.ServiceClient`.
* :func:`parse_head` — the one head parser both halves share.

Heads are read in one piece: the server and the router each wait for
the whole head with one ``readuntil(b"\r\n\r\n")`` and split it
once.  Heads are CRLF-only (RFC 9112 §2.2 lets a recipient decline
bare-LF line endings): a head ending in a bare LF never completes, so
the server closes it unanswered at the read deadline.

Server lifecycle: :class:`Http1Server` also owns the drain/stop state
every serving process shares (the single server, each fabric shard and
the router).  :meth:`Http1Server.request_drain` flags the drain,
:meth:`Http1Server.wait_stopped` waits for it and runs the subclass's
``stop()``, and :meth:`Http1Server.drain_on_signals` routes SIGTERM and
SIGINT to ``request_drain``.

Connection lifecycle (server side):

* One deadline, ``read_timeout_s`` (30 s), bounds the wait for the next
  request's head *and* the read of its body, so it is both the idle
  timeout and the slow-client (slowloris) guard.  EOF, and a head
  longer than the stream's limit (64 KiB), close the connection
  quietly.
* A connection is served until the client sends ``Connection: close``
  or speaks HTTP/1.0, a refused request leaves unread body bytes
  (413, malformed ``Content-Length``, any ``Transfer-Encoding``), the
  deadline passes, or the server drains.  Every response says
  ``Connection: keep-alive`` or ``Connection: close`` to match.
* ``_active_requests`` counts requests in flight — from their complete
  head to the end of their response — not open connections.
  :meth:`Http1Server._stop_listening` closes the listener *and* every
  idle connection at once; requests in flight finish and are answered
  ``Connection: close``.  (Since Python 3.12 ``Server.wait_closed()``
  waits for every open connection, so an idle keep-alive connection
  left open would hold a drain until its idle deadline.)
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "READ_TIMEOUT_S",
    "HttpError",
    "Http1Server",
    "NoResponse",
    "Request",
    "Response",
    "encode_request",
    "encode_response",
    "json_response",
    "parse_head",
    "read_request",
    "read_response",
    "recv_response",
    "reusable",
]

#: One deadline covering the wait for a request and its whole read
#: (request line, headers and body): the idle timeout of a kept-alive
#: connection and the bound on a stalled client.
READ_TIMEOUT_S = 30.0

#: The blank line that ends every head, request or response.
HEAD_END = b"\r\n\r\n"

#: Longest head line :func:`recv_response` reads (the asyncio readers'
#: stream limit bounds a whole head to the same 64 KiB).
_MAX_LINE = 65536

STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A request the reader refuses; answer ``status`` and close."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class NoResponse(ConnectionError):
    """The peer closed or reset the connection before the first byte of
    a status line: it never answered this request."""


@dataclass(frozen=True)
class Request:
    """One parsed request; header names are lower-cased."""

    method: str
    target: str
    headers: dict[str, str]
    body: bytes
    keep_alive: bool


class Response(NamedTuple):
    """One response; ``headers`` are appended after the fixed ones."""

    status: int
    body: bytes
    headers: dict[str, str] | None = None
    content_type: str = "application/json"


def json_response(
    status: int, payload: dict, headers: dict[str, str] | None = None
) -> Response:
    return Response(status, json.dumps(payload).encode(), headers)


def parse_head(head: bytes) -> tuple[list[str], dict[str, str]]:
    """Split one head, start line through its blank line, into the
    start line's whitespace-separated parts and the lower-cased
    headers; a repeated name's values are joined with ``", "``."""
    lines = head.decode("latin-1").split("\r\n")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue  # the blank line that ends the head
        name, _, value = line.partition(":")
        name, value = name.strip().lower(), value.strip()
        headers[name] = (
            f"{headers[name]}, {value}" if name in headers else value
        )
    return lines[0].split(), headers


async def read_request(
    reader: asyncio.StreamReader, head: bytes, max_body_bytes: int
) -> Request | None:
    """The request ``head`` starts, with its body read from ``reader``.

    ``None`` for an unparseable request line.  Raises
    :class:`HttpError` for a body the server will not read: a
    ``Content-Length`` that is not one decimal number (400), one above
    ``max_body_bytes`` (413), or any ``Transfer-Encoding`` (501).  The
    connection must close after any of them: the unread body bytes
    would otherwise be parsed as the next request.
    """
    parts, headers = parse_head(head)
    if len(parts) < 2:
        return None
    method, target = parts[0].upper(), parts[1]
    version = parts[2] if len(parts) > 2 else "HTTP/1.0"
    if "transfer-encoding" in headers:
        raise HttpError(501, "transfer-encoding not supported")
    length = headers.get("content-length", "0")
    if not (length.isascii() and length.isdigit()):
        raise HttpError(400, "bad content-length")
    size = int(length)
    if size > max_body_bytes:
        raise HttpError(413, "payload too large")
    body = await reader.readexactly(size) if size else b""
    tokens = headers.get("connection", "").lower().split(",")
    keep_alive = version == "HTTP/1.1" and "close" not in (
        token.strip() for token in tokens
    )
    return Request(method, target, headers, body, keep_alive)


def _encode(start_line: str, headers: dict[str, str], body: bytes) -> bytes:
    lines = [start_line, *(f"{name}: {v}" for name, v in headers.items())]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def encode_response(
    server_name: str, response: Response, keep_alive: bool
) -> bytes:
    status, body, extra, content_type = response
    headers = {
        "Server": server_name,
        "Content-Type": content_type,
        "Content-Length": str(len(body)),
        "Connection": "keep-alive" if keep_alive else "close",
        **(extra or {}),
    }
    status_line = f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}"
    return _encode(status_line, headers, body)


class Http1Server:
    """Persistent-connection HTTP/1.1 server loop and its lifecycle.

    Subclasses implement :meth:`respond`, ``start()`` (bind with
    :meth:`_listen`) and ``stop()`` (shut down with
    :meth:`_stop_listening`, optionally :meth:`_drain_requests`, then
    :meth:`_close_connections`).
    """

    #: ``Server:`` header of every response.
    server_name = "repro"

    def __init__(self, max_body_bytes: int) -> None:
        self.max_body_bytes = max_body_bytes
        self.read_timeout_s = READ_TIMEOUT_S
        self.port: int | None = None
        self.draining = False
        self._closing = False
        self._active_requests = 0
        self._server: asyncio.base_events.Server | None = None
        #: Open connections and the tasks serving them.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._idle: set[asyncio.StreamWriter] = set()
        self._stop_requested = asyncio.Event()
        self._started_at: float | None = None

    async def respond(self, request: Request) -> Response:
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------
    async def stop(self) -> None:
        """Drain and tear down; ends by setting ``_stop_requested``."""
        raise NotImplementedError

    def request_drain(self) -> None:
        """Ask the server to drain and stop (signal-handler safe)."""
        self.draining = True
        self._stop_requested.set()

    def drain_on_signals(self) -> None:
        """Answer SIGTERM and SIGINT with :meth:`request_drain` (a
        no-op on loops without signal support)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, RuntimeError):
                pass

    async def wait_stopped(self) -> None:
        """Block until a drain is requested, then shut down cleanly."""
        await self._stop_requested.wait()
        await self.stop()

    def uptime_s(self) -> float:
        return (
            time.monotonic() - self._started_at if self._started_at else 0.0
        )

    async def _listen(self, host: str, port: int) -> int:
        self._server = await asyncio.start_server(
            self._serve_connection, host, port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        return self.port

    def _stop_listening(self) -> None:
        """Refuse new connections and close every idle one; requests in
        flight finish and are answered ``Connection: close``."""
        self.draining = True
        if self._server is not None:
            self._server.close()
        for writer in list(self._idle):
            writer.close()

    async def _drain_requests(self, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        while self._active_requests > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)

    async def _close_connections(self) -> None:
        """Close every connection still open, wait for the tasks serving
        them, then for the listener.  An idle connection's task ends at
        EOF; one still busy is past the drain and is cancelled."""
        self._closing = True
        tasks = list(self._connections.items())
        for writer, task in tasks:
            if writer not in self._idle:
                task.cancel()
            writer.close()
        await asyncio.gather(
            *(task for _, task in tasks), return_exceptions=True
        )
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    # -- the connection loop --------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections[writer] = asyncio.current_task()
        try:
            # A connection accepted just before the listener closed may
            # start only now; it must not hold the listener's close open.
            keep_alive = not self._closing
            while keep_alive:
                keep_alive = await self._serve_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.pop(writer, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Wait for, read and answer one request; whether the
        connection stays open."""
        # The deadline closes the transport, which ends any pending
        # read with EOF: it bounds the idle wait and the whole read.
        expiry = asyncio.get_running_loop().call_later(
            self.read_timeout_s, writer.close
        )
        self._idle.add(writer)
        try:
            head = await reader.readuntil(HEAD_END)
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            head = b""  # EOF, or a head over the stream's limit
        finally:
            self._idle.discard(writer)
        if not head:
            expiry.cancel()
            return False
        self._active_requests += 1
        try:
            try:
                request = await read_request(
                    reader, head, self.max_body_bytes
                )
            except HttpError as err:
                response = json_response(err.status, {"error": err.message})
                await self._write(writer, response, keep_alive=False)
                return False
            finally:
                expiry.cancel()
            if request is None:
                return False
            response = await self.respond(request)
            keep_alive = request.keep_alive and not self.draining
            await self._write(writer, response, keep_alive)
            return keep_alive
        finally:
            self._active_requests -= 1

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        keep_alive: bool,
    ) -> None:
        writer.write(encode_response(self.server_name, response, keep_alive))
        await writer.drain()


# -- client side (the router's shard hop) -------------------------------
def encode_request(
    method: str,
    target: str,
    host: str,
    body: bytes,
    headers: dict[str, str] | None = None,
) -> bytes:
    fixed = {
        "Host": host,
        "Content-Type": "application/json",
        "Content-Length": str(len(body)),
        "Connection": "keep-alive",
    }
    return _encode(
        f"{method} {target} HTTP/1.1", {**fixed, **(headers or {})}, body
    )


class _BadResponse(ConnectionError):
    """The peer's answer is not an HTTP/1.1 response this codec reads."""


def _response_head(head: bytes) -> tuple[int, int | None, dict[str, str]]:
    """``(status, content length or None, headers)`` of one response
    head; :class:`ConnectionError` when it is malformed."""
    parts, headers = parse_head(head)
    if len(parts) < 2 or not parts[0].startswith("HTTP/") or not (
        parts[1].isascii() and parts[1].isdigit()
    ):
        raise _BadResponse(f"malformed status line {head[:80]!r}")
    length = headers.get("content-length")
    if length is None:
        return int(parts[1]), None, headers
    if not (length.isascii() and length.isdigit()):
        raise _BadResponse(f"malformed content-length {length!r}")
    return int(parts[1]), int(length), headers


async def read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, bytes, dict[str, str]]:
    """One response: ``(status, body, lower-cased headers)``.

    Raises :class:`NoResponse` when the stream ends or resets before
    any byte of a status line arrived, or resets before the head is
    complete, so a caller can tell "never answered" from a broken
    answer; a head cut short by EOF raises
    :class:`asyncio.IncompleteReadError`, a malformed one
    :class:`ConnectionError`.
    """
    try:
        head = await reader.readuntil(HEAD_END)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise
        raise NoResponse("connection closed before a status line") from exc
    except asyncio.LimitOverrunError as exc:
        raise _BadResponse("response head over the stream limit") from exc
    except ConnectionError as exc:
        raise NoResponse("connection reset before a whole head") from exc
    status, length, headers = _response_head(head)
    if length is None:
        return status, await reader.read(), headers
    return status, await reader.readexactly(length), headers


def recv_response(rfile) -> tuple[int, bytes, dict[str, str]]:
    """Blocking twin of :func:`read_response` over a buffered binary
    file (a socket's ``makefile("rb")``).

    Every failure is an :class:`OSError`: :class:`NoResponse` at EOF
    before a status line, :class:`ConnectionError` for a head or body
    cut short or malformed, and the socket's own timeout and reset
    errors.
    """
    lines: list[bytes] = []
    while not lines or lines[-1] != b"\r\n":
        line = rfile.readline(_MAX_LINE)
        if not line.endswith(b"\n"):
            if not (line or lines):
                raise NoResponse("connection closed before a status line")
            raise _BadResponse(
                "response head line over the limit"
                if len(line) >= _MAX_LINE
                else "connection closed mid-head"
            )
        lines.append(line)
    status, length, headers = _response_head(b"".join(lines))
    body = rfile.read() if length is None else rfile.read(length)
    if length is not None and len(body) < length:
        raise _BadResponse(
            f"connection closed after {len(body)} of {length} body bytes"
        )
    return status, body, headers


def reusable(headers: dict[str, str]) -> bool:
    """Whether the connection a response came on may carry another
    request: the peer said ``keep-alive`` and delimited the body."""
    return (
        headers.get("connection", "").lower() == "keep-alive"
        and "content-length" in headers
    )
