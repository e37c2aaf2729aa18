"""Persistent HTTP/1.1 connections for the service and the fabric router.

Both servers in the project speak the same small subset of HTTP/1.1:
``Content-Length`` bodies only, one JSON (or Prometheus text) response
per request, and connections that stay open between requests.  This
module is that subset, once:

* :class:`Http1Server` — the listener that
  :class:`~repro.service.server.ReproService` and
  :class:`~repro.fabric.router.FabricRouter` inherit.  Each accepted
  connection is one :class:`asyncio.Protocol` that splits heads and
  bodies out of its own buffer.  A subclass answers one
  :class:`Request` in :meth:`Http1Server.respond`, in one of three
  ways: a :class:`Response`, written before the ``data_received`` call
  that completed the request returns; a :class:`Pending`, written
  inside whichever callback resolves it (the router's shard answer);
  or a coroutine, run as a task from its first step.
* :class:`ClientConnection` and :func:`encode_request` — the client
  half, one request at a time on a persistent connection, used by the
  router on its pooled shard connections; :func:`recv_response` is
  the blocking reader of :class:`~repro.service.client.ServiceClient`.
* :func:`parse_head` — the one head parser both halves share.

A head is complete at its blank line (``\\r\\n\\r\\n``), found in the
connection's buffer and split once.  Heads are CRLF-only (RFC 9112
§2.2 lets a recipient decline bare-LF line endings): a head ending in
a bare LF never completes, so the server closes it unanswered at the
read deadline.

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
  longer than :data:`MAX_HEAD` (64 KiB), close the connection quietly.
* A connection is served until the client sends ``Connection: close``
  or speaks HTTP/1.0, a refused request leaves unread body bytes
  (413, malformed ``Content-Length``, any ``Transfer-Encoding``), the
  deadline passes, or the server drains.  Every response says
  ``Connection: keep-alive`` or ``Connection: close`` to match.
  Pipelined requests are answered in order, one at a time.
* Write backpressure: while the transport's write buffer is above its
  high-water mark (the client stopped reading), the connection stops
  reading, and the request whose response filled it stays in flight
  until the buffer drains.
* ``_active_requests`` counts requests in flight — from their complete
  head to the end of their response — not open connections.
  :meth:`Http1Server._stop_listening` closes the listener *and* every
  idle connection at once; requests in flight finish and are answered
  ``Connection: close``.  (Since Python 3.12 ``Server.wait_closed()``
  waits for every open connection, so an idle keep-alive connection
  left open would hold a drain until its idle deadline.)  A client
  that leaves mid-request is written nothing; its request still ends.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from typing import Awaitable, Callable, NamedTuple, Union

__all__ = [
    "MAX_HEAD",
    "READ_TIMEOUT_S",
    "Answer",
    "ClientConnection",
    "HttpError",
    "Http1Server",
    "NoResponse",
    "Pending",
    "Reply",
    "Request",
    "Response",
    "encode_request",
    "encode_response",
    "json_response",
    "parse_head",
    "recv_response",
    "reusable",
]

#: One deadline covering the wait for a request and its whole read
#: (request line, headers and body): the idle timeout of a kept-alive
#: connection and the bound on a stalled client.
READ_TIMEOUT_S = 30.0

#: The blank line that ends every head, request or response.
HEAD_END = b"\r\n\r\n"

#: Longest head a connection reads, and longest head line
#: :func:`recv_response` reads.
MAX_HEAD = 65536

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


class Request(NamedTuple):
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


class Pending:
    """A response another connection's callback delivers, with no task.

    :meth:`Http1Server.respond` returns one when the answer arrives on
    a callback it has already arranged (the router's shard answer).
    The connection writes the response inside the callback that calls
    :meth:`resolve`, or closes unanswered on :meth:`fail`.  Neither may
    run before ``respond`` has returned.
    """

    __slots__ = ("_listener",)

    def __init__(self) -> None:
        self._listener: Callable | None = None

    def resolve(self, response: Response) -> None:
        self._settle(response, None)

    def fail(self, exc: BaseException) -> None:
        self._settle(None, exc)

    def _settle(self, response, exc) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            listener(response, exc)


#: What :meth:`Http1Server.respond` may return.
Answer = Union[Response, Pending, Awaitable[Response]]


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


def _request_head(
    head: bytes, max_body_bytes: int
) -> tuple[tuple[str, str, dict[str, str], bool], int] | None:
    """``((method, target, headers, keep_alive), body length)`` of one
    request head; ``None`` for an unparseable request line.

    Raises :class:`HttpError` for a body the server will not read: a
    ``Content-Length`` that is not one decimal number (400), one above
    ``max_body_bytes`` (413), or any ``Transfer-Encoding`` (501).  The
    connection must close after any of them: the unread body bytes
    would otherwise be parsed as the next request.
    """
    parts, headers = parse_head(head)
    if len(parts) < 2:
        return None
    version = parts[2] if len(parts) > 2 else "HTTP/1.0"
    if "transfer-encoding" in headers:
        raise HttpError(501, "transfer-encoding not supported")
    length = headers.get("content-length", "0")
    if not (length.isascii() and length.isdigit()):
        raise HttpError(400, "bad content-length")
    size = int(length)
    if size > max_body_bytes:
        raise HttpError(413, "payload too large")
    tokens = headers.get("connection", "").lower().split(",")
    keep_alive = version == "HTTP/1.1" and "close" not in (
        token.strip() for token in tokens
    )
    return (parts[0].upper(), parts[1], headers, keep_alive), size


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


class _Deadline:
    """A connection's deadline, moved by a field write.

    Its one timer is re-armed when it fires early, instead of being
    cancelled and created again for every request (1.8-2.6 us against
    0.25 us per request on the reference box); only a deadline moved
    *earlier* replaces it.
    """

    __slots__ = ("_loop", "_expire", "_handle", "_at")

    def __init__(self, expire: Callable[[], None]) -> None:
        self._loop = asyncio.get_running_loop()
        self._expire = expire
        self._handle: asyncio.TimerHandle | None = None
        self._at: float | None = None

    def set(self, seconds: float) -> None:
        at = self._at = self._loop.time() + seconds
        handle = self._handle
        if handle is None or handle.when() > at:
            if handle is not None:
                handle.cancel()
            self._handle = self._loop.call_at(at, self._fire)

    def clear(self) -> None:
        self._at = None

    def cancel(self) -> None:
        """Clear it and drop the timer (the connection is gone)."""
        self._at = None
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        when = self._handle.when()
        self._handle = None
        if self._at is None:
            return
        if self._at > when:
            self._handle = self._loop.call_at(self._at, self._fire)
            return
        self._at = None
        self._expire()


class _ServerConnection(asyncio.Protocol):
    """One accepted connection: requests are split out of ``buffer``
    and answered in order, one at a time."""

    __slots__ = ("server", "transport", "buffer", "scanned", "head",
                 "size", "open", "answering", "flushing", "writable",
                 "eof", "task", "deadline")

    def __init__(self, server: Http1Server) -> None:
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        self.scanned = 0  # buffer offset the head search resumes at
        self.head: tuple | None = None  # a head whose body is awaited
        self.size = 0  # body bytes ``request`` waits for
        self.open = False  # a request between its head and its response
        self.answering = False  # ``respond`` has the request
        self.flushing = False  # its response waits for the peer to read
        self.writable = True  # the write buffer is below its high mark
        self.eof = False
        self.task: asyncio.Task | None = None
        #: The read deadline: it closes the connection, unanswered.
        self.deadline = _Deadline(self._expire)

    # -- transport callbacks ------------------------------------------
    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        if self.server._closing:
            # Accepted just before the final close began: it must not
            # hold the listener's close open.
            transport.close()
            return
        self.server._connections.add(self)
        self.deadline.set(self.server.read_timeout_s)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        if self.answering:
            # Hold at most one head's worth of pipelined bytes.
            if len(self.buffer) > MAX_HEAD:
                self.transport.pause_reading()
            return
        self._process()

    def eof_received(self) -> bool:
        # Stay open to answer what was already sent; ``_process``
        # closes once nothing complete is left to answer.
        self.eof = True
        if not (self.answering or self.flushing):
            self._process()
        return True

    def pause_writing(self) -> None:
        self.writable = False
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.writable = True
        self.transport.resume_reading()
        if self.flushing:
            self._end_request()
            self._process()

    def connection_lost(self, exc: Exception | None) -> None:
        self.server._connections.discard(self)
        self.deadline.cancel()
        if self.open and not self.answering:
            self._end_request()  # a body cut short, or an unread answer

    # -- requests -----------------------------------------------------
    def _process(self) -> None:
        """Answer every complete request in the buffer, in order, until
        one is answered later or the buffer holds no whole request."""
        buffer = self.buffer
        transport = self.transport
        while not (self.answering or self.flushing
                   or transport.is_closing()):
            if self.head is None:
                end = buffer.find(HEAD_END, self.scanned)
                if end < 0 or end > MAX_HEAD:
                    if end > MAX_HEAD or len(buffer) > MAX_HEAD:
                        transport.close()  # a head over the limit
                    elif self.eof:
                        transport.close()
                    else:
                        self.scanned = max(0, len(buffer) - 3)
                    return
                head = buffer[:end + 4]
                del buffer[:end + 4]
                self.scanned = 0
                if not self._begin(head):
                    return
            size = self.size
            if len(buffer) < size:
                if self.eof:
                    transport.close()  # the body was cut short
                return
            method, target, headers, keep_alive = self.head
            self.head = None
            body = b""
            if size:
                body = bytes(buffer[:size])
                del buffer[:size]
            self._answer(Request(method, target, headers, body, keep_alive))

    def _begin(self, head: bytes) -> bool:
        """Parse a complete head; whether its body should be read."""
        server = self.server
        try:
            parsed = _request_head(head, server.max_body_bytes)
        except HttpError as err:
            self.deadline.clear()
            self.open = True
            server._active_requests += 1
            self._reply(
                json_response(err.status, {"error": err.message}),
                keep_alive=False,
            )
            return False
        if parsed is None:
            self.transport.close()
            return False
        self.head, self.size = parsed
        self.open = True
        server._active_requests += 1
        return True

    def _answer(self, request: Request) -> None:
        self.deadline.clear()
        self.answering = True
        keep_alive = request.keep_alive
        try:
            answer = self.server.respond(request)
        except Exception as exc:
            self._failed(exc)
            return
        if isinstance(answer, Response):
            self._reply(answer, keep_alive)
        elif isinstance(answer, Pending):
            answer._listener = (
                lambda response, exc: self._settled(response, exc, keep_alive)
            )
        else:
            self.task = asyncio.get_running_loop().create_task(
                self._await(answer, keep_alive)
            )

    async def _await(
        self, answer: Awaitable[Response], keep_alive: bool
    ) -> None:
        try:
            response = await answer
        except BaseException as exc:
            self._failed(exc)
            if not isinstance(exc, Exception):
                raise  # cancelled by the server's final close
            return
        self._reply(response, keep_alive)
        self._continue()

    def _settled(
        self, response: Response | None, exc: BaseException | None,
        keep_alive: bool,
    ) -> None:
        if not self.answering:
            return  # abandoned by the server's final close
        if exc is not None:
            self._failed(exc)
            return
        self._reply(response, keep_alive)
        self._continue()

    def _continue(self) -> None:
        """Read on after an answer that came later: pipelined bytes
        held while it was pending are answered next."""
        if self.writable:
            self.transport.resume_reading()
        self._process()

    def _reply(self, response: Response, keep_alive: bool) -> None:
        self.answering = False
        self.task = None
        transport = self.transport
        keep_alive = keep_alive and not self.server.draining
        if not transport.is_closing():  # the client may have left
            transport.write(
                encode_response(self.server.server_name, response, keep_alive)
            )
            if not keep_alive:
                transport.close()
        if self.writable or transport.is_closing():
            self._end_request()
        else:
            self.flushing = True  # ends when the peer reads it

    def _failed(self, exc: BaseException) -> None:
        """Close unanswered; an error (not a cancellation) is logged, as
        the loop logs a failed task's."""
        self.answering = False
        self.task = None
        if isinstance(exc, Exception):
            asyncio.get_running_loop().call_exception_handler({
                "message": "request handler failed",
                "exception": exc,
                "protocol": self,
            })
        self.transport.close()
        self._end_request()

    def _end_request(self) -> None:
        self.open = self.flushing = False
        self.server._active_requests -= 1
        if not self.transport.is_closing():
            self.deadline.set(self.server.read_timeout_s)

    def _expire(self) -> None:
        self.transport.close()

    def abandon(self) -> None:
        """The server's final close: stop answering and drop the
        connection."""
        if self.task is not None:
            self.task.cancel()  # ends the request as it unwinds
        elif self.answering:
            self.answering = False
            self._end_request()
        self.transport.abort()


class Http1Server:
    """Persistent-connection HTTP/1.1 server and its lifecycle.

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
        #: Open connections.
        self._connections: set[_ServerConnection] = set()
        self._stop_requested = asyncio.Event()
        self._started_at: float | None = None

    def respond(self, request: Request) -> Answer:
        """Answer one request (see the module docstring for the three
        kinds of answer)."""
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

    def _accept(self) -> _ServerConnection:
        """The protocol of one accepted connection."""
        return _ServerConnection(self)

    async def _listen(self, host: str, port: int) -> int:
        self._server = await asyncio.get_running_loop().create_server(
            self._accept, host, port
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
        for conn in list(self._connections):
            if not conn.open:
                conn.transport.close()

    async def _drain_requests(self, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        while self._active_requests > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)

    async def _close_connections(self) -> None:
        """Close every connection still open and wait until each is
        gone, then for the listener.  A request still in flight is past
        the drain: it is abandoned (its task cancelled) and its
        connection dropped, as is one whose peer stopped reading."""
        self._closing = True
        tasks = []
        for conn in list(self._connections):
            if conn.open:
                if conn.task is not None:
                    tasks.append(conn.task)
                conn.abandon()
            else:
                conn.transport.close()
        await asyncio.gather(*tasks, return_exceptions=True)
        await asyncio.sleep(0)  # closed transports report their loss
        for conn in list(self._connections):
            conn.transport.abort()  # unsent bytes to a peer not reading
        while self._connections:
            await asyncio.sleep(0)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None


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
        raise _BadResponse(f"malformed status line {bytes(head[:80])!r}")
    length = headers.get("content-length")
    if length is None:
        return int(parts[1]), None, headers
    if not (length.isascii() and length.isdigit()):
        raise _BadResponse(f"malformed content-length {length!r}")
    return int(parts[1]), int(length), headers


#: ``(status, body, lower-cased headers)`` of one response.
Reply = tuple[int, bytes, dict[str, str]]


class ClientConnection(asyncio.Protocol):
    """One persistent client connection carrying one exchange at a time.

    :meth:`send` writes a request; the response is split out of the
    connection's buffer and handed to ``on_done(reply, None)`` inside
    the ``data_received`` call that completed it, or, for a response
    without ``Content-Length``, at EOF.  Failures are
    ``on_done(None, exc)``: :class:`NoResponse` when the connection
    ends or resets before any byte of a status line, another
    :class:`ConnectionError` for a head or body cut short or
    malformed, :class:`asyncio.TimeoutError` once the exchange's
    deadline passes (the connection is then dropped: the peer has the
    request, so it must never be sent again).
    """

    __slots__ = ("transport", "buffer", "scanned", "on_done", "status",
                 "length", "headers", "deadline")

    def __init__(self) -> None:
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        self.scanned = 0
        self.on_done: Callable | None = None
        self.status: int | None = None  # set once the head is read
        self.length: int | None = None
        self.headers: dict[str, str] = {}
        self.deadline = _Deadline(self._expire)

    @property
    def closed(self) -> bool:
        return self.transport.is_closing()

    def send(
        self,
        request: bytes,
        timeout_s: float,
        on_done: Callable[[Reply | None, BaseException | None], None],
    ) -> None:
        """Write ``request``; ``on_done`` runs once, within
        ``timeout_s``."""
        self.on_done = on_done
        self.deadline.set(timeout_s)
        self.transport.write(request)

    def close(self) -> None:
        """Drop the connection; an exchange in flight is abandoned
        (its ``on_done`` never runs)."""
        self.on_done = None
        self.deadline.cancel()
        self.transport.abort()

    # -- transport callbacks ------------------------------------------
    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        if self.on_done is None:
            self.close()  # bytes nobody asked for: never reuse it
            return
        buffer = self.buffer
        buffer += data
        if self.status is None:
            end = buffer.find(HEAD_END, self.scanned)
            if end < 0 or end > MAX_HEAD:
                if end > MAX_HEAD or len(buffer) > MAX_HEAD:
                    self._fail(_BadResponse("response head over the limit"))
                else:
                    self.scanned = max(0, len(buffer) - 3)
                return
            try:
                self.status, self.length, self.headers = _response_head(
                    buffer[:end + 4]
                )
            except _BadResponse as exc:
                self._fail(exc)
                return
            del buffer[:end + 4]
            self.scanned = 0
        length = self.length
        if length is None or len(buffer) < length:
            return  # read to EOF, or more body to come
        if len(buffer) > length:
            # Bytes past the answer: deliver it, never reuse the rest.
            self.transport.abort()
        body = bytes(buffer[:length])
        del buffer[:length]
        self._done((self.status, body, self.headers), None)

    def connection_lost(self, exc: Exception | None) -> None:
        self.deadline.cancel()
        if self.on_done is None:
            return
        buffer = self.buffer
        if self.status is None:
            if exc is not None or not buffer:
                self._done(None, NoResponse(
                    "connection closed before a status line"
                    if exc is None else f"connection reset: {exc}"
                ))
            else:
                self._done(None, _BadResponse("connection closed mid-head"))
        elif self.length is None and exc is None:
            self._done((self.status, bytes(buffer), self.headers), None)
        else:
            self._done(None, exc or _BadResponse(
                f"connection closed after {len(buffer)} of "
                f"{self.length} body bytes"
            ))

    # -- outcomes -----------------------------------------------------
    def _fail(self, exc: BaseException) -> None:
        self.transport.abort()
        self._done(None, exc)

    def _expire(self) -> None:
        self._fail(asyncio.TimeoutError("shard timeout"))

    def _done(self, reply: Reply | None, exc: BaseException | None) -> None:
        on_done = self.on_done
        self.on_done = None
        self.status = self.length = None
        self.deadline.clear()
        if on_done is not None:
            on_done(reply, exc)


def recv_response(rfile) -> tuple[int, bytes, dict[str, str]]:
    """One response from a buffered binary file (a socket's
    ``makefile("rb")``): ``(status, body, lower-cased headers)``.

    Every failure is an :class:`OSError`: :class:`NoResponse` at EOF
    before a status line, :class:`ConnectionError` for a head or body
    cut short or malformed, and the socket's own timeout and reset
    errors.
    """
    lines: list[bytes] = []
    while not lines or lines[-1] != b"\r\n":
        line = rfile.readline(MAX_HEAD)
        if not line.endswith(b"\n"):
            if not (line or lines):
                raise NoResponse("connection closed before a status line")
            raise _BadResponse(
                "response head line over the limit"
                if len(line) >= MAX_HEAD
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
