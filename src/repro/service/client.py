"""HTTP client for the service, with retry + backoff.

Connection errors and retryable statuses (429 load-shed, 503 drain)
back off exponentially and try again; anything else raises
:class:`ServiceError` carrying the status and decoded body.

The client speaks HTTP/1.1 through the servers' own codec
(:mod:`repro.service.http1`): each request, head and body, leaves in
one ``sendall``, and each response is read back through a buffered
reader with :func:`~repro.service.http1.recv_response`.  Every
transport or protocol failure raises an :class:`OSError` (a malformed
answer is a :class:`ConnectionError`), which is what the retry loop
catches.

Connections are persistent: each thread that uses a client keeps one
socket to the server and sends request after request on it, so the
client stays thread-safe (the soak test hammers one instance from many
threads) without a TCP handshake per request.  A kept socket is
dropped before reuse when it is readable (the server closed it while
it sat idle), never reused in a forked child, and closed when the
server answers ``Connection: close`` or delimits its body by EOF (an
HTTP/1.0 reply without ``Content-Length`` is read to EOF).  A request
whose *reused* socket fails before the status line is replayed once on
a fresh socket; that replay is transport bookkeeping, not a retry, and
costs no retry-budget token.  :meth:`ServiceClient.close` (or garbage
collection of the client) closes every kept socket.

Three overload-control behaviors ride on the retry loop (see
:mod:`repro.service.overload` for the server side):

* **Full jitter**: the exponential backoff sleeps a uniform random
  fraction of the scheduled delay, so a fleet of synchronized clients
  shed at the same instant cannot re-arrive as one retry storm.  A
  server-provided ``Retry-After`` is honored exactly (the server
  already knows when capacity returns).  ``jitter=False`` restores the
  deterministic schedule; ``jitter_seed`` makes the jitter
  reproducible for tests.
* **Retry budget**: a token bucket deposits ``retry_budget`` tokens
  per request and charges one per retry, so retries are bounded to
  roughly ``retry_budget`` of recent traffic (default 10%) — when the
  bucket is dry the client fails fast instead of amplifying an
  overload.
* **Deadline propagation**: with ``deadline_s`` set, every attempt
  carries the remaining budget in the ``X-Repro-Deadline-Ms`` header
  so the server (and the fabric router in between) can refuse or
  sweep work the caller will have abandoned; the client itself stops
  retrying once the budget is gone.
"""

from __future__ import annotations

import json
import os
import random
import select
import socket
import threading
import time
import weakref
from urllib.parse import quote

from repro.service.http1 import (
    NoResponse,
    encode_request,
    recv_response,
    reusable,
)
from repro.service.overload import DEADLINE_HEADER, format_deadline_ms

__all__ = ["ServiceError", "ServiceClient"]

#: Token-bucket capacity of the retry budget: a short lull never banks
#: more than ten "free" retries.
_RETRY_BUDGET_CAP = 10.0


#: Failures of a reused socket that mean the server closed it before
#: reading the request: the request is replayed on a fresh socket.
_STALE_SOCKET_ERRORS = (NoResponse, ConnectionResetError, BrokenPipeError)


def _dropped(sock) -> bool:
    """Whether the server closed an idle kept socket: it is readable,
    and an idle HTTP/1.1 connection has nothing else to read."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class _Connection:
    """One kept socket and the buffered reader over it; connects on
    its first exchange and again after :meth:`close`."""

    def __init__(self, host: str, port: int, timeout_s: float) -> None:
        self.address = (host, port)
        self.timeout_s = timeout_s
        self.sock: socket.socket | None = None
        self._rfile = None

    def exchange(self, request: bytes) -> tuple[int, bytes, dict[str, str]]:
        """Send one encoded request and read its response; the socket
        closes after a response that does not keep it alive."""
        if self.sock is None:
            self.sock = socket.create_connection(self.address, self.timeout_s)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._rfile = self.sock.makefile("rb")
        self.sock.sendall(request)
        response = recv_response(self._rfile)
        if not reusable(response[2]):
            self.close()
        return response

    def close(self) -> None:
        if self.sock is not None:
            self._rfile.close()
            self.sock.close()
            self.sock = self._rfile = None


def _close_all(conns: dict) -> None:
    """Close every kept connection (also the client's finalizer)."""
    for _, conn in list(conns.values()):
        conn.close()
    conns.clear()


class ServiceError(RuntimeError):
    """Non-success response (after retries were exhausted)."""

    def __init__(self, status: int, body: dict | str) -> None:
        super().__init__(f"HTTP {status}: {body}")
        self.status = status
        self.body = body


class ServiceClient:
    """Client bound to one server address.

    Parameters
    ----------
    host, port:
        Server address.
    timeout_s:
        Socket timeout per attempt.
    retries:
        Extra attempts after the first (so ``retries=3`` → ≤ 4 tries).
    backoff_s, backoff_factor:
        Sleep before retry ``k`` is ``backoff_s * backoff_factor**k``.
    retry_statuses:
        HTTP statuses treated as transient.
    jitter:
        Full jitter on the exponential schedule (uniform in
        ``[0, scheduled delay]``).  ``Retry-After`` sleeps are never
        jittered.  ``False`` restores the deterministic schedule.
    jitter_seed:
        Seed of the jitter RNG (``None`` → nondeterministic), so tests
        can assert exact sleep sequences with jitter on.
    retry_budget:
        Tokens deposited per request into the retry token bucket; each
        retry costs one token and a dry bucket fails fast.  The default
        0.1 bounds retries to ~10% of recent attempts.  ``None``
        disables budgeting entirely.
    deadline_s:
        Per-request total budget.  Each attempt stamps the *remaining*
        budget (milliseconds) into the ``X-Repro-Deadline-Ms`` header;
        when it runs out the client raises :class:`ServiceError` with
        status 504 instead of attempting/retrying further.  ``None``
        (default) sends no header — byte-identical requests.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8753,
        timeout_s: float = 120.0,
        retries: int = 3,
        backoff_s: float = 0.1,
        backoff_factor: float = 2.0,
        retry_statuses: tuple[int, ...] = (429, 503),
        jitter: bool = True,
        jitter_seed: int | None = None,
        retry_budget: float | None = 0.1,
        deadline_s: float | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_factor = backoff_factor
        self.retry_statuses = retry_statuses
        self.jitter = jitter
        self.deadline_s = deadline_s
        self.retry_budget = retry_budget
        self._rng = random.Random(jitter_seed)
        # One lock guards the RNG (not thread-safe under seeding
        # guarantees), the token bucket and the connection table; the
        # critical sections are a few arithmetic ops or one zero-timeout
        # poll, far below the cost of one HTTP attempt.
        self._lock = threading.Lock()
        # The bucket starts full so a fresh client's first transient
        # failures retry normally; sustained retry storms drain it.
        self._retry_tokens = _RETRY_BUDGET_CAP
        self.retries_denied = 0
        # One kept connection per thread, with the pid that opened it:
        # {thread: (pid, connection)}, guarded by ``_lock``.
        self._conns: dict[threading.Thread, tuple[int, _Connection]] = {}
        weakref.finalize(self, _close_all, self._conns)

    def close(self) -> None:
        """Close every kept connection (the client stays usable)."""
        with self._lock:
            _close_all(self._conns)

    # -- transport ------------------------------------------------------
    def _connection(self) -> _Connection:
        """This thread's kept connection.  Its socket is closed first
        if the server dropped it; a closed connection reconnects on its
        next request."""
        thread = threading.current_thread()
        pid = os.getpid()
        with self._lock:
            kept = self._conns.get(thread)
            if kept is not None and kept[0] == pid:
                conn = kept[1]
                if conn.sock is not None and _dropped(conn.sock):
                    conn.close()
                return conn
            # First use in this thread, or a socket a parent process
            # opened: never share it.  Forget exited threads' sockets.
            if kept is not None:
                kept[1].close()
            for other in [t for t in self._conns if not t.is_alive()]:
                self._conns.pop(other)[1].close()
            conn = _Connection(self.host, self.port, self.timeout_s)
            self._conns[thread] = (pid, conn)
            return conn

    def _attempt(
        self,
        method: str,
        path: str,
        payload: dict | None,
        extra_headers: dict[str, str] | None = None,
    ) -> tuple[int, dict | str, dict[str, str]]:
        body = json.dumps(payload).encode() if payload is not None else b""
        request = encode_request(
            method, path, f"{self.host}:{self.port}", body, extra_headers
        )
        conn = self._connection()
        reused = conn.sock is not None
        try:
            try:
                status, raw, headers = conn.exchange(request)
            except _STALE_SOCKET_ERRORS:
                if not reused:
                    raise
                # The server closed the kept socket before reading the
                # request: replay it once on a fresh socket.
                conn.close()
                status, raw, headers = conn.exchange(request)
        except BaseException:
            conn.close()
            raise
        try:
            decoded: dict | str = json.loads(raw)
        except ValueError:
            decoded = raw.decode()
        return status, decoded, headers

    def _retry_delay_s(
        self, attempt: int, headers: dict[str, str] | None
    ) -> float:
        """Backoff before retry ``attempt``, honoring ``Retry-After``.

        A parseable Retry-After (seconds form) from a 429/503 overrides
        the exponential schedule — the server knows when capacity (or a
        half-open breaker probe) comes back — and is never jittered.
        It is capped at ``timeout_s`` so a confused server can't park
        the client, and a malformed value falls back to the exponential
        schedule.  The exponential path gets full jitter (uniform in
        ``[0, scheduled]``) unless ``jitter=False``.
        """
        if headers:
            retry_after = headers.get("retry-after")
            if retry_after is not None:
                try:
                    return min(max(float(retry_after), 0.0), self.timeout_s)
                except ValueError:
                    pass  # HTTP-date or garbage: use the backoff schedule
        scheduled = self.backoff_s * self.backoff_factor**attempt
        if not self.jitter:
            return scheduled
        with self._lock:
            return self._rng.uniform(0.0, scheduled)

    def _deposit_retry_tokens(self) -> None:
        if self.retry_budget is None:
            return
        with self._lock:
            self._retry_tokens = min(
                _RETRY_BUDGET_CAP, self._retry_tokens + self.retry_budget
            )

    def _withdraw_retry_token(self) -> bool:
        """Charge the bucket for one retry; ``False`` = budget dry."""
        if self.retry_budget is None:
            return True
        with self._lock:
            if self._retry_tokens >= 1.0:
                self._retry_tokens -= 1.0
                return True
            self.retries_denied += 1
            return False

    def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        retries: int | None = None,
    ) -> dict:
        """Issue one request; retry transient failures with backoff."""
        budget = self.retries if retries is None else retries
        deadline_epoch = (
            time.time() + self.deadline_s
            if self.deadline_s is not None
            else None
        )
        self._deposit_retry_tokens()
        attempt = 0
        while True:
            extra_headers = None
            if deadline_epoch is not None:
                remaining_s = deadline_epoch - time.time()
                if remaining_s <= 0:
                    raise ServiceError(
                        504, {"error": "client deadline exceeded"}
                    )
                extra_headers = {
                    DEADLINE_HEADER: format_deadline_ms(remaining_s)
                }
            try:
                status, body, headers = self._attempt(
                    method, path, payload, extra_headers
                )
            except OSError:
                if attempt >= budget or not self._withdraw_retry_token():
                    raise
                # transient transport failure
                status, body, headers = None, None, None
            if status is not None:
                if status < 400:
                    return body if isinstance(body, dict) else {"raw": body}
                if status not in self.retry_statuses or attempt >= budget:
                    raise ServiceError(status, body)
                if not self._withdraw_retry_token():
                    raise ServiceError(status, body)
            delay = self._retry_delay_s(attempt, headers)
            if deadline_epoch is not None:
                # Never sleep past the caller's budget: wake with just
                # enough time for the expiry check to fail fast.
                delay = min(delay, max(0.0, deadline_epoch - time.time()))
            time.sleep(delay)
            attempt += 1

    # -- endpoint wrappers ----------------------------------------------
    def healthz(self) -> dict:
        """``GET /healthz`` (no retries — health must be a point probe)."""
        status, body, _ = self._attempt("GET", "/healthz", None)
        if isinstance(body, dict):
            return {"http_status": status, **body}
        return {"http_status": status, "raw": body}

    def metrics(self, histograms: bool = False) -> dict:
        """``GET /metrics`` (``histograms`` adds mergeable bucket rows)."""
        path = "/metrics?histograms=1" if histograms else "/metrics"
        return self.request("GET", path)

    def slo(self) -> dict:
        """``GET /slo`` (``{"enabled": false}`` without an SLO engine)."""
        return self.request("GET", "/slo")

    def debug_requests(
        self,
        n: int = 50,
        endpoint: str | None = None,
        outcome: str | None = None,
        min_ms: float | None = None,
    ) -> dict:
        """``GET /debug/requests`` — the flight-recorder tail."""
        params = [f"n={n}"]
        if endpoint is not None:
            params.append(f"endpoint={quote(endpoint, safe='')}")
        if outcome is not None:
            params.append(f"outcome={quote(outcome, safe='')}")
        if min_ms is not None:
            params.append(f"min_ms={min_ms}")
        return self.request("GET", "/debug/requests?" + "&".join(params))

    def predict(self, **payload: object) -> dict:
        """``POST /predict``; returns the response envelope."""
        return self.request("POST", "/predict", dict(payload))

    def tune(self, **payload: object) -> dict:
        """``POST /tune``."""
        return self.request("POST", "/tune", dict(payload))

    def rank(self, **payload: object) -> dict:
        """``POST /rank``."""
        return self.request("POST", "/rank", dict(payload))
