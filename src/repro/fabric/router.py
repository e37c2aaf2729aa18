"""The fabric's front router: one process, the whole public API.

The router accepts the exact HTTP surface of a single-process
:class:`~repro.service.server.ReproService` and forwards each POST to
the shard owning its key.  The shard key comes from
:func:`repro.engine.parse_request` — the *same* memoized parse and
normalization the shards themselves hash for caching and coalescing —
so every request for one cache identity lands on one shard and the
per-shard response LRU is exactly as effective as a single process's.
Bodies are forwarded verbatim: the shard parses them itself and
answers byte-identical to single-process mode (the only router
addition is the ``X-Repro-Shard`` response header).

Failure semantics:

* A payload the engine cannot shard-key (bad JSON, bad fields, wrong
  method) is forwarded to the first live shard in ring order, which
  produces the canonical 400/405 — the router never invents its own
  error bodies for API paths.
* A shard that refuses the *connection* (crashed, still restarting) is
  marked down, removed from the ring, and the request is retried on
  the next member in :meth:`HashRing.route_order` — deterministic, so
  concurrent routers agree on the fallback shard too.  Timeouts and
  HTTP errors are **not** rerouted: the response (504, 500, 429...) is
  relayed as-is, because the job may still be running and a reroute
  would double-execute it.  A forward times out (502) only past the
  shard template's ``request_timeout_s`` plus 5 s, so a shard's own
  deadline (504) always answers first.  The forward deadline is the
  shard connection's own timer, not a task: when it fires it drops
  the connection, and the exchange reports the timeout — never
  "closed while idle", which would resend the request on a fresh
  connection.
* A probe loop re-checks ``/healthz`` of every shard each
  ``probe_interval_s``; a dead shard is restarted through the
  supervisor (when ``restart_shards``) and re-joins the ring on its
  first healthy probe.  In-flight ``/tune`` jobs of a killed shard do
  not wait for any of this: survivors adopt them from the job ledger.

Connections are persistent on both sides (:mod:`repro.service.http1`).
Clients keep theirs open across requests, and the router keeps up to
:data:`_POOL_CAP` idle connections per shard for its forwards, probes
and fan-ins.  A forward on a pooled connection runs from the two
connections' callbacks, with no task: the client's request is
forwarded inside the client connection's ``data_received``, and the
shard's answer relayed inside the shard connection's.  A fresh
connection is opened by a task.  Fan-ins and probes await the same
forward.  A *pooled* connection that fails before any status-line
byte (the shard closed it while it sat idle) is retried once on a
fresh connection to the same shard; that retry marks nothing down and
is not a reroute.  Only the fresh connection's failure counts as the
shard refusing.  A member's pool is dropped when it is marked down or
restarted and when the router stops; the stop also drops the shard
connections of forwards still in flight.  ``accepted``,
``shard_connects`` and ``shard_reuses`` in the router counters show
the reuse.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Awaitable, Callable
from urllib.parse import parse_qs

from repro.engine import parse_request
from repro.fabric.config import FabricConfig
from repro.fabric.proc import FabricSupervisor
from repro.fabric.ring import HashRing
from repro.service.http1 import (
    Answer,
    ClientConnection,
    Http1Server,
    NoResponse,
    Pending,
    Reply,
    Request,
    Response,
    encode_request,
    json_response,
    reusable,
)
from repro.service.overload import (
    DEADLINE_HEADER,
    deadline_from_headers,
    format_deadline_ms,
)
from repro.telemetry import LatencyHistogram, render_prometheus
from repro.telemetry.prom import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.telemetry.recorder import tail_filters

__all__ = ["FabricRouter", "serve_fabric"]

_API_PATHS = ("/predict", "/tune", "/rank")
#: Idle connections kept per shard for reuse; a burst above it opens
#: (and afterwards closes) extra ones.
_POOL_CAP = 16
#: Response headers relayed from shard to client (the rest are
#: connection-scoped and regenerated by the router).
_RELAY_HEADERS = ("retry-after",)
#: How much longer than a shard's own deadline the router waits for
#: its answer before relaying 502 "shard timeout".
_FORWARD_SLACK_S = 5.0


def _member(index: int) -> str:
    """Ring member name of shard ``index``."""
    return str(index)


def _truthy(values: list[str] | None) -> bool:
    """Boolean query parameter: present and not ``0``/``false``."""
    return bool(values) and values[0].lower() not in ("0", "false")


class FabricRouter(Http1Server):
    """One router over a set of shard addresses."""

    server_name = "repro-fabric-router"

    def __init__(
        self,
        config: FabricConfig,
        ports: dict[int, int],
        supervisor: FabricSupervisor | None = None,
    ) -> None:
        # Bodies are refused at the shards' limit, so an oversized
        # request gets the same 413 with or without a router.
        super().__init__(config.shard.max_body_bytes)
        self.config = config
        self._forward_timeout_s = (
            config.shard.request_timeout_s + _FORWARD_SLACK_S
        )
        self.supervisor = supervisor
        self.ports: dict[str, int] = {
            _member(index): port for index, port in ports.items()
        }
        self.ring = HashRing(sorted(self.ports), vnodes=config.vnodes)
        self.down: set[str] = set()
        self.counters = {
            "routed": 0,
            "rerouted": 0,
            "bad_shard_key": 0,
            "shard_down": 0,
            "shard_up": 0,
            "shard_restarts": 0,
            "no_backend": 0,
            "accepted": 0,
            "shard_connects": 0,
            "shard_reuses": 0,
        }
        #: Idle shard connections by member, most recently used last.
        self._pools: dict[str, list[ClientConnection]] = {}
        #: Shard exchanges in flight.
        self._forwards: set[_Forward] = set()
        self._probe_task: asyncio.Task | None = None

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> int:
        await self._listen(self.config.host, self.config.port)
        self._probe_task = asyncio.get_running_loop().create_task(
            self._probe_loop()
        )
        return self.port

    async def stop(self) -> None:
        self.draining = True
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except (asyncio.CancelledError, Exception):
                pass
            self._probe_task = None
        self._stop_listening()
        await self._drain_requests(self.config.shard.drain_timeout_s)
        for member in list(self._pools):
            self._drop_pool(member)
        await self._close_connections()
        forwards = list(self._forwards)
        for forward in forwards:
            forward.cancel()
        await asyncio.gather(
            *(f.task for f in forwards if f.task is not None),
            return_exceptions=True,
        )
        self._stop_requested.set()

    # -- membership -----------------------------------------------------
    def mark_down(self, member: str) -> None:
        self._drop_pool(member)
        if member not in self.down:
            self.down.add(member)
            self.ring.remove(member)
            self.counters["shard_down"] += 1

    def mark_up(self, member: str) -> None:
        if member in self.down:
            self.down.discard(member)
            self.ring.add(member)
            self.counters["shard_up"] += 1

    # -- request handling -----------------------------------------------
    def _accept(self) -> asyncio.Protocol:
        self.counters["accepted"] += 1
        return super()._accept()

    def respond(self, request: Request) -> Answer:
        method = request.method
        path, _, query = request.target.partition("?")
        if path in _API_PATHS:
            return self._route_api(
                method, path, request.body, request.headers
            )
        params = parse_qs(query) if query else {}
        if method == "GET" and path == "/healthz":
            return json_response(*self._healthz())
        if method == "GET" and path == "/metrics":
            return self._metrics_response(params)
        if method == "GET" and path == "/slo":
            return self._json_200(self._slo())
        if method == "GET" and path == "/debug/requests":
            try:
                filters = tail_filters(params)
            except ValueError as exc:
                return json_response(400, {"error": str(exc)})
            return self._json_200(self._debug_requests(query, filters["n"]))
        return json_response(404, {"error": f"no route {path}"})

    async def _json_200(self, document: Awaitable[dict]) -> Response:
        return json_response(200, await document)

    async def _metrics_response(self, params: dict) -> Response:
        if (params.get("format") or [None])[0] == "prometheus":
            document = await self._metrics(histograms=True)
            return Response(
                200,
                render_prometheus(_prom_snapshot(document)).encode(),
                content_type=_PROM_CONTENT_TYPE,
            )
        histograms = _truthy(params.get("histograms"))
        return json_response(200, await self._metrics(histograms=histograms))

    # -- routing --------------------------------------------------------
    def _route_candidates(self, method: str, path: str, body: bytes) -> list[str]:
        """Failover-ordered shard members for one request.

        A key the engine can compute pins the request (and every retry)
        to its owner's arc; anything unshardable goes to the first live
        member so the *shard* renders the canonical error response.
        """
        if method == "POST":
            key = parse_request(path, body).shard_key
            if key is not None:
                return self.ring.route_order(key)
            self.counters["bad_shard_key"] += 1
        return self.ring.route_order(path)

    def _restart_retry_after_s(self) -> int:
        """How soon a dead shard could plausibly serve again: one probe
        period (the prober notices and restarts it) plus the probe
        timeout, rounded up.  Clients backing off by this stop
        hammering a restarting shard."""
        return max(
            1,
            int(
                self.config.probe_interval_s
                + self.config.probe_timeout_s
                + 0.999
            ),
        )

    def _route_api(
        self,
        method: str,
        path: str,
        body: bytes,
        req_headers: dict[str, str] | None = None,
    ) -> Response | Pending:
        route = _Route(
            self, method, path, body, deadline_from_headers(req_headers),
            self._route_candidates(method, path, body),
        )
        return route.step() or route.pending

    def _retry_after(self) -> dict[str, str]:
        return {"Retry-After": str(self._restart_retry_after_s())}

    def _relay(self, member: str, reply: Reply) -> Response:
        """The client's copy of a shard's answer."""
        status, body, headers = reply
        self.counters["routed"] += 1
        extra = {"X-Repro-Shard": member}
        for name in _RELAY_HEADERS:
            if name in headers:
                extra[name.title()] = headers[name]
        return Response(status, body, extra)

    def _forward(
        self,
        member: str,
        method: str,
        path: str,
        body: bytes,
        extra_headers: dict[str, str] | None,
        done: Callable[[Reply | None, BaseException | None], None],
    ) -> _Forward:
        """Start one verbatim exchange with a shard (see
        :class:`_Forward`)."""
        port = self.ports[member]
        request = encode_request(
            method, path, f"{self.config.host}:{port}", body, extra_headers
        )
        forward = _Forward(self, member, port, request, done)
        forward.start()
        return forward

    async def _fetch(self, member: str, path: str) -> Reply:
        """``GET path`` on one shard: the same forward, awaited."""
        future = asyncio.get_running_loop().create_future()

        def done(reply: Reply | None, exc: BaseException | None) -> None:
            if future.done():
                return
            if exc is None:
                future.set_result(reply)
            else:
                future.set_exception(exc)

        forward = self._forward(member, "GET", path, b"", None, done)
        try:
            return await future
        except asyncio.CancelledError:
            forward.cancel()
            raise

    def _take_idle(self, member: str) -> ClientConnection | None:
        pool = self._pools.get(member)
        while pool:
            conn = pool.pop()
            if conn.closed:
                continue
            self.counters["shard_reuses"] += 1
            return conn
        return None

    def _put_idle(self, member: str, port: int, conn: ClientConnection) -> None:
        pool = self._pools.setdefault(member, [])
        if (
            self.draining
            or member in self.down
            or self.ports.get(member) != port
            or len(pool) >= _POOL_CAP
        ):
            conn.close()
            return
        pool.append(conn)

    def _drop_pool(self, member: str) -> None:
        for conn in self._pools.pop(member, ()):
            conn.close()

    # -- health + metrics -----------------------------------------------
    def _healthz(self) -> tuple[int, dict]:
        live = sorted(self.ring.members)
        payload = {
            "status": "ok" if live else "down",
            "role": "router",
            "uptime_s": self.uptime_s(),
            "shards": {
                member: {
                    "up": member not in self.down,
                    "port": self.ports.get(member),
                }
                for member in sorted(self.ports)
            },
            "ring": self.ring.snapshot(),
        }
        if self.draining:
            payload["status"] = "draining"
            return 503, payload
        if live and self.down:
            payload["status"] = "degraded"
        return (200 if live else 503), payload

    async def _fan_in(self, path: str) -> dict[str, dict]:
        """``GET path`` on every live shard; JSON bodies by member."""
        shards: dict[str, dict] = {}

        async def fetch(member: str) -> None:
            try:
                status, body, _ = await self._fetch(member, path)
                if status == 200:
                    shards[member] = json.loads(body.decode())
            except (ConnectionError, OSError, ValueError,
                    asyncio.TimeoutError):
                pass

        await asyncio.gather(
            *(fetch(m) for m in self.ring.members),
            return_exceptions=True,
        )
        return shards

    async def _metrics(self, histograms: bool = False) -> dict:
        """Fan-in: router counters + every live shard's snapshot +
        a cross-shard aggregate of the summable counters (including
        true latency quantiles from merged histograms)."""
        shards = await self._fan_in(
            "/metrics?histograms=1" if histograms else "/metrics"
        )
        return {
            "fabric": {
                "uptime_s": self.uptime_s(),
                "router": dict(self.counters),
                "ring": self.ring.snapshot(),
                "down": sorted(self.down),
            },
            "shards": shards,
            "aggregate": _aggregate(shards, histograms=histograms),
        }

    async def _slo(self) -> dict:
        """Fan-in of every shard's ``/slo`` + the union of alerts."""
        shards = await self._fan_in("/slo")
        alerts = []
        for member in sorted(shards):
            for alert in shards[member].get("alerts") or ():
                alerts.append({**alert, "shard": member})
        return {
            "role": "router",
            "enabled": any(
                doc.get("enabled") for doc in shards.values()
            ),
            "shards": shards,
            "alerts": alerts,
        }

    async def _debug_requests(self, query: str, n: int) -> dict:
        """Fan-in of the shards' flight recorders, newest first (the
        shards apply the query's filters; ``n`` caps the merge)."""
        path = "/debug/requests" + (f"?{query}" if query else "")
        shards = await self._fan_in(path)
        merged: list[dict] = []
        recorded = held = 0
        for member in sorted(shards):
            doc = shards[member]
            recorded += int(doc.get("recorded", 0))
            held += int(doc.get("held", 0))
            for entry in doc.get("requests") or ():
                merged.append({**entry, "shard": entry.get("shard", member)})
        merged.sort(key=lambda e: e.get("ts", 0.0), reverse=True)
        return {
            "role": "router",
            "recorded": recorded,
            "held": held,
            "shards_reporting": len(shards),
            "requests": merged[:n],
        }

    # -- probing --------------------------------------------------------
    async def _probe_loop(self) -> None:
        while not self.draining:
            await asyncio.sleep(self.config.probe_interval_s)
            for member in sorted(self.ports):
                await self._probe(member)

    async def _probe(self, member: str) -> None:
        try:
            status, _, _ = await asyncio.wait_for(
                self._fetch(member, "/healthz"),
                timeout=self.config.probe_timeout_s,
            )
        except (ConnectionError, OSError, asyncio.TimeoutError):
            status = None
        if status == 200:
            self.mark_up(member)
            return
        self.mark_down(member)
        if status is not None or self.supervisor is None:
            return
        # Reap the child if it died (``is_alive`` joins a finished
        # process): a zombie pid would otherwise look alive to the
        # shards' lease-adoption check until the TTL ran out.
        shard = self.supervisor.shards.get(int(member))
        if shard is not None:
            shard.alive
        if self.config.restart_shards:
            await self._restart(member)

    async def _restart(self, member: str) -> None:
        """Replace a dead shard through the supervisor (off-loop: fork
        + port-file wait are blocking)."""
        index = int(member)
        shard = self.supervisor.shards.get(index)
        if shard is not None and shard.alive:
            return  # transport blip, not a death; probe will recover it
        loop = asyncio.get_running_loop()
        try:
            port = await loop.run_in_executor(
                None, self.supervisor.restart, index
            )
        except Exception:
            return
        if port is not None:
            self._drop_pool(member)
            self.ports[member] = port
            self.counters["shard_restarts"] += 1
            # The next healthy probe re-adds it to the ring.


class _Forward:
    """One verbatim exchange with one shard.

    On an idle pooled connection the whole exchange runs from the two
    connections' callbacks; a fresh connection is opened by a task
    (bounded by the probe timeout, whose expiry is a timeout, not a
    refusal).  ``done(reply, exc)`` runs once unless the forward is
    cancelled.  The connection goes back to the member's pool only
    after a complete keep-alive response.
    """

    __slots__ = ("router", "member", "port", "request", "done", "pooled",
                 "conn", "task")

    def __init__(
        self,
        router: FabricRouter,
        member: str,
        port: int,
        request: bytes,
        done: Callable[[Reply | None, BaseException | None], None],
    ) -> None:
        self.router = router
        self.member = member
        self.port = port
        self.request = request
        self.done = done
        self.pooled = False
        self.conn: ClientConnection | None = None
        self.task: asyncio.Task | None = None

    def start(self) -> None:
        self.router._forwards.add(self)
        conn = self.router._take_idle(self.member)
        if conn is None:
            self._connect()
        else:
            self.pooled = True
            self._send(conn)

    def cancel(self) -> None:
        """Abandon the exchange: ``done`` never runs, and its connection
        (or connection attempt) is dropped."""
        self.router._forwards.discard(self)
        if self.task is not None:
            self.task.cancel()
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def _send(self, conn: ClientConnection) -> None:
        self.conn = conn
        conn.send(self.request, self.router._forward_timeout_s, self._answered)

    def _answered(self, reply: Reply | None, exc: BaseException | None) -> None:
        conn, self.conn = self.conn, None
        router = self.router
        if reply is not None and reusable(reply[2]) and not conn.closed:
            router._put_idle(self.member, self.port, conn)
        else:
            conn.close()
        if self.pooled and isinstance(exc, NoResponse) and not router._closing:
            # Closed while idle: once more on a fresh connection.
            self.pooled = False
            self._connect()
            return
        router._forwards.discard(self)
        self.done(reply, exc)

    def _connect(self) -> None:
        self.task = asyncio.get_running_loop().create_task(self._open())

    async def _open(self) -> None:
        router = self.router
        try:
            _, conn = await asyncio.wait_for(
                asyncio.get_running_loop().create_connection(
                    ClientConnection, router.config.host, self.port
                ),
                timeout=router.config.probe_timeout_s,
            )
        except Exception as exc:
            self.task = None
            router._forwards.discard(self)
            self.done(None, exc)
            return
        self.task = None
        router.counters["shard_connects"] += 1
        self._send(conn)


class _Route:
    """One API request walking its failover order, on callbacks only.

    Each :meth:`step` forwards the body to the next member.  Its
    answer settles :attr:`pending`: relayed as-is, or 502 on a forward
    timeout (the shard has the request; rerouting would fork it).  A
    transport refusal marks the member down and steps on.  Deadline
    propagation: before each forward the router deducts its own
    elapsed time (parse, failed forwards), so the shard sees the budget
    actually left, and refuses outright once it is gone.
    """

    __slots__ = ("router", "method", "path", "body", "deadline", "members",
                 "member", "pending")

    def __init__(
        self,
        router: FabricRouter,
        method: str,
        path: str,
        body: bytes,
        deadline: float | None,
        members: list[str],
    ) -> None:
        self.router = router
        self.method = method
        self.path = path
        self.body = body
        self.deadline = deadline
        self.members = iter(members)
        self.member: str | None = None
        self.pending = Pending()

    def step(self) -> Response | None:
        """Forward to the next member; the response instead when the
        walk ends here (the budget is spent, or no member is left)."""
        router = self.router
        member = self.member = next(self.members, None)
        if member is None:
            router.counters["no_backend"] += 1
            return json_response(
                503, {"error": "no live shard", "path": self.path},
                router._retry_after(),
            )
        extra_headers = None
        if self.deadline is not None:
            remaining_s = self.deadline - time.time()
            if remaining_s <= 0:
                return json_response(
                    504, {"error": "deadline expired", "path": self.path}
                )
            extra_headers = {DEADLINE_HEADER: format_deadline_ms(remaining_s)}
        router._forward(
            member, self.method, self.path, self.body, extra_headers,
            self._answered,
        )
        return None

    def _answered(self, reply: Reply | None, exc: BaseException | None) -> None:
        try:
            response = self._outcome(reply, exc)
        except Exception as error:  # closes the client's connection
            self.pending.fail(error)
            return
        if response is not None:
            self.pending.resolve(response)

    def _outcome(
        self, reply: Reply | None, exc: BaseException | None
    ) -> Response | None:
        router = self.router
        if exc is None:
            return router._relay(self.member, reply)
        if isinstance(exc, asyncio.TimeoutError):
            # Caught before the transport clause below: since Python
            # 3.11 a timeout is the builtin TimeoutError, an OSError.
            # Retry-After: the prober's restart backoff — the shard is
            # wedged or restarting either way.
            return json_response(
                502, {"error": "shard timeout", "shard": self.member},
                router._retry_after(),
            )
        if isinstance(exc, OSError) and not router._closing:
            # Transport-level refusal only: the shard never saw (or
            # never answered) the request, so retrying elsewhere
            # cannot double-execute it.
            router.mark_down(self.member)
            router.counters["rerouted"] += 1
            return self.step()
        raise exc


#: Tier-ledger counter fields summed across shards (the unified
#: ``repro.store`` ledger shape).
_TIER_FIELDS = ("hits", "misses", "puts", "evictions", "size")

#: Per-queue-class counter fields summed across shards.
_QUEUE_FIELDS = ("pending", "depth", "limit", "shed", "workers")


def _aggregate(shards: dict[str, dict], histograms: bool = False) -> dict:
    """Sum the summable counters across shard snapshots.

    With ``histograms`` (the shards were asked for their mergeable
    bucket rows) each endpoint also gets **true** cross-shard latency
    quantiles: every shard records into the same fixed log-bucket
    layout, so merging is plain bucket addition and the aggregate
    p50/p95/p99 equal the pooled-sample histogram's quantiles (within
    the layout's documented relative error bound).  Without histograms
    latency is omitted — raw reservoir percentiles do not add.  A
    tier's aggregate ``hit_rate`` is ``None`` — not 0.0 — while no
    shard has looked it up: untouched and always-missing are different
    operational states.
    """
    endpoints: dict[str, dict] = {}
    merged_hists: dict[str, LatencyHistogram] = {}
    tiers: dict[str, dict[str, int]] = {}
    queues: dict[str, dict] = {}
    steal = {"scans": 0, "adopted": 0}
    requests = 0
    for snapshot in shards.values():
        for path, stats in snapshot.get("endpoints", {}).items():
            agg = endpoints.setdefault(path, {"requests": 0, "outcomes": {}})
            agg["requests"] += int(stats.get("requests", 0))
            for outcome, count in stats.get("outcomes", {}).items():
                agg["outcomes"][outcome] = (
                    agg["outcomes"].get(outcome, 0) + int(count)
                )
            requests += int(stats.get("requests", 0))
            if histograms and isinstance(
                stats.get("latency_histogram"), dict
            ):
                try:
                    shard_hist = LatencyHistogram.from_dict(
                        stats["latency_histogram"]
                    )
                except (ValueError, TypeError):
                    continue  # unlike layout (rolling upgrade): skip
                merged = merged_hists.get(path)
                if merged is None:
                    merged_hists[path] = shard_hist
                else:
                    merged.merge(shard_hist)
        for name, ledger in snapshot.get("tiers", {}).items():
            agg_t = tiers.setdefault(
                name, {field: 0 for field in _TIER_FIELDS}
            )
            for field in _TIER_FIELDS:
                agg_t[field] += int(ledger.get(field, 0))
        for cls, gauges in snapshot.get("queues", {}).items():
            agg_q = queues.setdefault(
                cls, {field: 0 for field in _QUEUE_FIELDS}
            )
            for field in _QUEUE_FIELDS:
                agg_q[field] += int(gauges.get(field, 0))
            # Deadlines do not add; report the slackest one in force.
            deadline = gauges.get("deadline_s")
            if isinstance(deadline, (int, float)):
                agg_q["deadline_s"] = max(
                    agg_q.get("deadline_s", 0.0), float(deadline)
                )
            # Adaptive limits sum like static ones (total admission
            # across the fabric) but only appear when a shard runs
            # with --adaptive-limits.
            adaptive = gauges.get("adaptive_limit")
            if isinstance(adaptive, (int, float)):
                agg_q["adaptive_limit"] = (
                    agg_q.get("adaptive_limit", 0) + int(adaptive)
                )
        for key in steal:
            steal[key] += int(snapshot.get("steal", {}).get(key, 0))
    for ledger in tiers.values():
        total = ledger["hits"] + ledger["misses"]
        ledger["hit_rate"] = ledger["hits"] / total if total else None
    for path, hist in merged_hists.items():
        endpoints[path]["latency"] = hist.percentiles()
        endpoints[path]["latency_histogram"] = hist.to_dict()
    return {
        "requests": requests,
        "endpoints": endpoints,
        "tiers": tiers,
        "queues": queues,
        "steal": steal,
        "shards_reporting": len(shards),
    }


def _prom_snapshot(document: dict) -> dict:
    """Reshape the router's ``/metrics`` document into the snapshot
    shape :func:`render_prometheus` expects (the aggregate view plus
    the router's own uptime)."""
    aggregate = document.get("aggregate") or {}
    fabric = document.get("fabric") or {}
    snapshot = dict(aggregate)
    snapshot.setdefault("uptime_s", fabric.get("uptime_s"))
    return snapshot


async def serve_fabric(config: FabricConfig, banner: bool = True) -> None:
    """Bring up shards + router; run until SIGTERM, then tear down."""
    supervisor = FabricSupervisor(config)
    loop = asyncio.get_running_loop()
    ports = await loop.run_in_executor(None, supervisor.start_all)
    router = FabricRouter(config, ports, supervisor=supervisor)
    try:
        port = await router.start()
        if banner:
            shard_ports = ", ".join(
                f"{i}:{p}" for i, p in sorted(ports.items())
            )
            print(
                f"repro-fabric router on http://{config.host}:{port} "
                f"({config.shards} shards: {shard_ports}; "
                f"state in {config.fabric_dir})",
                flush=True,
            )
        router.drain_on_signals()
        await router.wait_stopped()
    finally:
        await loop.run_in_executor(None, supervisor.stop_all)
    if banner:
        print("repro-fabric drained, bye", flush=True)
