"""The tuning/prediction server: asyncio + stdlib HTTP/1.1, no deps.

One POST (``/predict``, ``/tune``, ``/rank``) runs five stages, in
order; three of them feed the ``/metrics`` ``stages`` timer of the
same name::

    normalize   memoized parse; 400 on a bad payload        [normalize]
    tier walk   response tier (encoded results), then the   [cache]
                database tier (/rank, validate=false)
    admit       brownout shed or degrade, the circuit        (untimed)
                breaker, the cost class, deadline admission
    execute     the analytic fallback, or: build the job     [execute]
                payload, coalesce onto an identical in-flight
                job or admit a fresh one to its class's lane:
                cheap jobs on threads of this process,
                expensive ones on the pool (429 when full;
                tier 2 traffic memo inside)
    render      the envelope from the result's encoded bytes;
                metrics, SLO observation, flight-recorder row

The tier walk runs before admission, so a warm hit is served under
brownout, with the breaker open, or with a spent deadline.  A traced
request adds its span aggregates to the stage timers.  A tune the
idle-shard steal loop adopts from the fabric job ledger enters at the
execute stage: the tier walk, brownout and breaker are client-facing.

Every GET, and every POST that waits for nothing (a 400, a tier hit,
a shed, an overload 429), is answered inside the callback that read
its last byte, with no task.  A POST that waits for a job or the
fallback is finished by a task, after ``_dispatch`` has coalesced or
admitted its job in the same synchronous step as the tier walk.
Connections are persistent HTTP/1.1 (:mod:`repro.service.http1`): a
client sends request after request on one socket until it says
``Connection: close``, goes idle past the read deadline, or the server
drains.
SIGTERM (or ``stop()``) drains gracefully: the listener and every idle
connection close, in-flight requests finish within ``drain_timeout_s``
(answered ``Connection: close``), then both lanes shut down.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from typing import Awaitable, NamedTuple
from urllib.parse import parse_qs

from repro import faults, obs
from repro.engine import RankRequest, parse_request
from repro.offsite.database import TuningDatabase, TuningKey, TuningRecord
from repro.service.batching import (
    CoalescingDispatcher,
    DeadlineSwept,
    Overloaded,
)
from repro.service.breaker import CircuitBreaker
from repro.service.config import ServiceConfig
from repro.service.cost import classify
from repro.service.http1 import (
    Answer,
    Http1Server,
    Request,
    Response,
    json_response,
)
from repro.service.overload import (
    BROWNOUT_STAGES,
    BrownoutLadder,
    deadline_from_headers,
)
from repro.service.jobs import (
    DEGRADED_JOBS,
    JOBS,
    is_degraded,
    run_traced_job,
)
from repro.service.metrics import ServiceMetrics
from repro.service.serializers import tuning_record_to_dict
from repro.store import DatabaseTier, LruTier
from repro.telemetry import (
    FlightRecorder,
    SloEngine,
    load_slo_config,
    render_prometheus,
)
from repro.telemetry.prom import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.telemetry.recorder import tail_filters

__all__ = ["ReproService", "serve"]


def _first(params: dict, name: str) -> str | None:
    """First value of one query parameter (``None`` when absent)."""
    values = params.get(name)
    return values[0] if values else None


def _flag(params: dict, name: str) -> bool:
    """Boolean query parameter: present and not ``0``/``false``."""
    value = _first(params, name)
    return value is not None and value.lower() not in ("0", "false")


@functools.lru_cache(maxsize=None)
def _envelope_head(endpoint: str, served: str) -> bytes:
    return (
        f'{{"endpoint": {json.dumps(endpoint)}, '
        f'"served": {json.dumps(served)}, "result": '
    ).encode()


class _Answer(NamedTuple):
    """A stage's answer to one POST.  A 200 carries its ``served``
    label and its result's encoded bytes, which the render stage wraps
    in an envelope; any other status carries its whole body."""

    outcome: str
    status: int
    body: bytes
    served: str | None = None
    headers: dict[str, str] | None = None
    trace: dict | None = None
    extras: tuple = ()


def _refuse(
    outcome: str, status: int, document: dict,
    retry_after_s: float | None = None,
) -> _Answer:
    """A non-200 answer; ``retry_after_s`` adds a ``Retry-After`` of
    whole seconds, rounded up, at least one."""
    headers = None
    if retry_after_s is not None:
        headers = {"Retry-After": str(max(1, int(retry_after_s + 0.999)))}
    return _Answer(
        outcome, status, json.dumps(document).encode(), headers=headers
    )


def _failure(exc: Exception) -> _Answer:
    """The 500 answer to a job that raised."""
    return _refuse("failed", 500, {"error": f"{type(exc).__name__}: {exc}"})


class _Post:
    """One POST on its way through the stages.  An adopted tune enters
    at the execute stage with only ``key``, ``payload`` and
    ``job_class`` set."""

    __slots__ = ("endpoint", "deadline", "parsed", "key", "payload",
                 "job_class", "brownout", "encoded", "note", "stages")

    def __init__(
        self,
        endpoint: str,
        deadline: float | None = None,
        key: str | None = None,
        payload: dict | None = None,
    ) -> None:
        self.endpoint = endpoint
        self.deadline = deadline  # absolute epoch, propagated by the caller
        self.parsed = None
        self.key = key
        self.payload = payload  # the normalized request
        self.job_class: str | None = None  # None: the analytic fallback
        self.brownout = False  # the ladder chose the fallback
        self.encoded: bytes | None = None  # set by the completion hook
        self.note: dict = {}  # flight-recorder attribution
        self.stages: dict[str, float] = {}


class ReproService(Http1Server):
    """One server instance; ``start()`` binds, ``stop()`` drains."""

    server_name = "repro-service"

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        super().__init__(self.config.max_body_bytes)
        self.metrics = ServiceMetrics()
        self.dispatcher = CoalescingDispatcher(self.config)
        self.response_cache = LruTier(
            "response", capacity=self.config.response_cache_size
        )
        self.metrics.attach_tier("response", self.response_cache)
        if self.config.db_dir:
            # Fabric mode: the segmented multi-process store.  Each
            # shard writes only its own segment; peers' records are
            # merged in on (rate-limited) lookup misses.
            from repro.util.segdb import SegmentedTuningDatabase

            self.database: TuningDatabase = SegmentedTuningDatabase(
                self.config.db_dir, self.config.shard_id
            )
        elif self.config.db_path:
            self.database = TuningDatabase.load_or_empty(self.config.db_path)
        else:
            self.database = TuningDatabase()
        # The warm database serves through its tier adapter (uniform
        # ledger); persistence keeps talking to the wrapped object.
        self.database_tier = DatabaseTier(self.database)
        self.metrics.attach_tier("database", self.database_tier)
        # Flight recorder: always constructed (recording one dict per
        # request is O(1)); only the /debug/requests surface reads it.
        self.flight = FlightRecorder(self.config.flight_recorder)
        # SLO engine: exists only when objectives were configured, so
        # the default /metrics and /healthz documents are unchanged.
        self.slo: SloEngine | None = None
        if self.config.slo_enabled:
            self.slo = SloEngine(load_slo_config(self.config.slo_config))
            self.slo.set_tier_source(self.metrics.tier_totals)
        # Brownout ladder: staged SLO-burn-driven degradation.  Only
        # constructed when armed (config validation guarantees the SLO
        # engine exists), so default responses are byte-identical.
        self.ladder: BrownoutLadder | None = None
        if self.config.brownout:
            self.ladder = BrownoutLadder(
                self.slo.alerts,
                escalate_hold_s=self.config.brownout_escalate_s,
                recover_hold_s=self.config.brownout_recover_s,
                on_transition=self._record_brownout_transition,
            )
        self.breakers = {
            path: CircuitBreaker(
                path,
                failure_threshold=self.config.breaker_threshold,
                recovery_s=self.config.breaker_recovery_s,
            )
            for path in JOBS
        }
        self._db_dirty = False
        self._db_save_task: asyncio.Task | None = None
        self._steal_task: asyncio.Task | None = None
        self.steal_counters = {"scans": 0, "adopted": 0}

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> int:
        """Bind and start accepting; returns the bound port."""
        await self._listen(self.config.host, self.config.port)
        if self.config.job_dir and self.config.steal_interval_s > 0:
            self._steal_task = asyncio.get_running_loop().create_task(
                self._steal_loop()
            )
        return self.port

    async def stop(self, drain: bool = True) -> None:
        """Close the listener, optionally drain in-flight work, tear down.

        With ``drain`` the whole stop, lane joins included, gets
        ``drain_timeout_s``; without it nothing is waited for.
        """
        self.draining = True
        if self._steal_task is not None:
            self._steal_task.cancel()
            try:
                await self._steal_task
            except (asyncio.CancelledError, Exception):
                pass
            self._steal_task = None
        self._stop_listening()
        if drain:
            deadline = time.monotonic() + self.config.drain_timeout_s
            await self._drain_requests(self.config.drain_timeout_s)
            await self.dispatcher.drain(
                max(0.0, deadline - time.monotonic())
            )
            await self.dispatcher.join(max(0.0, deadline - time.monotonic()))
        else:
            self.dispatcher.shutdown()
        await self._close_connections()
        await self._flush_database_now()
        self._stop_requested.set()

    # -- request handling -----------------------------------------------
    def respond(self, request: Request) -> Answer:
        method = request.method
        path, _, query = request.target.partition("?")
        params = parse_qs(query) if query else {}

        if method == "GET" and path == "/healthz":
            status = 503 if self.draining else 200
            health = {
                "status": "draining" if self.draining else "ok",
                "uptime_s": self.uptime_s(),
                "shard": self.config.shard_id,
                "breakers": {
                    path_: breaker.state
                    for path_, breaker in sorted(self.breakers.items())
                },
            }
            # The alerts key appears only with an SLO engine, keeping
            # the default health document byte-identical.
            if self.slo is not None:
                health["alerts"] = self.slo.alerts()
            # Health probes also advance the ladder: recovery must not
            # need request traffic to walk back up after load drops.
            if self.ladder is not None:
                self.ladder.evaluate()
                health["brownout"] = {
                    "stage": self.ladder.stage,
                    "state": self.ladder.state,
                    "transitions": [
                        dict(entry) for entry in self.ladder.transitions
                    ],
                }
            return json_response(status, health)
        if method == "GET" and path == "/metrics":
            histograms = _flag(params, "histograms")
            if _first(params, "format") == "prometheus":
                snapshot = self.metrics_snapshot(histograms=True)
                return Response(
                    200,
                    render_prometheus(snapshot).encode(),
                    content_type=_PROM_CONTENT_TYPE,
                )
            return json_response(
                200, self.metrics_snapshot(histograms=histograms)
            )
        if method == "GET" and path == "/slo":
            if self.slo is None:
                return json_response(200, {"enabled": False})
            document = self.slo.snapshot()
            if self.ladder is not None:
                self.ladder.evaluate()
                document["brownout"] = self.ladder.snapshot()
            return json_response(200, document)
        if method == "GET" and path == "/debug/requests":
            try:
                document = self._flight_document(params)
            except ValueError as exc:
                return json_response(400, {"error": str(exc)})
            return json_response(200, document)
        if path in JOBS:
            if method != "POST":
                return json_response(
                    405, {"error": f"{path} requires POST"}
                )
            return self._serve_post(path, request)
        return json_response(404, {"error": f"no route {path}"})

    def _flight_document(self, params: dict) -> dict:
        """The ``/debug/requests`` document (filters from the query;
        ``ValueError`` on a malformed one)."""
        return {
            **self.flight.snapshot(),
            "shard": self.config.shard_id,
            "requests": self.flight.tail(**tail_filters(params)),
        }

    def _record_brownout_transition(self, entry: dict) -> None:
        """Ledger a ladder transition into the flight recorder, so
        ``repro obs tail --endpoint @brownout`` attributes a degraded
        spell to the exact alerts that drove it."""
        self.flight.record(
            endpoint="@brownout",
            outcome=entry["direction"],
            status=None,
            shard=self.config.shard_id,
            latency_ms=0.0,
            stage_from=entry["from"],
            stage_to=entry["to"],
            alerts=list(entry.get("alerts") or ()),
        )

    # -- the request pipeline --------------------------------------------
    def _serve_post(
        self, endpoint: str, request: Request
    ) -> Response | Awaitable[Response]:
        """Run one POST through the five stages (module docstring).  A
        POST that waits for its job or the fallback gets the coroutine
        that finishes it; any other is answered here."""
        t0 = time.perf_counter()
        post = _Post(endpoint, deadline_from_headers(request.headers))
        if self.ladder is not None:
            self.ladder.evaluate()
        stages = post.stages
        t = time.perf_counter()
        answer = self._normalize(post, request.body)
        stages["normalize"] = time.perf_counter() - t
        if answer is None:
            t = time.perf_counter()
            answer = self._tier_walk(post)
            stages["cache"] = time.perf_counter() - t
        if answer is None:
            answer = self._admit(post)
        if answer is None:
            t = time.perf_counter()
            answer = self._execute(post)
            if not isinstance(answer, _Answer):
                return self._finish_post(post, answer, t, t0)
            stages["execute"] = time.perf_counter() - t
        return self._render(post, answer, t0)

    async def _finish_post(
        self, post: _Post, waiting: Awaitable[_Answer], t: float, t0: float
    ) -> Response:
        answer = await waiting
        post.stages["execute"] = time.perf_counter() - t
        return self._render(post, answer, t0)

    def _normalize(self, post: _Post, body: bytes) -> _Answer | None:
        """Parse once, memoized per body and shared with the router.

        The hints ``trace`` and ``predictor`` stay outside the
        canonical payload, so they never fork the cache or
        coalescing identity.  That is sound for the predictor only
        because normalization rejects ``predictor="lc"`` for ``/tune``:
        the admitted modes produce bit-identical reports.
        """
        parsed = parse_request(post.endpoint, body)
        if parsed.error is not None:
            return _refuse("failed", 400, {"error": parsed.error})
        post.parsed = parsed
        return None

    def _tier_walk(self, post: _Post) -> _Answer | None:
        """The response tier, then the database tier.

        The tiers' own ledgers are attached to ``/metrics``, so a
        lookup needs no bookkeeping here.  Both hold exact results
        only.
        """
        parsed = post.parsed
        post.key = parsed.key
        cached = self.response_cache.get(post.key)
        if cached is not None:
            return _Answer("cache", 200, cached, "response-cache")
        post.payload = parsed.payload()
        if post.endpoint == "/rank" and not post.payload["validate"]:
            record = self.database_tier.get(
                TuningKey(*parsed.request.db_key_parts())
            )
            if record is not None:
                result = tuning_record_to_dict(record)
                return _Answer(
                    "database", 200, json.dumps(result).encode(), "database"
                )
        return None

    def _admit(self, post: _Post) -> _Answer | None:
        """Refuse, or set ``post.job_class`` (``None``: the fallback).

        Brownout first: heavy endpoints shed from ``shed-heavy`` on,
        ``/predict`` takes the analytic fallback from
        ``predict-analytic`` on and sheds at ``full-shed``.
        Then the circuit breaker: a backend that keeps failing fresh
        jobs is taken out of rotation, answered by the fallback in
        degraded mode and refused with 503 otherwise.  Then the queue
        class, and deadline admission: a budget that cannot cover the
        class's observed p95 gets a fast 429 instead of a queued job
        its caller will have abandoned.
        """
        endpoint = post.endpoint
        stage = 0 if self.ladder is None else self.ladder.stage
        if stage >= BROWNOUT_STAGES.index(
            "shed-heavy" if endpoint in ("/tune", "/rank") else "full-shed"
        ):
            post.note["brownout"] = self.ladder.state
            return _refuse("shed", 503, {
                "error": "brownout",
                "stage": self.ladder.state,
                "endpoint": endpoint,
            }, self.config.brownout_recover_s)
        if (stage >= BROWNOUT_STAGES.index("predict-analytic")
                and endpoint == "/predict"):
            post.brownout = True
            return None
        breaker = self.breakers[endpoint]
        if not breaker.allow():
            if self.config.degraded_mode:
                return None
            return _refuse("shed", 503, {
                "error": "circuit open",
                "endpoint": endpoint,
                "breaker": breaker.snapshot(),
            }, breaker.retry_after_s())
        job_class = post.job_class = classify(endpoint, post.payload)
        post.note["queue_class"] = job_class
        if post.deadline is None:
            return None
        remaining_s = post.deadline - time.time()
        p95 = self.dispatcher.observed_p95_s(job_class)
        if remaining_s > 0 and (p95 is None or remaining_s >= p95):
            return None
        breaker.release_probe()  # no work ran
        remaining_ms = round(remaining_s * 1e3, 3)
        post.note["deadline_remaining_ms"] = remaining_ms
        return _refuse("shed", 429, {
            "error": "deadline too tight",
            "remaining_ms": remaining_ms,
            "observed_p95_ms": None if p95 is None else round(p95 * 1e3, 3),
            "queue_class": job_class,
        }, (p95 or 0.0) - max(0.0, remaining_s))

    def _execute(self, post: _Post) -> _Answer | Awaitable[_Answer]:
        """Run the analytic fallback, or the job in its class's lane.

        The job is coalesced or admitted here, synchronously; only the
        wait for its result is awaited.  Only the request that
        dispatched fresh work reports to the breaker (coalesced waiters
        would multiply one failure into N strikes); every other exit
        hands a granted probe back.
        """
        if post.job_class is None:
            return self._fallback(post)
        breaker = self.breakers[post.endpoint]
        try:
            mode, task = self._dispatch(post)
        except Overloaded as exc:
            breaker.release_probe()
            return _refuse(
                "shed", 429, {"error": "overloaded", "detail": str(exc)}, 0.0
            )
        if mode != "fresh":
            breaker.release_probe()
        return self._await_job(post, breaker, mode, task)

    async def _await_job(
        self,
        post: _Post,
        breaker: CircuitBreaker,
        mode: str,
        task: Awaitable[dict],
    ) -> _Answer:
        """Wait for a dispatched job; the caller's deadline tightens the
        wait, never widens it."""
        timeout_s = self.config.request_timeout_s
        wait_s = timeout_s
        if post.deadline is not None:
            wait_s = min(timeout_s, max(0.0, post.deadline - time.time()))
        verdict = None  # fresh work's word on the backend
        try:
            result = await asyncio.wait_for(asyncio.shield(task), wait_s)
        except DeadlineSwept:  # dropped at dequeue: the backend never ran
            answer = _refuse(
                "shed", 504, {"error": "deadline expired in queue"}
            )
        except asyncio.TimeoutError as exc:
            if (task.done() and not task.cancelled()
                    and task.exception() is exc):
                # The job's own TimeoutError (the wait's class too since
                # Python 3.11): a job failure, not an expired wait.
                verdict = False
                answer = _failure(exc)
            elif wait_s < timeout_s:  # the caller's budget, not the backend
                answer = _refuse("failed", 504, {"error": "deadline exceeded"})
            else:
                verdict = False
                answer = _refuse(
                    "failed", 504, {"error": "timeout", "timeout_s": timeout_s}
                )
        except Exception as exc:  # the job blew up in the worker
            verdict = False
            answer = _failure(exc)
        else:
            verdict = True
            trace = None
            if post.parsed.trace:
                trace, result = result["trace"], result["result"]
            encoded = post.encoded or json.dumps(result).encode()
            answer = _Answer(mode, 200, encoded, mode, trace=trace)
        if verdict is None:
            breaker.release_probe()
        elif mode == "fresh":
            if verdict:
                breaker.record_success()
            else:
                breaker.record_failure()
        return answer

    async def _fallback(self, post: _Post) -> _Answer:
        """The one analytic fallback: ECM-only on the loop's thread
        executor, so neither lane is touched; marked degraded and
        never cached, so a recovered backend answers for real again."""
        try:
            result = await asyncio.get_running_loop().run_in_executor(
                None, DEGRADED_JOBS[post.endpoint], post.payload
            )
        except Exception as exc:
            return _failure(exc)
        extras: tuple = (("degraded", True),)
        if post.brownout:
            state = post.note["brownout"] = self.ladder.state
            extras += (("brownout", state),)
        return _Answer(
            "degraded", 200, json.dumps(result).encode(), "degraded",
            extras=extras,
        )

    def _dispatch(self, post: _Post) -> tuple[str, Awaitable[dict]]:
        """Coalesce onto an identical in-flight job or admit a fresh one
        (raises :class:`Overloaded`); returns ``(mode, task)``.

        A traced request runs its job under an obs trace inside the
        worker, dispatched under a derived key so its ``{"result",
        "trace"}`` never reaches an untraced waiter.
        """
        traced = post.parsed is not None and post.parsed.trace

        def on_result(result: dict) -> None:
            post.encoded = self._complete(
                post, result["result"] if traced else result
            )

        if traced:
            key = post.key + "#trace"
            job = functools.partial(run_traced_job, post.endpoint)
        else:
            key, job = post.key, JOBS[post.endpoint][1]
        return self.dispatcher.dispatch(
            key, job, self._job_payload(post), on_result=on_result,
            job_class=post.job_class, deadline_epoch=post.deadline,
        )

    def _job_payload(self, post: _Post) -> dict:
        """The payload a job runs on.

        A ``/tune`` gains execution-only keys that its identity
        excludes (normalization strips unknown keys, so no client can
        plant them): the deadline past which its tuner starts no
        variant, the predictor hint, and in fabric mode the job-ledger
        keys that let a peer shard adopt it if this process dies.
        """
        if post.endpoint != "/tune":
            return post.payload
        payload = dict(post.payload)
        deadline = time.time() + self.config.request_timeout_s
        if post.deadline is not None:
            deadline = min(deadline, post.deadline)
        payload["deadline"] = deadline
        if post.parsed is not None and post.parsed.predictor is not None:
            payload["predictor"] = post.parsed.predictor
        if self.config.job_dir:
            payload["job_dir"] = self.config.job_dir
            payload["job_key"] = post.key
            payload["lease_ttl_s"] = self.config.lease_ttl_s
        return payload

    def _complete(self, post: _Post, result: dict) -> bytes:
        """The completion hook: runs before the key leaves the in-flight
        map, so an identical late arrival can never re-execute.

        Encodes the result once, for the response tier and the
        dispatching request.  A degraded result is served to the
        waiters that shared the run but never cached: an identical
        later request deserves a clean recomputation.
        """
        encoded = json.dumps(result).encode()
        if not is_degraded(result):
            self.response_cache.put(post.key, encoded)
        ledger = result.get("traffic_cache")
        if isinstance(ledger, dict):
            for tier, prefix in (
                ("traffic-memory", "memory_"),
                ("traffic-disk", "disk_"),
            ):
                self.metrics.record_tier(
                    tier,
                    hits=int(ledger.get(prefix + "hits", 0)),
                    misses=int(ledger.get(prefix + "misses", 0)),
                )
            self.metrics.record_predictor(
                lc_served=int(ledger.get("lc_served", 0)),
                sim_served=int(ledger.get("sim_served", 0)),
                lc_validation_mismatch=int(
                    ledger.get("lc_validation_mismatch", 0)
                ),
            )
        if post.endpoint == "/rank":
            try:
                self._store_ranking(post.parsed.request, result)
            except Exception:
                # The job already succeeded: a warm-tier failure must
                # not turn that into a 500 for every coalesced waiter.
                pass
        return encoded

    def _render(self, post: _Post, answer: _Answer, t0: float) -> Response:
        """Encode the answer and record it.

        A 200 is an envelope built from the result's encoded bytes:
        with default separators a JSON object is the concatenation of
        its members, so the bytes equal ``json.dumps`` of the envelope
        dict.  Members after ``result``: ``trace`` (traced requests;
        ``null`` unless the job ran traced), then the answer's extras
        (``degraded``, ``brownout``).
        """
        stages = post.stages
        body = answer.body
        if answer.served is not None:
            members = [_envelope_head(post.endpoint, answer.served), body]
            if post.parsed.trace:
                if answer.trace is not None:
                    obs.fold_stage_seconds(answer.trace, stages)
                members += (b', "trace": ', json.dumps(answer.trace).encode())
            for name, value in answer.extras:
                members.append(f', "{name}": {json.dumps(value)}'.encode())
            members.append(b"}")
            body = b"".join(members)
        self.metrics.record_stages(stages)
        elapsed = time.perf_counter() - t0
        # Count the request *before* the response leaves, so a client
        # that reads /metrics right after a reply sees it included.
        self.metrics.record_request(post.endpoint, answer.outcome, elapsed)
        if self.slo is not None:
            self.slo.observe(post.endpoint, answer.outcome, elapsed)
        self.flight.record(
            endpoint=post.endpoint,
            outcome=answer.outcome,
            status=answer.status,
            shard=self.config.shard_id,
            latency_ms=round(elapsed * 1e3, 3),
            served=answer.served,
            **post.note,
            stages_ms={
                name: round(seconds * 1e3, 3)
                for name, seconds in stages.items()
            },
        )
        return Response(answer.status, body, answer.headers)

    def _store_ranking(self, request: RankRequest, result: dict) -> None:
        """Warm the database tier with a freshly computed ranking."""
        method, ivp, machine, grid = request.db_key_parts()
        block = request.block
        if block == "auto":
            block = (0,) * len(grid)  # sentinel: per-kernel analytic choice
        elif block is None:
            block = grid
        self.database_tier.put(
            TuningRecord(
                key=TuningKey(method, ivp, machine, grid),
                best_variant=result["best_predicted"]["variant"],
                block=block,
                predicted_s_per_step=result["best_predicted"]["predicted_s"],
                ranking=list(result["ranking"]),
            )
        )
        self._schedule_db_save()

    def _schedule_db_save(self) -> None:
        """Persist the database off the event loop, single-flight.

        ``TuningDatabase.save`` rewrites the whole JSON file; doing
        that synchronously on the loop would stall every connection
        once per fresh ``/rank``.  Instead mark the database dirty and
        keep (at most) one saver task that snapshots on the loop and
        writes on a thread, re-checking the dirty flag so bursts of
        rankings coalesce into few writes.
        """
        if not (self.config.db_path or self.config.db_dir):
            return
        self._db_dirty = True
        if self._db_save_task is None or self._db_save_task.done():
            self._db_save_task = asyncio.get_running_loop().create_task(
                self._flush_database()
            )

    async def _flush_database(self) -> None:
        loop = asyncio.get_running_loop()
        while self._db_dirty:
            self._db_dirty = False
            if self.config.db_dir:
                # Segmented store: persist only this shard's records,
                # into this shard's own segment file (single writer).
                records = self.database.snapshot_for_persist()
                writer = self.database.persist_snapshot
                args = (records,)
            else:
                records = self.database.records()  # snapshot on the loop
                writer = TuningDatabase.write_records
                args = (self.config.db_path, records)
            try:
                await loop.run_in_executor(None, writer, *args)
            except OSError:
                pass  # persistence failure must not fail requests

    async def _flush_database_now(self) -> None:
        """Await any pending persistence (shutdown path)."""
        task = self._db_save_task
        if task is not None and not task.done():
            try:
                await asyncio.wait_for(
                    asyncio.shield(task), self.config.drain_timeout_s
                )
            except asyncio.TimeoutError:
                pass

    # -- work stealing --------------------------------------------------
    async def _steal_loop(self) -> None:
        """Adopt abandoned tune jobs from the shared ledger when idle.

        Every ``steal_interval_s`` an idle shard (no pending dispatcher
        work) scans ``job_dir`` for jobs whose lease is absent, expired
        or held by a dead pid, and runs each through the execute stage
        under its own cost class.  The job body re-claims the lease
        itself (the scan is advisory — a peer may win the race, in
        which case the body polls for the published result instead of
        recomputing).  Adopted runs resume from the dead owner's
        checkpoint, and their results warm this shard's tiers so a
        rerouted client retry is a cache hit.
        """
        from repro.autotune.jobs import JobLedger

        ledger = JobLedger(self.config.job_dir)
        loop = asyncio.get_running_loop()
        while not self.draining:
            await asyncio.sleep(self.config.steal_interval_s)
            if self.draining or self.dispatcher.pending > 0:
                continue
            self.steal_counters["scans"] += 1
            try:
                records = await loop.run_in_executor(None, ledger.adoptable)
            except Exception:
                continue
            for record in records:
                if self.draining or self.dispatcher.pending > 0:
                    break
                key = record.get("key")
                payload = record.get("payload")
                if not isinstance(key, str) or not isinstance(payload, dict):
                    continue
                post = _Post("/tune", key=key, payload=payload)
                post.job_class = classify("/tune", payload)
                try:
                    mode, task = self._dispatch(post)
                except Overloaded:
                    break  # shard got busy mid-scan; client work first
                if mode == "fresh":
                    self.steal_counters["adopted"] += 1
                try:
                    await asyncio.shield(task)
                except Exception:
                    pass  # adoption failure: job stays pending for peers

    def metrics_snapshot(self, histograms: bool = False) -> dict:
        """The ``/metrics`` document (``histograms`` adds the mergeable
        per-endpoint bucket rows; ``slo`` rows appear only when the
        engine is configured)."""
        extra: dict = {}
        if self.slo is not None:
            extra["slo"] = self.slo.metrics_rows()
        # The overload section appears only when one of the overload
        # features is armed, keeping the default document byte-identical
        # (deadline headers alone never change /metrics).
        if self.config.adaptive_limits or self.ladder is not None:
            extra["overload"] = self.dispatcher.overload_snapshot()
            if self.ladder is not None:
                extra["overload"]["brownout"] = self.ladder.snapshot()
        return self.metrics.snapshot(
            histograms=histograms,
            uptime_s=self.uptime_s(),
            shard=self.config.shard_id,
            draining=self.draining,
            queue={
                "depth": self.dispatcher.queue_depth,
                "pending": self.dispatcher.pending,
                "limit": self.config.queue_limit,
            },
            queues=self.dispatcher.queue_snapshot(),
            pool={
                "workers": self.config.workers,
                "executor": self.config.executor,
                "busy": self.dispatcher.busy,
                "utilization": self.dispatcher.utilization,
            },
            response_cache={
                "size": len(self.response_cache),
                "capacity": self.config.response_cache_size,
            },
            database={"records": len(self.database)},
            breakers={
                path: breaker.snapshot()
                for path, breaker in sorted(self.breakers.items())
            },
            steal=dict(self.steal_counters),
            faults={"fired": faults.counters()},
            **extra,
        )


async def serve(config: ServiceConfig, banner: bool = True) -> None:
    """Run a server until SIGTERM/SIGINT, then drain and exit."""
    service = ReproService(config)
    port = await service.start()
    if banner:
        print(
            f"repro-service listening on http://{config.host}:{port} "
            f"(workers={config.workers}/{config.executor}, "
            f"queue_limit={config.queue_limit})",
            flush=True,
        )
    service.drain_on_signals()
    await service.wait_stopped()
    if banner:
        print("repro-service drained, bye", flush=True)
