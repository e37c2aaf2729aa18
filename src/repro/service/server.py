"""The tuning/prediction server: asyncio + stdlib HTTP/1.1, no deps.

Layering of one POST request (``/predict``, ``/tune``, ``/rank``)::

    parse + normalize                 (400 on bad payload)
      └─ tier 1: LRU response cache  (identical request already solved)
          └─ tier 3: tuning database (/rank, validate=false: the warm
             Offsite store — rankings computed once, then looked up)
              └─ coalesce            (identical request in flight joins it)
                  └─ admit + batch   (429 when the bounded queue is full)
                      └─ worker pool (jobs; tier 2 traffic memo inside)

``GET /healthz`` and ``GET /metrics`` are served inline.  Connections
are persistent HTTP/1.1 (:mod:`repro.service.http1`): a client sends
request after request on one socket until it says ``Connection:
close``, goes idle past the read deadline, or the server drains.
SIGTERM (or ``stop()``) drains gracefully: the listener and every idle
connection close, in-flight requests finish within ``drain_timeout_s``
(answered ``Connection: close``), then the pool shuts down.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from urllib.parse import parse_qs

from repro import faults, obs
from repro.offsite.database import TuningDatabase, TuningKey, TuningRecord
from repro.service.batching import (
    CoalescingDispatcher,
    DeadlineSwept,
    Overloaded,
)
from repro.service.breaker import CircuitBreaker
from repro.service.config import ServiceConfig
from repro.service.cost import classify
from repro.service.http1 import Http1Server, Request, Response, json_response
from repro.service.overload import BrownoutLadder, deadline_from_headers
from repro.service.jobs import (
    DEGRADED_JOBS,
    JOBS,
    JobError,
    rank_db_key_parts,
    request_key,
    run_traced_job,
)
from repro.service.metrics import ServiceMetrics
from repro.service.serializers import tuning_record_to_dict
from repro.store import DatabaseTier, LruTier, NearMatchTier
from repro.telemetry import (
    FlightRecorder,
    SloEngine,
    load_slo_config,
    render_prometheus,
)
from repro.telemetry.prom import CONTENT_TYPE as _PROM_CONTENT_TYPE

__all__ = ["ReproService", "serve"]


def _first(params: dict, name: str) -> str | None:
    """First value of one query parameter (``None`` when absent)."""
    values = params.get(name)
    return values[0] if values else None


def _flag(params: dict, name: str) -> bool:
    """Boolean query parameter: present and not ``0``/``false``."""
    value = _first(params, name)
    return value is not None and value.lower() not in ("0", "false")


#: The response cache is a plain :class:`~repro.store.tier.LruTier`
#: from the unified store substrate; the alias keeps the historical
#: name importable.
_LruCache = LruTier


class ReproService(Http1Server):
    """One server instance; ``start()`` binds, ``stop()`` drains."""

    server_name = "repro-service"

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        super().__init__(self.config.max_body_bytes)
        self.metrics = ServiceMetrics(self.config.latency_reservoir)
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
        self.approx_tier: NearMatchTier | None = None
        if self.config.approx_enabled:
            self.approx_tier = NearMatchTier(
                "approx", capacity=self.config.approx_capacity
            )
            self.metrics.attach_tier("approx", self.approx_tier)
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

        With ``drain`` the whole stop, pool join included, gets
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
    async def respond(self, request: Request) -> Response:
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
            return await self._handle_job(
                path, request.body, request.headers
            )
        return json_response(404, {"error": f"no route {path}"})

    def _flight_document(self, params: dict) -> dict:
        """The ``/debug/requests`` document (filters from the query)."""
        try:
            n = int(_first(params, "n") or 50)
        except ValueError:
            raise ValueError('"n" must be an integer') from None
        min_ms = _first(params, "min_ms")
        if min_ms is not None:
            try:
                min_ms = float(min_ms)
            except ValueError:
                raise ValueError('"min_ms" must be a number') from None
        return {
            **self.flight.snapshot(),
            "shard": self.config.shard_id,
            "requests": self.flight.tail(
                n=max(0, n),
                endpoint=_first(params, "endpoint"),
                outcome=_first(params, "outcome"),
                min_latency_ms=min_ms,
            ),
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

    # -- the tiered job path --------------------------------------------
    async def _handle_job(
        self,
        endpoint: str,
        body: bytes,
        req_headers: dict[str, str] | None = None,
    ) -> Response:
        t0 = time.perf_counter()
        stages: dict[str, float] = {}
        note: dict = {}
        deadline_epoch = deadline_from_headers(req_headers)
        if self.ladder is not None:
            self.ladder.evaluate()
        outcome, status, response, headers = await self._process_job(
            endpoint, body, stages, note, deadline_epoch
        )
        elapsed = time.perf_counter() - t0
        # Count the request *before* the response leaves, so a client
        # that reads /metrics right after a reply sees it included.
        self.metrics.record_request(endpoint, outcome, elapsed)
        if self.slo is not None:
            self.slo.observe(endpoint, outcome, elapsed)
        self.flight.record(
            endpoint=endpoint,
            outcome=outcome,
            status=status,
            shard=self.config.shard_id,
            latency_ms=round(elapsed * 1e3, 3),
            served=response.get("served"),
            **note,
            stages_ms={
                name: round(seconds * 1e3, 3)
                for name, seconds in stages.items()
            },
        )
        return json_response(status, response, headers)

    async def _process_job(
        self,
        endpoint: str,
        body: bytes,
        stages: dict[str, float] | None = None,
        note: dict | None = None,
        deadline_epoch: float | None = None,
    ) -> tuple[str, int, dict, dict[str, str] | None]:
        """Resolve one POST through the cache tiers and the pool.

        Returns ``(outcome, http_status, response, extra_headers)``.
        Stage wall times (normalize/cache/execute, plus span aggregates
        for traced requests) are folded into ``/metrics`` on every exit
        path with one batched call; ``note`` collects flight-recorder
        attribution (queue class) along the way.
        """
        if stages is None:
            stages = {}
        try:
            return await self._process_job_stages(
                endpoint, body, stages,
                note if note is not None else {}, deadline_epoch,
            )
        finally:
            self.metrics.record_stages(stages)

    async def _process_job_stages(
        self,
        endpoint: str,
        body: bytes,
        stages: dict[str, float],
        note: dict,
        deadline_epoch: float | None = None,
    ) -> tuple[str, int, dict, dict[str, str] | None]:
        normalizer, job = JOBS[endpoint]
        t_stage = time.perf_counter()
        try:
            payload = json.loads(body.decode() or "{}")
            if not isinstance(payload, dict):
                raise JobError("payload must be a JSON object")
            # The trace flag rides outside the normalized payload:
            # traced and untraced requests share one cache/coalescing
            # identity, so tracing can never fork the response space.
            # The predictor hint works the same way — validated during
            # normalization but excluded from the canonical payload.
            # That sharing is sound only because normalization rejects
            # predictor="lc" for /tune (see TuneRequest): the admitted
            # modes ("auto"/"simulate") produce bit-identical reports,
            # so a response computed under one serves them all.
            want_trace = bool(payload.get("trace"))
            requested_predictor = payload.get("predictor")
            # "exact": true opts this request out of the near-match
            # approximate tier.  Like trace/predictor it is
            # execution-only: exact and approximable requests share one
            # cache/coalescing identity (both are satisfied by the
            # exact answer; only the serving path differs).
            want_exact = payload.get("exact", False)
            if not isinstance(want_exact, bool):
                raise JobError('"exact" must be a boolean')
            normalized = normalizer(payload)
        except (ValueError, JobError) as exc:
            return "failed", 400, {"error": str(exc)}, None
        finally:
            stages["normalize"] = time.perf_counter() - t_stage
        key = request_key(endpoint, normalized)

        def envelope(
            served: str, result: dict, trace: dict | None = None
        ) -> dict:
            env = {"endpoint": endpoint, "served": served, "result": result}
            if want_trace:
                env["trace"] = trace
            return env

        async def degraded() -> tuple[str, int, dict, None]:
            # The one analytic fallback (brownout stage 2 and an open
            # breaker): ECM-only on the loop's thread executor, so the
            # pool is never touched; marked degraded, never cached.
            t_stage = time.perf_counter()
            try:
                result = await asyncio.get_running_loop().run_in_executor(
                    None, DEGRADED_JOBS[endpoint], normalized
                )
            except Exception as exc:
                return (
                    "failed",
                    500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                    None,
                )
            finally:
                stages["execute"] = time.perf_counter() - t_stage
            env = envelope("degraded", result)
            env["degraded"] = True
            return "degraded", 200, env, None

        t_stage = time.perf_counter()
        # Tier 1: in-process response LRU (its own ledger is attached
        # to /metrics — no per-request bookkeeping here).
        cached = self.response_cache.get(key)
        if cached is not None:
            stages["cache"] = time.perf_counter() - t_stage
            return "cache", 200, envelope("response-cache", cached), None

        # Tier 3: the warm Offsite tuning database (/rank lookups;
        # validated rankings always recompute measurements).
        if endpoint == "/rank" and not normalized["validate"]:
            method, ivp, machine, grid = rank_db_key_parts(normalized)
            record = self.database_tier.get(
                TuningKey(method, ivp, machine, grid)
            )
            if record is not None:
                stages["cache"] = time.perf_counter() - t_stage
                return (
                    "database",
                    200,
                    envelope("database", tuning_record_to_dict(record)),
                    None,
                )

        # Near-match approximate tier: an interpolated answer from
        # stored exact observations of the same request family with a
        # nearby grid.  Never consulted when the client sent
        # ``"exact": true``; declines (falls through to exact work)
        # below the configured confidence.  The answer is served but
        # NEVER written into any exact tier.
        brownout_stage = 0 if self.ladder is None else self.ladder.stage
        if self.approx_tier is not None and not want_exact:
            # Brownout stage 1+ widens acceptance: a lower-confidence
            # interpolation beats queueing on a saturated pool.  The
            # bar only ever *loosens* — a brownout confidence above the
            # configured one is clamped.
            min_confidence = self.config.approx_confidence
            if brownout_stage >= 1:
                min_confidence = min(
                    min_confidence, self.config.brownout_approx_confidence
                )
            served = self.approx_tier.lookup(
                endpoint, normalized, min_confidence
            )
            if served is not None:
                result, confidence = served
                stages["cache"] = time.perf_counter() - t_stage
                env = envelope("approximate", result)
                env["approximate"] = True
                env["confidence"] = confidence
                return "approximate", 200, env, None
        stages["cache"] = time.perf_counter() - t_stage

        # Brownout shedding and analytic serving: the ladder degrades
        # *after* the cache tiers (a warm hit costs microseconds and
        # stays exact) but before any pool work.  Heavy endpoints shed
        # first (stage 3); /predict switches to the analytic fallback
        # at stage 2 and is only refused at full shed (stage 4).
        if brownout_stage >= (3 if endpoint in ("/tune", "/rank") else 4):
            retry_after = max(
                1, int(self.config.brownout_recover_s + 0.999)
            )
            note["brownout"] = self.ladder.state
            return (
                "shed",
                503,
                {
                    "error": "brownout",
                    "stage": self.ladder.state,
                    "endpoint": endpoint,
                },
                {"Retry-After": str(retry_after)},
            )
        if brownout_stage >= 2 and endpoint == "/predict":
            outcome = await degraded()
            if outcome[0] == "degraded":
                note["brownout"] = self.ladder.state
                outcome[2]["brownout"] = self.ladder.state
            return outcome

        # Circuit breaker: a backend that keeps failing fresh jobs is
        # taken out of rotation.  With degraded_mode the request is
        # answered analytically on the loop's thread executor (the
        # suspect pool is never touched) and marked degraded — the
        # response is NOT cached, so a recovered backend serves real
        # answers again immediately.  Without degraded_mode the
        # request is refused with 503 + Retry-After.
        breaker = self.breakers[endpoint]
        if not breaker.allow():
            if not self.config.degraded_mode:
                retry_after = max(1, int(breaker.retry_after_s() + 0.999))
                return (
                    "shed",
                    503,
                    {
                        "error": "circuit open",
                        "endpoint": endpoint,
                        "breaker": breaker.snapshot(),
                    },
                    {"Retry-After": str(retry_after)},
                )
            return await degraded()

        # Cost-aware admission: price the job analytically and route it
        # to its queue class.  With routing off everything is "cheap"
        # under the legacy queue_limit/request_timeout_s, so behavior
        # is identical to the single-queue server.
        job_class = "cheap"
        if self.config.cost_routing:
            job_class, _est = classify(
                endpoint, normalized, self.config.cost_threshold_s
            )
        note["queue_class"] = job_class
        timeout_s = self.config.class_timeout_s(job_class)

        # Deadline admission: a request whose remaining budget cannot
        # plausibly cover this class's observed p95 is refused *now*
        # with a fast 429 instead of queueing work its caller will
        # have abandoned by completion.  Needs the class (for the p95),
        # so it runs after classify; the breaker probe this request may
        # hold is handed back — no fresh work ran.
        if deadline_epoch is not None:
            remaining_s = deadline_epoch - time.time()
            observed_p95 = self.dispatcher.observed_p95_s(job_class)
            if remaining_s <= 0 or (
                observed_p95 is not None and remaining_s < observed_p95
            ):
                breaker.release_probe()
                note["deadline_remaining_ms"] = round(remaining_s * 1e3, 3)
                retry_after = max(
                    1,
                    int((observed_p95 or 0.0) - max(0.0, remaining_s) + 0.999),
                )
                return (
                    "shed",
                    429,
                    {
                        "error": "deadline too tight",
                        "remaining_ms": round(remaining_s * 1e3, 3),
                        "observed_p95_ms": (
                            round(observed_p95 * 1e3, 3)
                            if observed_p95 is not None
                            else None
                        ),
                        "queue_class": job_class,
                    },
                    {"Retry-After": str(retry_after)},
                )

        # The job payload may carry execution-only hints the request
        # identity must exclude: /tune gets the per-request deadline so
        # the tuner inside the worker stops starting variants the
        # server would time out on anyway.  Injected AFTER ``key`` is
        # computed, so caching/coalescing identity is unchanged.
        job_payload = normalized
        if endpoint == "/tune":
            job_payload = dict(normalized)
            job_payload["deadline"] = time.time() + timeout_s
            if deadline_epoch is not None:
                # The caller's propagated budget tightens the tuner's
                # own deadline: sweeps checkpoint-and-yield instead of
                # burning a dead caller's budget.
                job_payload["deadline"] = min(
                    job_payload["deadline"], deadline_epoch
                )
            if requested_predictor is not None:
                job_payload["predictor"] = requested_predictor
            if self.config.job_dir:
                # Fabric mode: run the tune through the shared job
                # ledger (enqueue + lease + checkpoint + publish) so a
                # peer shard can adopt it if this process dies.  These
                # keys are execution-only like the deadline above — a
                # remote client can never plant them, normalization
                # strips unknown keys before ``key`` is computed.
                job_payload["job_dir"] = self.config.job_dir
                job_payload["job_key"] = key
                job_payload["lease_ttl_s"] = self.config.lease_ttl_s

        # Coalesce + admit + batch onto the pool.  The completion hook
        # fills the caches before the in-flight key is released, so
        # identical late arrivals can never re-execute.
        def on_result(result: dict) -> None:
            # Degraded results (partial searches after exhausted retries,
            # skipped jobs, or a failed validation run) are served to the
            # waiters that shared the in-flight run but never pinned in
            # the response cache: an identical later request deserves a
            # clean recomputation, not somebody else's degraded answer.
            recovery = result.get("recovery")
            degraded = bool(result.get("degraded")) or (
                isinstance(recovery, dict) and recovery.get("degraded")
            )
            if not degraded:
                self.response_cache.put(key, result)
                # Exact, non-degraded results become interpolation
                # support for the near-match tier.  Approximate answers
                # never reach this hook (they are served before
                # dispatch), so the support set stays exact-only.
                if self.approx_tier is not None:
                    try:
                        self.approx_tier.observe(endpoint, normalized, result)
                    except Exception:
                        pass  # advisory tier: never fail the request
            ledger = result.get("traffic_cache")
            if isinstance(ledger, dict):
                self.metrics.record_tier(
                    "traffic",
                    hits=int(ledger.get("hits", 0)),
                    misses=int(ledger.get("misses", 0)),
                )
                # Per-store-tier split of the same lookups (memory LRU
                # over the optional disk tier inside the workers).
                self.metrics.record_tier(
                    "traffic-memory",
                    hits=int(ledger.get("memory_hits", 0)),
                    misses=int(ledger.get("memory_misses", 0)),
                )
                self.metrics.record_tier(
                    "traffic-disk",
                    hits=int(ledger.get("disk_hits", 0)),
                    misses=int(ledger.get("disk_misses", 0)),
                )
                self.metrics.record_predictor(
                    lc_served=int(ledger.get("lc_served", 0)),
                    sim_served=int(ledger.get("sim_served", 0)),
                    lc_validation_mismatch=int(
                        ledger.get("lc_validation_mismatch", 0)
                    ),
                )
            if endpoint == "/rank":
                try:
                    self._store_ranking(normalized, result)
                except Exception:
                    # Warm-tier bookkeeping runs after the job already
                    # succeeded; any failure here (unexpected result
                    # shape, persistence error) must not turn that
                    # success into a 500 for every coalesced waiter.
                    pass

        if want_trace:
            # The traced wrapper runs the job under an obs trace inside
            # the worker and returns {"result", "trace"}.  It dispatches
            # under a derived key so a traced run never hands its
            # envelope to untraced coalesced waiters; on_result unwraps
            # before filling the caches, keeping cached bytes identical
            # to untraced responses.
            dispatch_key = key + "#trace"
            dispatch_job = functools.partial(run_traced_job, endpoint)

            def on_wrapped(wrapped: dict) -> None:
                on_result(wrapped["result"])

            dispatch_hook = on_wrapped
        else:
            dispatch_key, dispatch_job, dispatch_hook = key, job, on_result

        t_stage = time.perf_counter()
        try:
            mode, task = self.dispatcher.dispatch(
                dispatch_key, dispatch_job, job_payload,
                on_result=dispatch_hook, job_class=job_class,
                deadline_epoch=deadline_epoch,
            )
        except Overloaded as exc:
            breaker.release_probe()
            stages["execute"] = time.perf_counter() - t_stage
            return (
                "shed",
                429,
                {"error": "overloaded", "detail": str(exc)},
                {"Retry-After": "1"},
            )
        # Only the request that actually dispatched fresh work reports
        # to the breaker — coalesced waiters would multiply one backend
        # failure into N breaker strikes.  A granted half-open probe
        # that didn't run fresh work is handed back instead.
        if mode != "fresh":
            breaker.release_probe()
        # The propagated deadline tightens (never widens) the wait: a
        # caller that gives up sooner than the class timeout gets its
        # 504 at the moment its budget dies.
        effective_timeout = timeout_s
        if deadline_epoch is not None:
            effective_timeout = min(
                timeout_s, max(0.0, deadline_epoch - time.time())
            )
        try:
            result = await asyncio.wait_for(
                asyncio.shield(task), effective_timeout
            )
        except DeadlineSwept:
            # The queue sweeper dropped the job before execution: the
            # caller's deadline died while waiting.  The backend never
            # ran, so this is not a breaker strike; a granted half-open
            # probe is handed back.
            breaker.release_probe()
            return (
                "shed",
                504,
                {"error": "deadline expired in queue"},
                None,
            )
        except asyncio.TimeoutError:
            if effective_timeout < timeout_s:
                # Deadline-driven, not a slow backend: the job may well
                # finish for its coalesced waiters — no breaker strike,
                # and any held probe is handed back.
                breaker.release_probe()
                return (
                    "failed",
                    504,
                    {"error": "deadline exceeded"},
                    None,
                )
            if mode == "fresh":
                breaker.record_failure()
            return (
                "failed",
                504,
                {
                    "error": "timeout",
                    "timeout_s": timeout_s,
                },
                None,
            )
        except Exception as exc:  # job blew up in the worker
            if mode == "fresh":
                breaker.record_failure()
            return (
                "failed",
                500,
                {"error": f"{type(exc).__name__}: {exc}"},
                None,
            )
        finally:
            stages["execute"] = time.perf_counter() - t_stage
        if mode == "fresh":
            breaker.record_success()
        if want_trace:
            trace = result["trace"]
            obs.fold_stage_seconds(trace, stages)
            return mode, 200, envelope(mode, result["result"], trace), None
        return mode, 200, envelope(mode, result), None

    def _store_ranking(self, normalized: dict, result: dict) -> None:
        """Warm the database tier with a freshly computed ranking."""
        method, ivp, machine, grid = rank_db_key_parts(normalized)
        block = normalized["block"]
        if isinstance(block, list):
            block = tuple(block)
        elif block == "auto":
            block = (0,) * len(grid)  # sentinel: per-kernel analytic choice
        else:
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
        or held by a dead pid, and runs them through the normal
        dispatcher path.  The job body re-claims the lease itself (the
        scan is advisory — a peer may win the race, in which case the
        body polls for the published result instead of recomputing).
        Adopted runs resume from the dead owner's checkpoint, and their
        results warm this shard's response cache so a rerouted client
        retry is a cache hit.
        """
        from repro.autotune.jobs import JobLedger

        ledger = JobLedger(self.config.job_dir)
        job = JOBS["/tune"][1]
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
                job_payload = dict(payload)
                job_payload["deadline"] = (
                    time.time() + self.config.request_timeout_s
                )
                job_payload["job_dir"] = self.config.job_dir
                job_payload["job_key"] = key
                job_payload["lease_ttl_s"] = self.config.lease_ttl_s

                def on_adopted(result: dict, key: str = key) -> None:
                    recovery = result.get("recovery")
                    degraded = bool(result.get("degraded")) or (
                        isinstance(recovery, dict)
                        and recovery.get("degraded")
                    )
                    if not degraded:
                        self.response_cache.put(key, result)

                try:
                    mode, task = self.dispatcher.dispatch(
                        key, job, job_payload, on_result=on_adopted
                    )
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
            approx={
                "enabled": self.config.approx_enabled,
                "min_confidence": self.config.approx_confidence,
            },
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
