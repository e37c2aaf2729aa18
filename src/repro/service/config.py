"""Configuration of the tuning/prediction service.

One frozen dataclass carries every knob of the server: network
binding, worker-pool sizing, admission control, cache sizing and the
timeouts that bound a request's life.  It is the one config shape of
every serving process: ``python -m repro serve`` builds one from its
flag table (``repro.cli.SERVE_FLAGS``), and a fabric runs every shard
under a copy of one template (``FabricConfig.shard``).  Tests construct
the dataclass directly with an ephemeral port.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """All tunables of one :class:`~repro.service.server.ReproService`.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (the bound
        port is returned by ``start()``).
    workers:
        Threads of the in-process lane that runs cheap jobs, and slots
        of the pool that runs expensive ones (see
        :mod:`repro.service.cost`).
    executor:
        Kind of pool expensive jobs run on: ``"process"`` (default;
        workers start with the ``spawn`` method, and jobs are picklable
        top-level functions in :mod:`repro.service.jobs`) or
        ``"thread"`` (lets tests substitute closures for job bodies).
    queue_limit:
        Admission control, per cost class: maximum number of in-flight
        *fresh* jobs of one class (running + queued).  Requests beyond
        it are shed with HTTP 429.
    response_cache_size:
        Entries kept in the in-process LRU response cache (tier 1).
    request_timeout_s:
        Per-request deadline of both cost classes; an expired request
        gets HTTP 504 (the underlying job keeps running for coalesced
        waiters).
    drain_timeout_s:
        On SIGTERM/``stop()``, how long to wait for in-flight requests
        before forcing shutdown.
    db_path:
        Optional path of the Offsite :class:`TuningDatabase` used as
        the warm persistent tier for ``/rank`` (loaded if present,
        updated after fresh rankings).
    max_body_bytes:
        Request bodies larger than this are rejected with HTTP 413.
    breaker_threshold:
        Consecutive fresh-job failures on one endpoint before its
        circuit breaker opens.
    breaker_recovery_s:
        How long an open breaker waits before letting one half-open
        probe request through.
    degraded_mode:
        When an endpoint's breaker is open, serve the analytic
        fallback (HTTP 200 with ``"degraded": true``) instead of
        refusing with HTTP 503.
    shard_id:
        Fabric shard identity of this server (``None`` outside a
        fabric).  Surfaced on ``/healthz`` and as the ``shard``
        dimension of ``/metrics`` so a router fan-in can tell shard
        gauges apart instead of letting them shadow each other.
    db_dir:
        Directory of the segmented multi-process tuning database
        (:mod:`repro.util.segdb`).  Mutually exclusive with
        ``db_path``; requires ``shard_id``.
    job_dir:
        Directory of the fabric's tune-job ledger
        (:mod:`repro.autotune.jobs`).  When set, ``/tune`` jobs are
        enqueued as content-addressed resumable units with a lease,
        checkpointed, and publishable/stealable by peer shards.
    lease_ttl_s:
        Seconds a tune-job lease stays unstealable while its owner's
        pid is alive (a dead pid is adoptable immediately).
    steal_interval_s:
        Period of the idle-shard work-stealing scan over ``job_dir``
        (0 disables stealing; rerouted requests still adopt).  Read
        only when ``job_dir`` is set, i.e. on fabric shards.
    adaptive_limits:
        Replace the static per-class admission bound with AIMD
        limiters (:class:`~repro.service.overload.AdaptiveLimiter`):
        grow on healthy latency, shrink multiplicatively when a class's
        windowed p95 breaches its target.  ``queue_limit`` stays as
        the hard ceiling (floor of 1), so the limiter only ever
        tightens admission.  Off by default — with it off admission is
        byte-identical to the static-limit server.
    adaptive_target_ms:
        Latency target of the *cheap* class's limiter (default aligned
        with the shipped 500 ms latency SLO).  The expensive class
        targets half the request deadline — multi-second tune
        sweeps must not be judged by a prediction-latency bar.
    brownout:
        Arm the SLO-driven brownout ladder
        (:class:`~repro.service.overload.BrownoutLadder`): sustained
        page-severity burn alerts degrade service in stages (serve
        /predict analytically → shed tune/rank → full shed) with
        staged recovery.  Requires ``slo_enabled`` (the ladder is fed
        by the engine's alerts).  Off by default with byte-identical
        responses.
    brownout_escalate_s:
        Seconds a page alert must burn before each downward step.
    brownout_recover_s:
        Calm seconds before each upward (recovery) step.
    slo_enabled:
        Construct the SLO engine: declarative objectives evaluated by
        multi-window burn-rate alerting, surfaced on ``/slo``, as
        ``alerts`` in ``/healthz`` and as ``slo`` rows in ``/metrics``.
        Off by default — without it those surfaces are byte-identical
        to the pre-SLO server.
    slo_config:
        Objectives source when ``slo_enabled``: ``None`` → shipped
        defaults, a path → JSON file, inline JSON text → parsed
        directly (see :func:`repro.telemetry.load_slo_config`).
    flight_recorder:
        Capacity of the per-request flight-recorder ring dumped by
        ``/debug/requests`` (0 disables recording; the endpoint then
        reports an empty ring).
    """

    host: str = "127.0.0.1"
    port: int = 8753
    workers: int = 2
    executor: str = "process"
    queue_limit: int = 64
    response_cache_size: int = 1024
    request_timeout_s: float = 120.0
    drain_timeout_s: float = 30.0
    db_path: str | None = None
    max_body_bytes: int = 1 << 20
    breaker_threshold: int = 5
    breaker_recovery_s: float = 30.0
    degraded_mode: bool = True
    shard_id: int | None = None
    db_dir: str | None = None
    job_dir: str | None = None
    lease_ttl_s: float = 60.0
    steal_interval_s: float = 0.5
    adaptive_limits: bool = False
    adaptive_target_ms: float = 500.0
    brownout: bool = False
    brownout_escalate_s: float = 2.0
    brownout_recover_s: float = 5.0
    slo_enabled: bool = False
    slo_config: str | None = None
    flight_recorder: int = 256

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.executor not in ("process", "thread"):
            raise ValueError(
                f"executor must be 'process' or 'thread', got {self.executor!r}"
            )
        if self.queue_limit <= 0:
            raise ValueError("queue_limit must be positive")
        if self.response_cache_size < 0:
            raise ValueError("response_cache_size must be >= 0")
        if self.request_timeout_s <= 0 or self.drain_timeout_s < 0:
            raise ValueError("timeouts must be positive")
        if self.breaker_threshold <= 0:
            raise ValueError("breaker_threshold must be positive")
        if self.breaker_recovery_s < 0:
            raise ValueError("breaker_recovery_s must be >= 0")
        if self.db_dir is not None and self.db_path is not None:
            raise ValueError("db_dir and db_path are mutually exclusive")
        if self.db_dir is not None and self.shard_id is None:
            raise ValueError("db_dir (segmented database) requires shard_id")
        if self.lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        if self.steal_interval_s < 0:
            raise ValueError("steal_interval_s must be >= 0")
        if self.adaptive_target_ms <= 0:
            raise ValueError("adaptive_target_ms must be positive")
        if self.brownout_escalate_s <= 0 or self.brownout_recover_s <= 0:
            raise ValueError("brownout hold times must be positive")
        if self.brownout and not self.slo_enabled:
            raise ValueError(
                "brownout requires slo_enabled (the ladder is fed by"
                " the SLO engine's burn alerts)"
            )
        if self.slo_config is not None and not self.slo_enabled:
            raise ValueError("slo_config requires slo_enabled")
        if self.flight_recorder < 0:
            raise ValueError("flight_recorder must be >= 0")

    def class_adaptive_target_s(self, job_class: str) -> float:
        """Latency target of one class's adaptive limiter.

        Cheap work answers to the interactive target
        (``adaptive_target_ms``); expensive work is healthy as long as
        it clears well inside its deadline, so it targets half of
        ``request_timeout_s`` (never tighter than the cheap target).
        """
        cheap_target = self.adaptive_target_ms / 1e3
        if job_class == "expensive":
            return max(cheap_target, self.request_timeout_s / 2.0)
        return cheap_target
