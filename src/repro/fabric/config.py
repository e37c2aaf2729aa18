"""Configuration of one fabric: router + N shard processes.

A fabric is its topology (shard count, ring vnodes, probe cadence,
restart policy) plus one :class:`~repro.service.config.ServiceConfig`
template, ``shard``, that every shard runs a copy of.  The supervisor
derives shard ``i``'s config from the template with one
:func:`dataclasses.replace`, and the router reads its request-body
limit, drain budget and forward deadline from the same template, so a
server knob lives in ``ServiceConfig`` alone.  The CLI (``python -m
repro serve --shards N``) passes its parsed ``ServiceConfig`` as the
template; tests construct the dataclass directly with ``port=0`` and a
tmp ``fabric_dir``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fabric.ring import DEFAULT_VNODES
from repro.service.config import ServiceConfig

__all__ = ["FabricConfig"]


@dataclass(frozen=True)
class FabricConfig:
    """Topology of one fabric plus its shards' service template.

    Parameters
    ----------
    fabric_dir:
        Shared state directory.  The supervisor creates three
        subdirectories under it: ``db/`` (segmented tuning database,
        :mod:`repro.util.segdb`), ``jobs/`` (tune-job ledger,
        :mod:`repro.autotune.jobs`) and ``ports/`` (one file per shard
        announcing its ephemeral port).
    host, port:
        Router bind address; ``port=0`` picks an ephemeral port.
        Shards always bind ephemeral ports on ``host`` and announce
        them through ``ports/``.
    shards:
        Number of shard server processes.
    vnodes:
        Virtual nodes per shard on the consistent-hash ring.
    probe_interval_s:
        Router health-probe period per shard.  The probe loop sleeps
        one period before its first probe.
    probe_timeout_s:
        Socket timeout of one health probe / forwarded request connect.
    restart_shards:
        Whether the router's probe loop asks the supervisor to restart
        a dead shard (tests that drill adoption disable this so the
        *surviving* shards must finish the dead shard's jobs).
    max_restarts:
        Per-shard restart budget; a shard past it stays down.
    shard_faults:
        Optional per-shard fault plans for chaos drills:
        ``((index, "<REPRO_FAULTS grammar>"), ...)``.  Only the named
        shards are armed — the shard-death drill kills exactly the
        job's owner and leaves the adopters clean.
    shard:
        The service template every shard runs.  Shard ``i`` gets a copy
        with ``host``, an ephemeral port, ``shard_id=i`` and the
        fabric's ``db/`` and ``jobs/`` directories; every other field
        (pool, admission, cost routing, approximate tier, overload and
        SLO knobs) is the template's.  The router also refuses request
        bodies above ``shard.max_body_bytes``, drains for
        ``shard.drain_timeout_s`` and waits for a forwarded answer up
        to the template's longest class deadline plus 5 s.  The
        template must not set ``db_path``: the fabric's database is the
        segmented one under ``fabric_dir``.
    """

    fabric_dir: str
    host: str = "127.0.0.1"
    port: int = 8750
    shards: int = 3
    vnodes: int = DEFAULT_VNODES
    probe_interval_s: float = 1.0
    probe_timeout_s: float = 5.0
    restart_shards: bool = True
    max_restarts: int = 3
    shard_faults: tuple[tuple[int, str], ...] | None = None
    shard: ServiceConfig = ServiceConfig(
        workers=1, executor="thread", drain_timeout_s=10.0
    )

    def __post_init__(self) -> None:
        if not self.fabric_dir:
            raise ValueError("fabric_dir is required")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        if self.probe_interval_s <= 0 or self.probe_timeout_s <= 0:
            raise ValueError("probe intervals must be positive")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.shard.db_path is not None:
            raise ValueError(
                "the shard template must not set db_path: fabric shards "
                "share the segmented database under fabric_dir"
            )
