"""Host a whole fabric in-process (tests, benchmarks, smoke runs).

The shards are *real* OS processes (they must be, for the SIGKILL
drill and for genuine multi-process database/ledger semantics); only
the router's asyncio loop runs in the calling process, on the same
:class:`~repro.service.background.ServerThread` that hosts a
:class:`~repro.service.background.BackgroundServer`.  Use as a context
manager::

    config = FabricConfig(fabric_dir=str(tmp), port=0, shards=3)
    with BackgroundFabric(config) as fabric:
        fabric.client.predict(stencil="3d7pt")
        fabric.kill_shard(1)          # the drill

Every shard runs a copy of ``config.shard``; pass
``FabricConfig(..., shard=ServiceConfig(...))`` to change the shards'
service knobs.
"""

from __future__ import annotations

import signal

from repro.fabric.config import FabricConfig
from repro.fabric.proc import FabricSupervisor
from repro.fabric.router import FabricRouter
from repro.service.background import ServerThread
from repro.service.client import ServiceClient

__all__ = ["BackgroundFabric"]


class BackgroundFabric:
    """Shard processes + a thread-hosted router, torn down together."""

    def __init__(self, config: FabricConfig) -> None:
        self.config = config
        self.supervisor = FabricSupervisor(config)
        self.port: int | None = None
        self._thread = ServerThread(
            lambda: FabricRouter(
                config, self.supervisor.ports(), supervisor=self.supervisor
            ),
            "repro-fabric-router",
        )

    @property
    def router(self) -> FabricRouter | None:
        """The live router (``None`` before :meth:`start`)."""
        return self._thread.server

    # -- lifecycle ------------------------------------------------------
    def start(self, timeout_s: float = 60.0) -> "BackgroundFabric":
        """Start shards, then the router; blocks until routable."""
        self.supervisor.start_all(timeout_s=timeout_s)
        try:
            self.port = self._thread.start(timeout_s)
        except BaseException:
            self.supervisor.stop_all()
            raise
        return self

    def stop(self, timeout_s: float = 60.0) -> None:
        """Drain the router, join its thread, then stop every shard
        (also when the router's stop fails)."""
        try:
            self._thread.stop(timeout_s)
        finally:
            self.supervisor.stop_all()

    def __enter__(self) -> "BackgroundFabric":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- conveniences ---------------------------------------------------
    @property
    def client(self) -> ServiceClient:
        """A client bound to the router."""
        assert self.port is not None, "fabric not started"
        return ServiceClient(host=self.config.host, port=self.port)

    def shard_client(self, index: int) -> ServiceClient:
        """A client bound directly to one shard (bypasses the router)."""
        port = self.supervisor.ports()[index]
        return ServiceClient(host=self.config.host, port=port)

    def kill_shard(self, index: int, sig: int = signal.SIGKILL) -> int:
        """Send ``sig`` to shard ``index``; returns the signalled pid."""
        shard = self.supervisor.shards[index]
        pid = shard.pid
        shard.kill(sig)
        shard.join(timeout_s=10.0)
        return pid if pid is not None else -1
