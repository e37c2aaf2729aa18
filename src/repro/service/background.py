"""Run a service in a background thread (tests, benchmarks, smoke).

The server's asyncio loop lives in a daemon thread; the caller gets a
bound :class:`~repro.service.client.ServiceClient` and a handle to the
live :class:`ReproService` (for metrics assertions).  Use as a context
manager::

    with BackgroundServer(ServiceConfig(port=0, executor="thread")) as bg:
        bg.client.predict(stencil="3d7pt")

:class:`ServerThread` is the loop thread itself; it hosts any
:class:`~repro.service.http1.Http1Server`, and
:class:`~repro.fabric.background.BackgroundFabric` runs its router in
one too.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import Future
from typing import Callable

from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.http1 import Http1Server
from repro.service.server import ReproService

__all__ = ["BackgroundServer", "ServerThread"]


class ServerThread:
    """One :class:`Http1Server` on its own daemon event-loop thread.

    ``make_server`` runs on the loop thread; the server it returns is
    started there and served until :meth:`stop` requests its drain.
    """

    def __init__(
        self, make_server: Callable[[], Http1Server], name: str
    ) -> None:
        self.make_server = make_server
        self.name = name
        self.server: Http1Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._stopped: Future | None = None

    def start(self, timeout_s: float) -> int:
        """Start the loop thread; returns the bound port."""
        started: Future = Future()
        self._stopped = Future()

        async def run() -> None:
            server = self.server = self.make_server()
            try:
                started.set_result(await server.start())
            except BaseException as exc:  # bind failures etc.
                started.set_exception(exc)
                return
            await server.wait_stopped()

        def runner() -> None:
            loop = self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(run())
                self._stopped.set_result(None)
            except BaseException as exc:
                if not self._stopped.done():
                    self._stopped.set_exception(exc)
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=runner, name=self.name, daemon=True
        )
        self._thread.start()
        return started.result(timeout=timeout_s)

    def stop(self, timeout_s: float) -> None:
        """Request a drain and join the loop thread."""
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_drain)
            except RuntimeError:
                pass  # loop already closed
        if self._stopped is not None:
            self._stopped.result(timeout=timeout_s)
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)


class BackgroundServer:
    """A :class:`ReproService` hosted on its own event-loop thread."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig(port=0, executor="thread")
        self.port: int | None = None
        self._thread = ServerThread(
            lambda: ReproService(self.config), "repro-service-bg"
        )

    @property
    def service(self) -> ReproService | None:
        """The live server (``None`` before :meth:`start`)."""
        return self._thread.server

    # -- lifecycle ------------------------------------------------------
    def start(self, timeout_s: float = 30.0) -> "BackgroundServer":
        """Start the loop thread; blocks until the port is bound."""
        self.port = self._thread.start(timeout_s)
        return self

    def stop(self, timeout_s: float = 30.0) -> None:
        """Request a drain and join the loop thread."""
        self._thread.stop(timeout_s)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- conveniences ---------------------------------------------------
    @property
    def client(self) -> ServiceClient:
        """A client bound to the live server."""
        assert self.port is not None, "server not started"
        return ServiceClient(host=self.config.host, port=self.port)

    def metrics_snapshot(self) -> dict:
        """In-process metrics readout (no HTTP round trip)."""
        assert self.service is not None
        return self.service.metrics_snapshot()
