"""Shard processes and their supervisor.

Each shard is a real OS process running one
:class:`~repro.service.server.ReproService` with a fabric-flavored
config: a ``shard_id``, the shared segmented database directory, the
shared job ledger directory, and an ephemeral port it announces by
atomically writing ``ports/shard-<i>.port`` *after* binding — the
router polls that file, so it can never connect to a half-started
shard.

:class:`FabricSupervisor` owns the process set: it derives every
shard's :class:`~repro.service.config.ServiceConfig` from the
``shard`` template of one :class:`~repro.fabric.config.FabricConfig`
with one ``dataclasses.replace`` (:func:`shard_service_config`), brings
the set up, tears it down (SIGTERM → join → SIGKILL), and restarts
dead shards within a per-shard budget.  A shard answers SIGTERM like
the single server does: it drains, joins both lanes and exits.
Restart is the router's *recovery* path; the job ledger is the
*correctness* path — a killed shard's in-flight tunes are adopted by
survivors whether or not a replacement comes up.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import replace
from pathlib import Path

from repro.fabric.config import FabricConfig
from repro.service.config import ServiceConfig

__all__ = ["FabricSupervisor", "ShardProcess", "shard_service_config"]

#: How the port announcement file for shard ``i`` is named.
def _port_file(ports_dir: Path, index: int) -> Path:
    return ports_dir / f"shard-{index}.port"


def shard_service_config(config: FabricConfig, index: int) -> ServiceConfig:
    """The ServiceConfig shard ``index`` runs under: the fabric's
    template bound to ``host``, an ephemeral port (announced through
    the port file), the shard id and the shared state directories."""
    root = Path(config.fabric_dir)
    return replace(
        config.shard,
        host=config.host,
        port=0,
        shard_id=index,
        db_dir=str(root / "db"),
        job_dir=str(root / "jobs"),
    )


def _shard_main(
    service_config: ServiceConfig, port_file: str, faults_spec: str | None
) -> None:
    """Entry point of one shard process (must stay a picklable
    top-level so a ``spawn`` start method would also work)."""
    import asyncio

    from repro import faults
    from repro.service.server import ReproService

    if faults_spec:
        faults.install(faults_spec)

    async def run() -> None:
        service = ReproService(service_config)
        port = await service.start()
        # Announce the bound port atomically: the router must never
        # read a partially written file.
        tmp = Path(f"{port_file}.tmp.{os.getpid()}")
        tmp.write_text(str(port))
        os.replace(tmp, port_file)
        service.drain_on_signals()
        await service.wait_stopped()

    asyncio.run(run())


class ShardProcess:
    """One shard's OS process + its port announcement."""

    def __init__(
        self,
        index: int,
        service_config: ServiceConfig,
        ports_dir: Path,
        faults_spec: str | None = None,
    ) -> None:
        self.index = index
        self.service_config = service_config
        self.port_file = _port_file(ports_dir, index)
        self.faults_spec = faults_spec
        self.port: int | None = None
        self._process: multiprocessing.Process | None = None

    def start(self) -> None:
        """Fork the shard (stale port announcements are removed first)."""
        try:
            self.port_file.unlink()
        except OSError:
            pass
        ctx = multiprocessing.get_context("fork")
        self._process = ctx.Process(
            target=_shard_main,
            args=(self.service_config, str(self.port_file), self.faults_spec),
            name=f"repro-shard-{self.index}",
            daemon=False,
        )
        self._process.start()

    def wait_port(self, timeout_s: float = 30.0) -> int:
        """Block until the shard announces its bound port."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                text = self.port_file.read_text().strip()
                if text:
                    self.port = int(text)
                    return self.port
            except (OSError, ValueError):
                pass
            if not self.alive:
                raise RuntimeError(
                    f"shard {self.index} died before announcing a port "
                    f"(exitcode={self.exitcode})"
                )
            time.sleep(0.02)
        raise TimeoutError(f"shard {self.index} never announced a port")

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    @property
    def pid(self) -> int | None:
        return self._process.pid if self._process is not None else None

    @property
    def exitcode(self) -> int | None:
        return self._process.exitcode if self._process is not None else None

    def kill(self, sig: int = signal.SIGKILL) -> None:
        """Send ``sig`` (default SIGKILL: the shard-death drill)."""
        if self._process is not None and self._process.pid:
            try:
                os.kill(self._process.pid, sig)
            except OSError:
                pass

    def stop(self, timeout_s: float = 10.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL past the timeout."""
        if self._process is None:
            return
        self.kill(signal.SIGTERM)
        self._process.join(timeout=timeout_s)
        if self._process.is_alive():
            self.kill(signal.SIGKILL)
            self._process.join(timeout=5.0)

    def join(self, timeout_s: float | None = None) -> None:
        if self._process is not None:
            self._process.join(timeout=timeout_s)


class FabricSupervisor:
    """Owns the shard process set of one fabric."""

    def __init__(self, config: FabricConfig) -> None:
        self.config = config
        self.root = Path(config.fabric_dir)
        self.ports_dir = self.root / "ports"
        self.shards: dict[int, ShardProcess] = {}
        self.restarts: dict[int, int] = {}

    def _make_shard(self, index: int) -> ShardProcess:
        faults_by_shard = dict(self.config.shard_faults or ())
        return ShardProcess(
            index,
            shard_service_config(self.config, index),
            self.ports_dir,
            faults_spec=faults_by_shard.get(index),
        )

    def start_all(self, timeout_s: float = 30.0) -> dict[int, int]:
        """Bring every shard up; returns ``{index: port}``."""
        for sub in ("db", "jobs", "ports"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        for index in range(self.config.shards):
            shard = self._make_shard(index)
            shard.start()
            self.shards[index] = shard
        return {
            index: shard.wait_port(timeout_s)
            for index, shard in self.shards.items()
        }

    def restart(self, index: int, timeout_s: float = 30.0) -> int | None:
        """Replace a dead shard; ``None`` once its budget is spent."""
        used = self.restarts.get(index, 0)
        if used >= self.config.max_restarts:
            return None
        self.restarts[index] = used + 1
        old = self.shards.get(index)
        if old is not None and old.alive:
            old.stop(timeout_s=self.config.shard.drain_timeout_s)
        shard = self._make_shard(index)
        shard.start()
        self.shards[index] = shard
        return shard.wait_port(timeout_s)

    def ports(self) -> dict[int, int]:
        """Last known ``{index: port}`` of every started shard."""
        return {
            index: shard.port
            for index, shard in self.shards.items()
            if shard.port is not None
        }

    def stop_all(self, timeout_s: float = 15.0) -> None:
        for shard in self.shards.values():
            shard.kill(signal.SIGTERM)
        deadline = time.monotonic() + timeout_s
        for shard in self.shards.values():
            shard.join(timeout_s=max(0.1, deadline - time.monotonic()))
            if shard.alive:
                shard.kill(signal.SIGKILL)
                shard.join(timeout_s=5.0)
