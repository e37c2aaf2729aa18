"""Multi-level cache hierarchy with per-boundary traffic accounting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cachesim.fastlru import VectorCache, replay_batch
from repro.machine.machine import Machine


@dataclass
class TrafficReport:
    """Line traffic observed at every hierarchy boundary.

    ``loads[i]`` / ``writebacks[i]`` count lines crossing boundary *i*,
    where boundary 0 sits between L1 and L2 and the last boundary sits
    between the last cache level and memory.  ``lups`` is filled in by
    the driver so per-update byte volumes can be derived.
    """

    level_names: tuple[str, ...]
    line_bytes: int
    loads: list[int]
    writebacks: list[int]
    accesses: int = 0
    lups: int = 0

    @property
    def boundaries(self) -> tuple[str, ...]:
        """Boundary labels, e.g. ``("L1-L2", "L2-L3", "L3-Mem")``."""
        names = list(self.level_names) + ["Mem"]
        return tuple(f"{a}-{b}" for a, b in zip(names, names[1:]))

    def total_lines(self, boundary: int) -> int:
        """Lines moved in both directions across one boundary."""
        return self.loads[boundary] + self.writebacks[boundary]

    def bytes_per_lup(self, boundary: int) -> float:
        """Bytes per lattice update across one boundary."""
        if self.lups <= 0:
            raise ValueError("lups not set on this report")
        return self.total_lines(boundary) * self.line_bytes / self.lups

    def memory_bytes(self) -> int:
        """Total bytes exchanged with main memory."""
        return self.total_lines(len(self.loads) - 1) * self.line_bytes

    def as_dict(self) -> dict[str, float]:
        """Flat summary used by experiment tables."""
        out: dict[str, float] = {"accesses": self.accesses, "lups": self.lups}
        for i, name in enumerate(self.boundaries):
            out[f"{name} lines"] = self.total_lines(i)
            if self.lups:
                out[f"{name} B/LUP"] = round(self.bytes_per_lup(i), 3)
        return out


class CacheHierarchy:
    """Single-core view of a machine's cache hierarchy.

    Non-victim levels fill on miss at every level the request passed
    through (a standard inclusive-ish model).  A ``victim=True`` last
    level (AMD Rome's L3) is exclusive: it is filled only by evictions
    from the level above, and hits move the line out of it.

    Every batch replays through :func:`repro.cachesim.fastlru.replay_batch`,
    which replays every level with one stack-distance kernel over
    :class:`VectorCache` state.  The per-access reference it is tested
    against (bit-identical counters and LRU state) lives in
    :mod:`repro.cachesim.lru`.
    """

    #: Per-level state; the per-access reference swaps in its own.
    level_type = VectorCache

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        if any(c.victim for c in machine.caches[:-1]):
            raise ValueError("only the last level may be a victim cache")
        if len(machine.caches) == 1 and machine.caches[0].victim:
            raise ValueError(
                f"{machine.name}: the only cache level is a victim cache, "
                f"which fills only from evictions of a level above it and "
                f"so can never hold a line"
            )
        self.levels = [self.level_type(c) for c in machine.caches]
        n = len(self.levels)
        self.loads = [0] * n
        self.writebacks = [0] * n
        self.accesses = 0
        self._victim_last = machine.caches[-1].victim if n > 0 else False
        self._clock = 1  # global position counter of the batched engine

    # ------------------------------------------------------------------
    def access(self, line: int, write: bool) -> None:
        """One load or store (write-allocate) of a cache line."""
        self.access_many(
            np.array([line], dtype=np.int64), np.array([write], dtype=bool)
        )

    def access_many(self, lines: np.ndarray, writes: np.ndarray) -> None:
        """Replay a batch of accesses."""
        replay_batch(self, lines, writes)

    # ------------------------------------------------------------------
    def report(self, lups: int = 0) -> TrafficReport:
        """Snapshot the traffic counters."""
        return TrafficReport(
            level_names=tuple(c.level.name for c in self.levels),
            line_bytes=self.machine.line_bytes,
            loads=list(self.loads),
            writebacks=list(self.writebacks),
            accesses=self.accesses,
            lups=lups,
        )

    def reset_counters(self) -> None:
        """Zero traffic counters but keep cache contents (warm state)."""
        self.loads = [0] * len(self.levels)
        self.writebacks = [0] * len(self.levels)
        self.accesses = 0
        for lvl in self.levels:
            lvl.hits = 0
            lvl.misses = 0
