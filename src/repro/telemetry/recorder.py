"""The request flight recorder: a bounded ring of request records.

Latency percentiles and burn rates say *that* something regressed; the
flight recorder says *which requests did it*.  Every finished request
appends one structured record (endpoint, outcome, HTTP status, shard,
latency, serving tier walk, queue class, per-stage milliseconds — span
aggregates included when the request ran traced) into a fixed-capacity
ring; ``GET /debug/requests?n=K`` and ``repro obs tail`` read it back
newest-first with optional filters, so a p99 spike or a burning SLO can
be attributed without re-running load.

Recording is O(1) under one lock (a deque append plus two counter
bumps) and loses nothing the metrics layer keeps: the ring is bounded
evidence, not accounting — ``dropped`` says how much history scrolled
off.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = ["FlightRecorder", "tail_filters"]


class FlightRecorder:
    """Fixed-capacity ring of per-request records (thread-safe)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self.recorded = 0

    def record(self, **fields: object) -> None:
        """Append one request record (stamped with ``seq`` + ``ts``)."""
        if self.capacity == 0:
            return
        entry = {"seq": 0, "ts": time.time(), **fields}
        with self._lock:
            self._seq += 1
            entry["seq"] = self._seq
            self._ring.append(entry)
            self.recorded += 1

    def tail(
        self,
        n: int = 50,
        endpoint: str | None = None,
        outcome: str | None = None,
        min_latency_ms: float | None = None,
    ) -> list[dict]:
        """The newest ``n`` records matching the filters, newest first."""
        with self._lock:
            records = list(self._ring)
        records.reverse()
        out: list[dict] = []
        for entry in records:
            if endpoint is not None and entry.get("endpoint") != endpoint:
                continue
            if outcome is not None and entry.get("outcome") != outcome:
                continue
            if min_latency_ms is not None:
                latency = entry.get("latency_ms")
                if not isinstance(latency, (int, float)):
                    continue
                if latency < min_latency_ms:
                    continue
            out.append(dict(entry))
            if len(out) >= n:
                break
        return out

    def snapshot(self) -> dict:
        """Ring bookkeeping for ``/debug/requests`` envelopes."""
        with self._lock:
            held = len(self._ring)
            recorded = self.recorded
        return {
            "capacity": self.capacity,
            "held": held,
            "recorded": recorded,
            "dropped": recorded - held,
        }


def tail_filters(params: dict[str, list[str]]) -> dict:
    """:meth:`FlightRecorder.tail` keyword arguments from a parsed
    ``/debug/requests`` query (``urllib.parse.parse_qs`` shape).

    ``n`` (default 50, floored at 0), ``endpoint``, ``outcome`` and
    ``min_ms``; a malformed ``n`` or ``min_ms`` raises ``ValueError``
    with the message every surface answers HTTP 400 with.
    """

    def first(name: str) -> str | None:
        values = params.get(name)
        return values[0] if values else None

    try:
        n = int(first("n") or 50)
    except ValueError:
        raise ValueError('"n" must be an integer') from None
    min_ms = first("min_ms")
    if min_ms is not None:
        try:
            min_ms = float(min_ms)
        except ValueError:
            raise ValueError('"min_ms" must be a number') from None
    return {
        "n": max(0, n),
        "endpoint": first("endpoint"),
        "outcome": first("outcome"),
        "min_latency_ms": min_ms,
    }
