"""The tier protocol: one ledger shape for every cache/persistence layer.

Before this module the repo had three independently-grown store layers —
the service response LRU, the traffic memo's memory+disk pair and the
tuning database — each with its own eviction, hit/miss accounting and
crash-safety conventions.  A
:class:`Tier` is the common denominator: a named key→value store with a
uniform :class:`TierLedger` (hits / misses / puts / evictions, with
``hit_rate`` honestly ``None`` while untouched), a ``stats()`` snapshot
every metrics surface reads, and an optional crash-safe envelope
backing (:class:`DiskJsonTier`, reusing :mod:`repro.util.crashsafe`).

Concrete tiers here are the two building blocks everything composes
from: :class:`LruTier` (in-memory, optional capacity with eviction
accounting) and :class:`DiskJsonTier` (one checksummed JSON file per
key, quarantine-on-corrupt, atomic publish).  The adapter re-homing the
tuning database lives in :mod:`repro.store.adapters`; the composer in
:mod:`repro.store.stack`.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Callable

from repro import faults
from repro.util import crashsafe

__all__ = ["TierLedger", "Tier", "LruTier", "DiskJsonTier"]


class TierLedger:
    """Thread-safe hit/miss/put/eviction counters of one tier.

    ``hit_rate`` is ``None`` (not 0.0) while the tier has seen no
    lookups: an untouched tier and a tier that misses everything are
    different operational states, and the fabric fan-in must not
    conflate them.
    """

    __slots__ = ("_lock", "hits", "misses", "puts", "evictions")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0

    def record_hit(self, n: int = 1) -> None:
        with self._lock:
            self.hits += n

    def record_miss(self, n: int = 1) -> None:
        with self._lock:
            self.misses += n

    def record_put(self, n: int = 1) -> None:
        with self._lock:
            self.puts += n

    def record_eviction(self, n: int = 1) -> None:
        with self._lock:
            self.evictions += n

    def reset(self) -> None:
        with self._lock:
            self.hits = self.misses = self.puts = self.evictions = 0

    @property
    def hit_rate(self) -> float | None:
        total = self.hits + self.misses
        return self.hits / total if total else None

    def snapshot(self) -> dict:
        """JSON-ready counters (one consistent read)."""
        with self._lock:
            hits, misses = self.hits, self.misses
            puts, evictions = self.puts, self.evictions
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "puts": puts,
            "evictions": evictions,
            "hit_rate": hits / total if total else None,
        }


class Tier:
    """Base tier: named store + ledger; subclasses implement the I/O.

    The contract every layer shares:

    ``get(key)``
        Returns the stored value or ``None``; counts exactly one hit or
        miss on the ledger.
    ``put(key, value)``
        Stores the value; counts one put, plus one eviction per
        displaced entry.
    ``stats()``
        The ledger snapshot plus ``size`` — the one shape
        ``/metrics`` and the fabric fan-in read.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.ledger = TierLedger()

    def __len__(self) -> int:  # pragma: no cover - overridden
        return 0

    def get(self, key):  # pragma: no cover - overridden
        raise NotImplementedError

    def put(self, key, value) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def stats(self) -> dict:
        """Ledger snapshot + current entry count."""
        snap = self.ledger.snapshot()
        snap["size"] = len(self)
        return snap


class LruTier(Tier):
    """In-memory LRU tier (optionally capacity-bounded).

    ``capacity=None`` means unbounded (the traffic memo's memory tier);
    ``capacity=0`` stores nothing (a disabled response cache).  Values
    are returned as stored — callers that must not share mutable state
    copy on their side (the traffic memo re-hydrates reports per hit).
    """

    def __init__(self, name: str = "lru", capacity: int | None = None) -> None:
        super().__init__(name)
        self.capacity = capacity
        self._lock = threading.Lock()
        self._data: OrderedDict[str, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: str):
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.ledger.record_miss()
                return None
            self._data.move_to_end(key)
        self.ledger.record_hit()
        return value

    def peek(self, key: str):
        """Lookup without touching recency or the ledger (promotions)."""
        with self._lock:
            return self._data.get(key)

    def put(self, key: str, value) -> None:
        if self.capacity is not None and self.capacity <= 0:
            return
        evicted = 0
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if self.capacity is not None:
                while len(self._data) > self.capacity:
                    self._data.popitem(last=False)
                    evicted += 1
        self.ledger.record_put()
        if evicted:
            self.ledger.record_eviction(evicted)

    def clear(self) -> None:
        """Drop all entries (does not reset the ledger)."""
        with self._lock:
            self._data.clear()


class DiskJsonTier(Tier):
    """One crash-safe JSON file per key under a directory.

    The persistence discipline every disk layer in the repo follows,
    extracted from the traffic memo:

    * writes go to a per-writer unique temp file and publish with an
      atomic ``os.replace`` — concurrent writers never collide and
      readers never see torn JSON;
    * an unreadable file (flaky I/O, injected read fault) is a plain
      miss and left in place;
    * a file that parses wrong or fails its checksum is *quarantined*
      (``<name>.corrupt.<pid>.<n>``) — it would shadow every future
      write of the key forever;
    * payloads are wrapped in :mod:`repro.util.crashsafe` checksummed
      envelopes (plain legacy files still load).

    ``validator`` (optional) is called with the decoded payload before
    it is trusted; a raising validator marks the file corrupt.
    ``read_fault``/``write_fault`` name the :mod:`repro.faults` points
    armed around the I/O (the memo keeps its historical ``memo.read`` /
    ``memo.write`` names).
    """

    def __init__(
        self,
        name: str,
        directory: str | os.PathLike,
        validator: Callable[[dict], object] | None = None,
        read_fault: str | None = None,
        write_fault: str | None = None,
    ) -> None:
        super().__init__(name)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.validator = validator
        self.read_fault = read_fault
        self.write_fault = write_fault
        self._tmp_counter = itertools.count()

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.directory.glob("*.json"))
        except OSError:
            return 0

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _load(self, path: Path) -> dict | None:
        try:
            if self.read_fault:
                faults.check(self.read_fault)
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            return None  # flaky I/O: maybe fine, keep the file
        try:
            # json.loads handles the decode: undecodable bytes parse
            # wrong (UnicodeDecodeError is a ValueError) → quarantine.
            data = json.loads(raw)
            rec = crashsafe.unwrap(data) if crashsafe.is_envelope(data) else data
            if self.validator is not None:
                self.validator(rec)
        except (crashsafe.CorruptPayload, KeyError, TypeError, ValueError):
            crashsafe.quarantine(path)
            return None
        return rec

    def get(self, key: str) -> dict | None:
        rec = self._load(self.path_for(key))
        if rec is None:
            self.ledger.record_miss()
            return None
        self.ledger.record_hit()
        return rec

    def put(self, key: str, value: dict) -> None:
        tmp = self.directory / (
            f".{key}.{os.getpid()}.{next(self._tmp_counter)}.tmp"
        )
        try:
            if self.write_fault:
                faults.check(self.write_fault)
            tmp.write_text(json.dumps(crashsafe.wrap(value)))
            os.replace(tmp, self.path_for(key))
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return
        self.ledger.record_put()
