"""Consistent-hash ring for shard routing.

Each member (a shard id) is mapped to ``vnodes`` points on a 64-bit
hash circle; a key routes to the member owning the first point at or
after the key's hash.  Virtual nodes keep the load balanced (the
per-member share of a large key population concentrates around 1/N),
and consistency keeps remapping minimal: when a member joins or
leaves, only the keys falling on its own arcs move — every other
key keeps its shard, so per-shard response caches and in-flight
coalescing survive membership churn.

Hashing is sha256-based and therefore stable across processes and
Python invocations (``hash()`` is salted per process and must never be
used for routing); the router and any shard compute identical routes
from identical keys.
"""

from __future__ import annotations

import bisect
import hashlib

__all__ = ["HashRing"]

#: Default virtual nodes per member; 64 keeps the max/mean key share
#: under ~1.5x for small member counts (see tests/test_fabric_ring.py).
DEFAULT_VNODES = 64

#: Keys whose failover order :meth:`HashRing.route_order` remembers;
#: the memo starts over when it is full.
ROUTE_MEMO_SIZE = 4096


def stable_hash(text: str) -> int:
    """64-bit position of ``text`` on the hash circle (process-stable)."""
    return int.from_bytes(
        hashlib.sha256(text.encode()).digest()[:8], "big"
    )


class HashRing:
    """Consistent-hash membership with deterministic key routing."""

    def __init__(
        self, members: tuple[str, ...] | list[str] = (), vnodes: int = DEFAULT_VNODES
    ) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._points: list[int] = []  # sorted hash positions
        self._owners: list[str] = []  # owner of self._points[i]
        self._members: set[str] = set()
        #: Full failover orders by key, cleared on every ring change.
        self._orders: dict[str, list[str]] = {}
        for member in members:
            self.add(member)

    # -- membership -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    @property
    def members(self) -> list[str]:
        """Current members, sorted (stable for display and tests)."""
        return sorted(self._members)

    def add(self, member: str) -> None:
        """Add ``member``; no-op if it is already on the ring."""
        if member in self._members:
            return
        self._members.add(member)
        self._orders.clear()
        for v in range(self.vnodes):
            point = stable_hash(f"{member}#{v}")
            idx = bisect.bisect_left(self._points, point)
            # sha256 collisions on 64 bits are vanishingly unlikely;
            # deterministic tie-break by member name keeps add/remove
            # order from ever changing the route.
            while (
                idx < len(self._points)
                and self._points[idx] == point
                and self._owners[idx] < member
            ):
                idx += 1
            self._points.insert(idx, point)
            self._owners.insert(idx, member)

    def remove(self, member: str) -> None:
        """Remove ``member``; no-op if it is not on the ring."""
        if member not in self._members:
            return
        self._members.discard(member)
        self._orders.clear()
        keep = [
            (p, o)
            for p, o in zip(self._points, self._owners)
            if o != member
        ]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    # -- routing --------------------------------------------------------
    def route(self, key: str) -> str:
        """The member owning ``key``.  Raises on an empty ring."""
        if not self._points:
            raise LookupError("consistent-hash ring is empty")
        idx = bisect.bisect_right(self._points, stable_hash(key))
        if idx == len(self._points):
            idx = 0  # wrap around the circle
        return self._owners[idx]

    def route_order(self, key: str, limit: int | None = None) -> list[str]:
        """Distinct members in ring order starting at ``key``'s owner.

        The failover order: the first entry is :meth:`route`'s answer,
        later entries are the successive owners a router should try
        when earlier ones are unreachable.  Deterministic, so every
        router instance agrees on the fallback shard too.  The full
        order (no ``limit``) is memoized per key until the ring
        changes; callers must not mutate it.
        """
        if limit is None:
            order = self._orders.get(key)
            if order is None:
                if len(self._orders) >= ROUTE_MEMO_SIZE:
                    self._orders.clear()
                order = self._orders[key] = self._order(
                    key, len(self._members)
                )
            return order
        return self._order(key, limit)

    def _order(self, key: str, limit: int) -> list[str]:
        if not self._points:
            return []
        start = bisect.bisect_right(self._points, stable_hash(key))
        order: list[str] = []
        seen: set[str] = set()
        n = len(self._points)
        for step in range(n):
            owner = self._owners[(start + step) % n]
            if owner not in seen:
                seen.add(owner)
                order.append(owner)
                if len(order) >= limit:
                    break
        return order

    # -- introspection --------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready description (for ``/metrics`` and ``fabric status``)."""
        return {
            "members": self.members,
            "vnodes": self.vnodes,
            "points": len(self._points),
        }
