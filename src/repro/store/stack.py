"""TierStack: ordered tiers with hit promotion.

A stack composes tiers fastest-first.  ``get`` walks down until a tier
hits, then promotes the value into every faster tier above it (the
traffic memo's disk→memory promotion, generalized).  ``put`` writes the
value to every tier.
"""

from __future__ import annotations

from repro.store.tier import Tier

__all__ = ["TierStack"]


class TierStack:
    """Ordered composition of tiers.

    Parameters
    ----------
    tiers:
        Fastest-first sequence of :class:`Tier` instances.
    """

    def __init__(self, tiers: list[Tier] | tuple[Tier, ...]) -> None:
        if not tiers:
            raise ValueError("a TierStack needs at least one tier")
        names = [t.name for t in tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names in stack: {names}")
        self.tiers: tuple[Tier, ...] = tuple(tiers)

    def get(self, key):
        """First hit walking fastest→slowest; promotes on the way back.

        Each tier counts its own hit/miss, so the per-tier ledgers
        stay meaningful: a memory miss served by disk is one memory
        miss *and* one disk hit.
        """
        for depth, tier in enumerate(self.tiers):
            value = tier.get(key)
            if value is None:
                continue
            for upper in self.tiers[:depth]:
                upper.put(key, value)
            return value
        return None

    def put(self, key, value) -> None:
        """Write the value to every tier."""
        for tier in self.tiers:
            tier.put(key, value)

    def stats(self) -> dict:
        """``{tier_name: tier.stats()}`` for every member."""
        return {tier.name: tier.stats() for tier in self.tiers}
