"""Pluggable tier-stack store substrate.

One protocol (:class:`Tier`), one ledger shape (:class:`TierLedger`),
one composer (:class:`TierStack`) — the response LRU, the traffic memo
(memory+disk) and the tuning database are tiers on this substrate, and
every metrics surface reads the same ``stats()`` shape.  Every tier
holds exact results only.
"""

from repro.store.adapters import DatabaseTier
from repro.store.stack import TierStack
from repro.store.tier import DiskJsonTier, LruTier, Tier, TierLedger

__all__ = [
    "Tier",
    "TierLedger",
    "LruTier",
    "DiskJsonTier",
    "TierStack",
    "DatabaseTier",
]
