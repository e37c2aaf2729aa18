"""A thin :class:`~repro.store.tier.Tier` adapter over the tuning database.

The tuning database (single-file and segmented — the segmented store
subclasses :class:`~repro.offsite.database.TuningDatabase`, so one
adapter covers both) keeps its own persistence logic; the adapter bolts
the uniform tier ledger and ``stats()`` shape on top so ``/metrics``
and the fabric fan-in read one ledger shape for every layer.
"""

from __future__ import annotations

from repro.store.tier import Tier

# NOTE: repro.offsite.database is not imported here — it (transitively)
# imports repro.cachesim.memo, which builds on repro.store.tier, so a
# top-level import would close an import cycle.  The adapter duck-types
# the wrapped object instead: DatabaseTier needs get/put/__len__ (the
# TuningDatabase surface, segmented subclass included).

__all__ = ["DatabaseTier"]


class DatabaseTier(Tier):
    """The warm tuning database as a tier (exact-key lookups).

    Wraps a :class:`~repro.offsite.database.TuningDatabase` (or its
    segmented fabric subclass) without changing its persistence: the
    server keeps calling ``snapshot_for_persist``/``write_records`` on
    the wrapped object; this adapter only ledgers the serving path.
    """

    def __init__(self, database, name: str = "database") -> None:
        super().__init__(name)
        self.database = database

    def __len__(self) -> int:
        return len(self.database)

    def get(self, key):
        """Exact :class:`~repro.offsite.database.TuningKey` lookup."""
        record = self.database.get(key)
        if record is None:
            self.ledger.record_miss()
            return None
        self.ledger.record_hit()
        return record

    def put(self, record, value=None) -> None:
        """Insert a record (single-argument, keyed by the record)."""
        self.database.put(record)
        self.ledger.record_put()
