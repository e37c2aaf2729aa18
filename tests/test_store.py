"""Unit tests of the unified ``repro.store`` tier substrate.

Covers the ledger shape (hit_rate honestly None while untouched), the
two building-block tiers, the stack's promotion semantics and the
database adapter.
"""

import pytest

from repro.offsite.database import TuningDatabase, TuningKey, TuningRecord
from repro.store import DatabaseTier, DiskJsonTier, LruTier, TierStack
from repro.store.tier import TierLedger


class TestTierLedger:
    def test_counts_and_snapshot(self):
        ledger = TierLedger()
        assert ledger.hit_rate is None  # untouched ≠ 0.0
        ledger.record_hit()
        ledger.record_miss(3)
        ledger.record_put(2)
        ledger.record_eviction()
        snap = ledger.snapshot()
        assert snap == {
            "hits": 1, "misses": 3, "puts": 2, "evictions": 1,
            "hit_rate": 0.25,
        }

    def test_reset(self):
        ledger = TierLedger()
        ledger.record_hit()
        ledger.reset()
        assert ledger.snapshot()["hits"] == 0
        assert ledger.hit_rate is None


class TestLruTier:
    def test_hit_miss_and_eviction_accounting(self):
        tier = LruTier("t", capacity=2)
        assert tier.get("a") is None
        tier.put("a", 1)
        tier.put("b", 2)
        assert tier.get("a") == 1  # refreshes recency
        tier.put("c", 3)  # evicts b (LRU)
        assert tier.get("b") is None
        assert tier.get("a") == 1
        snap = tier.stats()
        assert snap["hits"] == 2 and snap["misses"] == 2
        assert snap["puts"] == 3 and snap["evictions"] == 1
        assert snap["size"] == 2

    def test_zero_capacity_stores_nothing(self):
        tier = LruTier("t", capacity=0)
        tier.put("a", 1)
        assert len(tier) == 0 and tier.stats()["puts"] == 0

    def test_peek_bypasses_ledger_and_recency(self):
        tier = LruTier("t")
        tier.put("a", 1)
        assert tier.peek("a") == 1 and tier.peek("b") is None
        snap = tier.stats()
        assert snap["hits"] == 0 and snap["misses"] == 0


class TestDiskJsonTier:
    def test_roundtrip_and_missing(self, tmp_path):
        tier = DiskJsonTier("d", tmp_path)
        assert tier.get("k") is None
        tier.put("k", {"x": 1})
        assert tier.get("k") == {"x": 1}
        assert len(tier) == 1
        snap = tier.stats()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["puts"] == 1

    def test_corrupt_file_quarantined(self, tmp_path):
        tier = DiskJsonTier("d", tmp_path)
        tier.path_for("bad").write_text("{ not json")
        assert tier.get("bad") is None
        assert not tier.path_for("bad").exists()
        assert list(tmp_path.glob("bad.json.corrupt.*"))

    def test_validator_failure_quarantines(self, tmp_path):
        def validator(rec):
            if "required" not in rec:
                raise ValueError("bad record")

        tier = DiskJsonTier("d", tmp_path, validator=validator)
        tier.put("k", {"other": 1})
        assert tier.get("k") is None
        assert not tier.path_for("k").exists()


class TestTierStack:
    def test_promotion_counts_per_tier(self, tmp_path):
        mem = LruTier("mem")
        disk = DiskJsonTier("disk", tmp_path)
        stack = TierStack([mem, disk])
        stack.put("k", {"v": 1})
        # Fresh memory: hit in mem, disk untouched by the lookup.
        assert stack.get("k") == {"v": 1}
        # Drop memory; the next get is a mem miss + disk hit + promote.
        mem.clear()
        assert stack.get("k") == {"v": 1}
        assert mem.ledger.misses == 1 and disk.ledger.hits == 1
        # Promoted: served from memory again.
        assert stack.get("k") == {"v": 1}
        assert mem.ledger.hits == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            TierStack([LruTier("t"), LruTier("t")])
        with pytest.raises(ValueError):
            TierStack([])

    def test_stats_shape(self, tmp_path):
        stack = TierStack([LruTier("mem"), DiskJsonTier("disk", tmp_path)])
        stats = stack.stats()
        assert set(stats) == {"mem", "disk"}
        for row in stats.values():
            assert {"hits", "misses", "puts", "evictions", "hit_rate",
                    "size"} <= set(row)


def _record(grid=(8, 8, 16)) -> TuningRecord:
    return TuningRecord(
        key=TuningKey("pirk", "heat", "clx", tuple(grid)),
        best_variant="v0",
        block=(4, 4, 8),
        predicted_s_per_step=1e-3,
        ranking=["v0", "v1"],
    )


class TestAdapters:
    def test_database_tier_ledgers_lookups(self):
        tier = DatabaseTier(TuningDatabase())
        record = _record()
        assert tier.get(record.key) is None
        tier.put(record)
        assert tier.get(record.key) is record
        snap = tier.stats()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["puts"] == 1 and snap["size"] == 1
