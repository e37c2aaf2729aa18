"""LRU cache semantics, including a property test against a reference."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.cachesim.lru import SetAssocCache
from repro.machine import CacheLevel


def small_cache(assoc=2, sets=4) -> SetAssocCache:
    level = CacheLevel("T", sets * assoc * 64, 64, assoc, 32.0)
    return SetAssocCache(level)


class TestBasics:
    def test_miss_then_hit(self):
        c = small_cache()
        assert not c.lookup(5)
        c.insert(5)
        assert c.lookup(5)
        assert c.hits == 1 and c.misses == 1

    def test_eviction_is_lru(self):
        c = small_cache(assoc=2, sets=1)
        c.insert(0)
        c.insert(1)
        c.lookup(0)  # 1 is now LRU
        victim = c.insert(2)
        assert victim == (1, False)

    def test_dirty_propagates_on_eviction(self):
        c = small_cache(assoc=1, sets=1)
        c.insert(0, dirty=True)
        victim = c.insert(1)
        assert victim == (0, True)

    def test_mark_dirty_requires_residency(self):
        c = small_cache()
        with pytest.raises(KeyError):
            c.mark_dirty(9)

    def test_reinsert_merges_dirty(self):
        c = small_cache(assoc=2, sets=1)
        c.insert(0, dirty=True)
        c.insert(0, dirty=False)
        c.insert(1)
        victim = c.insert(2)
        assert victim == (0, True)

    def test_remove(self):
        c = small_cache()
        c.insert(3, dirty=True)
        assert c.remove(3) is True
        assert c.remove(3) is None

    def test_flush_counts_dirty(self):
        c = small_cache()
        c.insert(1, dirty=True)
        c.insert(2)
        assert c.flush() == 1
        assert c.resident_lines() == 0

    def test_sets_partition_lines(self):
        c = small_cache(assoc=1, sets=4)
        # Lines 0..3 map to distinct sets: no evictions.
        for line in range(4):
            assert c.insert(line) is None
        assert c.resident_lines() == 4


# ----------------------------------------------------------------------
# Property: the simulator matches a straightforward reference LRU model.
# ----------------------------------------------------------------------
class _RefLRU:
    """Reference set-associative LRU implemented independently."""

    def __init__(self, assoc: int, n_sets: int):
        self.assoc = assoc
        self.n_sets = n_sets
        self.sets = [OrderedDict() for _ in range(n_sets)]

    def access(self, line: int) -> bool:
        s = self.sets[line % self.n_sets]
        if line in s:
            s.move_to_end(line)
            return True
        if len(s) >= self.assoc:
            s.popitem(last=False)
        s[line] = True
        return False


@settings(max_examples=60, deadline=None)
@given(
    accesses=st.lists(st.integers(0, 30), min_size=1, max_size=200),
    assoc=st.sampled_from([1, 2, 4]),
    sets=st.sampled_from([1, 2, 4]),
)
def test_hit_miss_sequence_matches_reference(accesses, assoc, sets):
    sim = small_cache(assoc=assoc, sets=sets)
    ref = _RefLRU(assoc, sets)
    for line in accesses:
        ref_hit = ref.access(line)
        sim_hit = sim.lookup(line)
        if not sim_hit:
            sim.insert(line)
        assert sim_hit == ref_hit
