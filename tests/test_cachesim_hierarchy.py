"""Hierarchy semantics: fill-through, write-back chains, victim L3.

Every test runs on the batched engine, whose one kernel replays these
few-set levels like any other, and on the per-access reference.
"""

import numpy as np
import pytest

from repro.cachesim import CacheHierarchy
from repro.cachesim.lru import ReferenceHierarchy
from repro.machine import CacheLevel, CoreModel, Machine


def tiny_machine(victim_l3: bool = False) -> Machine:
    caches = [
        CacheLevel("L1", 4 * 64, 64, 2, 64.0),
        CacheLevel("L2", 16 * 64, 64, 4, 32.0),
    ]
    if victim_l3:
        caches.append(
            CacheLevel("L3", 32 * 64, 64, 4, 16.0, victim=True)
        )
    return Machine(
        name="tiny",
        isa="AVX2",
        freq_ghz=2.0,
        cores=2,
        cores_per_llc=2,
        core=CoreModel(32, 2, 1, 1, 2, 1),
        caches=tuple(caches),
        mem_bw_gbs=20.0,
        mem_bw_core_gbs=10.0,
    )


@pytest.fixture(
    params=[ReferenceHierarchy, CacheHierarchy], ids=["scalar", "vector"]
)
def hierarchy(request) -> type:
    return request.param


class TestInclusive:
    def test_cold_miss_counts_all_boundaries(self, hierarchy):
        h = hierarchy(tiny_machine())
        h.access(0, write=False)
        assert h.loads == [1, 1]

    def test_l1_hit_counts_nothing(self, hierarchy):
        h = hierarchy(tiny_machine())
        h.access(0, write=False)
        h.access(0, write=False)
        assert h.loads == [1, 1]

    def test_l2_hit_counts_inner_boundary_only(self, hierarchy):
        h = hierarchy(tiny_machine())
        # Fill lines 0..7 (L1 holds 8 lines); line 0 falls out of L1.
        for line in range(9):
            h.access(line, write=False)
        loads_before = list(h.loads)
        h.access(0, write=False)
        assert h.loads[0] == loads_before[0] + 1
        assert h.loads[1] == loads_before[1]  # still in L2

    def test_write_allocate(self, hierarchy):
        h = hierarchy(tiny_machine())
        h.access(0, write=True)
        assert h.loads == [1, 1]  # store miss pulls the line in

    def test_dirty_writeback_reaches_memory(self, hierarchy):
        h = hierarchy(tiny_machine())
        n_l2 = 16
        for line in range(n_l2 + 4):
            h.access(line, write=True)
        assert h.writebacks[1] > 0  # dirty lines left L2 toward memory

    def test_streaming_traffic_equals_lines(self, hierarchy):
        h = hierarchy(tiny_machine())
        lines = np.arange(1000, dtype=np.int64)
        h.access_many(lines, np.zeros(1000, dtype=bool))
        assert h.loads == [1000, 1000]


class TestVictim:
    def test_memory_fill_bypasses_l3(self, hierarchy):
        h = hierarchy(tiny_machine(victim_l3=True))
        h.access(0, write=False)
        assert h.loads == [1, 1, 1]
        assert h.levels[2].resident_lines() == 0  # not installed on fill

    def test_l2_eviction_installs_into_l3(self, hierarchy):
        h = hierarchy(tiny_machine(victim_l3=True))
        for line in range(20):  # exceed L2's 16 lines
            h.access(line, write=False)
        assert h.levels[2].resident_lines() > 0
        assert h.writebacks[1] > 0  # victim installs counted as L2->L3

    def test_victim_hit_removes_line(self, hierarchy):
        h = hierarchy(tiny_machine(victim_l3=True))
        for line in range(20):
            h.access(line, write=False)
        # Find a line resident in L3 and re-access it: the hit must be
        # exclusive, i.e. the line leaves L3 (though the L2 eviction the
        # refill causes may install a *different* line there).
        victim_line = next(
            line for line in range(20) if h.levels[2].contains(line)
        )
        h.access(victim_line, write=False)
        assert not h.levels[2].contains(victim_line)
        assert h.levels[0].contains(victim_line)

    def test_victim_must_be_last(self, hierarchy):
        caches = (
            CacheLevel("L1", 4 * 64, 64, 2, 64.0, victim=True),
            CacheLevel("L2", 16 * 64, 64, 4, 32.0),
        )
        m = Machine(
            "bad", "AVX2", 2.0, 2, 2, CoreModel(32, 2, 1, 1, 2, 1), caches
        )
        with pytest.raises(ValueError):
            hierarchy(m)


class TestReport:
    def test_bytes_per_lup(self, hierarchy):
        h = hierarchy(tiny_machine())
        lines = np.arange(100, dtype=np.int64)
        h.access_many(lines, np.zeros(100, dtype=bool))
        rep = h.report(lups=800)
        assert rep.bytes_per_lup(1) == pytest.approx(100 * 64 / 800)
        assert rep.boundaries == ("L1-L2", "L2-Mem")

    def test_bytes_per_lup_requires_lups(self, hierarchy):
        h = hierarchy(tiny_machine())
        rep = h.report()
        with pytest.raises(ValueError):
            rep.bytes_per_lup(0)

    def test_reset_counters_keeps_contents(self, hierarchy):
        h = hierarchy(tiny_machine())
        h.access(0, write=False)
        h.reset_counters()
        assert h.loads == [0, 0]
        h.access(0, write=False)
        assert h.loads == [0, 0]  # warm hit, no new traffic
