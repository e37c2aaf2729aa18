"""Batched replay engine: bit-identical to the per-access reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cachesim import (
    CacheHierarchy,
    VectorCache,
    measure_sweep,
    sweep_stream,
)
from repro.cachesim.lru import (
    ReferenceHierarchy,
    SetAssocCache,
    reference_sweep,
    row_stream,
)
from repro.cachesim.stream import coalesce_batches
from repro.codegen.plan import KernelPlan
from repro.grid import GridSet
from repro.machine import CacheLevel, CoreModel, Machine
from repro.machine.presets import cascade_lake_sp, rome
from repro.stencil import get_stencil


def small_machine(victim_l3: bool = False, assoc: int = 4) -> Machine:
    """Small but vector-eligible hierarchy (L1 has 32 sets)."""
    caches = [
        CacheLevel("L1", 32 * 2 * 64, 64, 2, 64.0),
        CacheLevel("L2", 64 * assoc * 64, 64, assoc, 32.0),
    ]
    if victim_l3:
        caches.append(
            CacheLevel("L3", 128 * assoc * 64, 64, assoc, 16.0, victim=True)
        )
    return Machine(
        name="small",
        isa="AVX2",
        freq_ghz=2.0,
        cores=2,
        cores_per_llc=2,
        core=CoreModel(32, 2, 1, 1, 2, 1),
        caches=tuple(caches),
        mem_bw_gbs=20.0,
        mem_bw_core_gbs=10.0,
    )


def replay(machine: Machine, hierarchy: type, batches) -> CacheHierarchy:
    hier = hierarchy(machine)
    for lines, writes in batches:
        hier.access_many(lines, writes)
    return hier


def random_batches(seed: int, n_batches: int = 20, span: int = 600):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_batches):
        n = int(rng.integers(1, 400))
        lines = rng.integers(0, span, size=n).astype(np.int64)
        writes = rng.random(n) < 0.3
        out.append((lines, writes))
    return out


def assert_same_state(a: CacheHierarchy, b: CacheHierarchy) -> None:
    assert a.loads == b.loads
    assert a.writebacks == b.writebacks
    for la, lb in zip(a.levels, b.levels):
        assert la.hits == lb.hits and la.misses == lb.misses
        assert la.lru_snapshot() == lb.lru_snapshot()


def machine_of(*levels) -> Machine:
    """Hierarchy from ``(n_sets, assoc)`` or ``(n_sets, assoc, victim)``
    per level, innermost first."""
    caches = []
    for i, (n_sets, assoc, *victim) in enumerate(levels):
        caches.append(
            CacheLevel(
                f"L{i + 1}", n_sets * assoc * 64, 64, assoc,
                64.0 / (i + 1), victim=bool(victim and victim[0]),
            )
        )
    return Machine(
        "shape", "AVX2", 2.0, 2, 2, CoreModel(32, 2, 1, 1, 2, 1),
        tuple(caches), 20.0, 10.0,
    )


def walk_batches(seed: int, n: int, span: int, batch: int = 700):
    """A random walk with occasional far jumps: hits at every level."""
    rng = np.random.default_rng(seed)
    steps = rng.integers(-6, 7, size=n)
    jumps = rng.random(n) < 0.02
    steps[jumps] = rng.integers(0, span, size=int(jumps.sum()))
    lines = (np.cumsum(steps) % span).astype(np.int64)
    writes = rng.random(n) < 0.3
    return [
        (lines[i:i + batch], writes[i:i + batch])
        for i in range(0, n, batch)
    ]


class TestEngineSelection:
    def test_every_batched_level_is_a_vector_cache(self):
        # One kernel replays every level, whatever its set count: the
        # 2-set L1 of the scaled presets as much as the 31-, 32- and
        # 4-set levels of the edge hierarchy.
        edge = machine_of((31, 1), (32, 1), (4, 16))
        for machine in (
            cascade_lake_sp().scaled_caches(1 / 32),
            rome().scaled_caches(1 / 32),
            edge,
        ):
            hier = CacheHierarchy(machine)
            assert all(type(lvl) is VectorCache for lvl in hier.levels)
        reference = ReferenceHierarchy(edge)
        assert all(type(lvl) is SetAssocCache for lvl in reference.levels)

    def test_auto_is_vector_for_real_presets(self):
        for preset in (cascade_lake_sp, rome):
            hier = CacheHierarchy(preset())
            assert all(type(lvl) is VectorCache for lvl in hier.levels)

    def test_single_level_victim_rejects_vector(self):
        caches = (CacheLevel("V", 32 * 2 * 64, 64, 2, 64.0, victim=True),)
        m = Machine(
            "v", "AVX2", 2.0, 1, 1, CoreModel(32, 2, 1, 1, 2, 1),
            caches, 20.0, 10.0,
        )
        # Nothing ever fills a lone victim level, so the hierarchy and
        # its reference refuse it up front.
        for hierarchy in (CacheHierarchy, ReferenceHierarchy):
            with pytest.raises(ValueError, match="can never hold a line"):
                hierarchy(m)


class TestRandomStreamEquivalence:
    @pytest.mark.parametrize("victim", [False, True])
    @pytest.mark.parametrize("assoc", [1, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_counters_and_state_match(self, victim, assoc, seed):
        m = small_machine(victim_l3=victim, assoc=assoc)
        batches = random_batches(seed)
        a = replay(m, ReferenceHierarchy, batches)
        b = replay(m, CacheHierarchy, batches)
        assert_same_state(a, b)

    def test_single_element_batches(self):
        m = small_machine(victim_l3=True)
        batches = [(b[:1], w[:1]) for b, w in random_batches(7, 40)]
        assert_same_state(replay(m, ReferenceHierarchy, batches),
                          replay(m, CacheHierarchy, batches))


class TestPerLevelKernels:
    """Few-set and direct-mapped levels, in every position."""

    HIERARCHIES = {
        # The 1/32-scaled presets: 2-set L1 over 32- and 64/128-set levels.
        "scaled-clx": cascade_lake_sp().scaled_caches(1 / 32),
        "scaled-rome": rome().scaled_caches(1 / 32),
        # Few-set L2: install ops reach a few-set level.
        "few-set-l2": machine_of((32, 1), (4, 16), (64, 4)),
        "few-set-l2-last": machine_of((2, 4), (8, 4)),
        # Few-set exclusive victim L3, below a 32-set and a few-set L2.
        "few-set-victim": machine_of((2, 4), (32, 4), (4, 64, True)),
        "all-few-set-victim": machine_of((2, 2), (4, 4), (8, 4, True)),
        # Direct-mapped levels (associativity 1), victim L3 included.
        "assoc-1": machine_of((2, 1), (8, 1), (32, 1)),
        "assoc-1-victim": machine_of((4, 1), (8, 1), (32, 1, True)),
    }

    @pytest.mark.parametrize("shape", sorted(HIERARCHIES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_walk_matches_scalar(self, shape, seed):
        m = self.HIERARCHIES[shape]
        capacity = sum(c.n_lines for c in m.caches)
        batches = walk_batches(seed, 6000, span=3 * capacity)
        a = replay(m, ReferenceHierarchy, batches)
        b = replay(m, CacheHierarchy, batches)
        assert_same_state(a, b)
        # Every level saw both hits and misses.
        assert all(lvl.hits and lvl.misses for lvl in b.levels)

    @pytest.mark.parametrize("shape", sorted(HIERARCHIES))
    def test_uniform_random_matches_scalar(self, shape):
        m = self.HIERARCHIES[shape]
        batches = random_batches(5, span=2 * sum(c.n_lines for c in m.caches))
        assert_same_state(replay(m, ReferenceHierarchy, batches),
                          replay(m, CacheHierarchy, batches))

    def test_single_access_path(self):
        m = self.HIERARCHIES["few-set-victim"]
        a = ReferenceHierarchy(m)
        b = CacheHierarchy(m)
        for lines, writes in walk_batches(3, 800, span=400):
            for line, write in zip(lines.tolist(), writes.tolist()):
                a.access(line, write)
                b.access(line, write)
        assert_same_state(a, b)


def one_batch(machine: Machine, lines, writes=None):
    """Replay one batch through the reference and the batched engine;
    return ``(reference, batched)``."""
    lines = np.asarray(lines, dtype=np.int64)
    if writes is None:
        writes = np.zeros(lines.shape[0], dtype=bool)
    return (
        replay(machine, ReferenceHierarchy, [(lines, writes)]),
        replay(machine, CacheHierarchy, [(lines, writes)]),
    )


class TestStackDistanceKernel:
    """Hit-test windows, victim removals and the touched-set prologue."""

    @pytest.mark.parametrize("assoc", [2, 4, 8])
    @pytest.mark.parametrize("spare, hit", [(1, True), (0, False)])
    def test_long_gap_decided_by_doubled_window(self, assoc, spare, hit):
        # Line 0, then more than 4*assoc ops cycling over assoc-1 (or
        # assoc) other lines, then line 0 again: no window below 8*assoc
        # covers the gap, and until then the count stays below assoc.
        others = assoc - spare
        cycle = np.arange(1, others + 1)
        reps = 4 * assoc // others + 2
        lines = np.concatenate(([0], np.tile(cycle, reps), [0]))
        assert lines.shape[0] - 2 > 4 * assoc
        m = machine_of((1, assoc))
        a, b = one_batch(m, lines)
        assert_same_state(a, b)
        assert b.levels[0].misses == others + 1 + (0 if hit else 1)

    def test_victim_removals_keep_an_older_line(self):
        # A 1-line L1 over a 2-way victim L2.  Line 0 reaches L2 first;
        # lines 1 and 2 then take turns, each L1 miss removing its line
        # from L2 while the L1 eviction installs the other.  Far more
        # than assoc installs follow line 0, yet it stays resident.
        m = machine_of((1, 1), (1, 2, True))
        lines = np.concatenate(([0], np.tile([1, 2], 10), [0]))
        a, b = one_batch(m, lines)
        assert_same_state(a, b)
        # Only the first probes of lines 0, 1 and 2 miss in L2; the
        # final probe of line 0 hits and moves it out.
        assert b.levels[1].hits == lines.shape[0] - 3
        assert b.levels[1].lru_snapshot() == [[(1, False), (2, False)]]

    def test_untouched_sets_keep_their_state(self):
        m = machine_of((4, 2), (8, 2))
        rng = np.random.default_rng(4)
        warm = rng.integers(0, 64, size=200).astype(np.int64)
        warm_writes = rng.random(200) < 0.5
        a = replay(m, ReferenceHierarchy, [(warm, warm_writes)])
        b = replay(m, CacheHierarchy, [(warm, warm_writes)])
        before = [lvl.lru_snapshot() for lvl in b.levels]
        # Only L1 sets 0 and 2 (L2 sets 0, 2, 4, 6) see this batch.
        lines = np.array([0, 2, 40, 42, 8, 0, 50, 2], dtype=np.int64)
        writes = np.ones(lines.shape[0], dtype=bool)
        a.access_many(lines, writes)
        b.access_many(lines, writes)
        assert_same_state(a, b)
        after = [lvl.lru_snapshot() for lvl in b.levels]
        for level, (old, new) in enumerate(zip(before, after)):
            for s in range(len(old)):
                if s % 2:
                    assert new[s] == old[s], (level, s)
        assert after[0][0] != before[0][0]


#: One level of a random hierarchy: ``(n_sets, assoc)``.
LEVEL_SHAPES = st.tuples(st.sampled_from([1, 2, 3, 32]), st.integers(1, 16))


@settings(max_examples=40, deadline=None)
@given(
    shapes=st.lists(LEVEL_SHAPES, min_size=1, max_size=3),
    victim=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    n_batches=st.integers(1, 5),
    max_batch=st.sampled_from([1, 8, 300]),
    step=st.integers(1, 8),
)
def test_random_hierarchies_match_scalar_after_every_batch(
    shapes, victim, seed, n_batches, max_batch, step
):
    # Machines order their levels small to large.
    *inner, (n_sets, assoc) = sorted(shapes, key=lambda s: s[0] * s[1])
    machine = machine_of(*inner, (n_sets, assoc, victim and bool(inner)))
    capacity = sum(c.n_lines for c in machine.caches)
    rng = np.random.default_rng(seed)
    a = ReferenceHierarchy(machine)
    b = CacheHierarchy(machine)
    for _ in range(n_batches):
        n = int(rng.integers(1, max_batch + 1))
        walk = np.cumsum(rng.integers(-step, step + 1, size=n))
        jumps = rng.random(n) < 0.05
        walk[jumps] = rng.integers(0, 3 * capacity, size=int(jumps.sum()))
        lines = (walk % (3 * capacity)).astype(np.int64)
        writes = rng.random(n) < 0.3
        a.access_many(lines, writes)
        b.access_many(lines, writes)
        assert_same_state(a, b)


class TestScaledSweepEquivalence:
    """``measure_sweep`` at the tuner's geometry: 1/32-scaled caches."""

    @pytest.mark.parametrize("preset", [cascade_lake_sp, rome])
    @pytest.mark.parametrize("stencil", ["3d7pt", "heat3d"])
    @pytest.mark.parametrize(
        "block",
        [(4, 8, 17), (8, 16, 17), (16, 4, 17), (4, 4, 8), (2, 16, 5)],
    )
    def test_blocked_3d_reports_bit_identical(self, preset, stencil, block):
        machine = preset().scaled_caches(1 / 32)
        spec = get_stencil(stencil)
        grids = GridSet(spec, (15, 16, 17))
        plan = KernelPlan(block=block)
        r_reference = reference_sweep(spec, grids, plan, machine)
        r_auto = measure_sweep(
            spec, grids, plan, machine,
            traffic_cache=None, predictor="simulate",
        )
        assert r_reference.as_dict() == r_auto.as_dict()


class TestSweepEquivalence:
    @pytest.mark.parametrize("preset", [cascade_lake_sp, rome])
    @pytest.mark.parametrize("stencil", ["3d7pt", "3d25pt"])
    def test_reports_bit_identical(self, preset, stencil):
        machine = preset().scaled_caches(1 / 8)
        spec = get_stencil(stencil)
        grids = GridSet(spec, (20, 20, 40))
        plan = KernelPlan(block=(10, 10, 40))
        r_reference = reference_sweep(spec, grids, plan, machine)
        r_vector = measure_sweep(
            spec, grids, plan, machine, traffic_cache=None
        )
        assert r_reference.as_dict() == r_vector.as_dict()

    def test_2d_stencil_matches(self):
        machine = cascade_lake_sp().scaled_caches(1 / 8)
        spec = get_stencil("2d5pt")
        grids = GridSet(spec, (48, 96))
        plan = KernelPlan(block=(16, 96))
        r_reference = reference_sweep(spec, grids, plan, machine)
        r_vector = measure_sweep(
            spec, grids, plan, machine, traffic_cache=None
        )
        assert r_reference.as_dict() == r_vector.as_dict()


class TestBlockBatchStream:
    def test_block_batches_concatenate_row_batches(self):
        spec = get_stencil("3d7pt")
        grids = GridSet(spec, (12, 12, 24))
        plan = KernelPlan(block=(6, 6, 24))
        rows = list(row_stream(spec, grids, plan))
        blocks = list(sweep_stream(spec, grids, plan))
        assert len(blocks) < len(rows)
        row_lines = np.concatenate([l for l, _ in rows])
        row_writes = np.concatenate([w for _, w in rows])
        blk_lines = np.concatenate([l for l, _ in blocks])
        blk_writes = np.concatenate([w for _, w in blocks])
        np.testing.assert_array_equal(row_lines, blk_lines)
        np.testing.assert_array_equal(row_writes, blk_writes)

    def test_slab_block_batches_concatenate_row_batches(self):
        spec = get_stencil("3d7pt")
        grids = GridSet(spec, (12, 12, 24))
        plan = KernelPlan(block=(4, 6, 8))
        rows = list(row_stream(spec, grids, plan, z_range=(3, 9)))
        blocks = list(sweep_stream(spec, grids, plan, z_range=(3, 9)))
        for i in (0, 1):
            np.testing.assert_array_equal(
                np.concatenate([r[i] for r in rows]),
                np.concatenate([b[i] for b in blocks]),
            )


class TestCoalesceBatches:
    def test_joins_in_order_up_to_max_ops(self):
        batches = random_batches(11, n_batches=30)
        joined = list(coalesce_batches(batches, max_ops=1000))
        assert len(joined) < len(batches)
        assert all(len(lines) <= 1000 for lines, _ in joined)
        for i in (0, 1):
            np.testing.assert_array_equal(
                np.concatenate([b[i] for b in batches]),
                np.concatenate([j[i] for j in joined]),
            )

    def test_large_batch_passes_through_whole(self):
        big = (np.arange(50, dtype=np.int64), np.zeros(50, dtype=bool))
        small = (np.arange(5, dtype=np.int64), np.ones(5, dtype=bool))
        joined = list(coalesce_batches([small, big, small], max_ops=10))
        assert [len(lines) for lines, _ in joined] == [5, 50, 5]
        # A batch with no neighbour to join is passed on, not copied.
        assert all(j[0] is b[0] for j, b in zip(joined, [small, big, small]))
        assert list(coalesce_batches([], max_ops=10)) == []
