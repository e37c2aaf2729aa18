"""Stream generation: coverage, ordering, and traffic plausibility."""

import numpy as np
import pytest

from repro.cachesim import measure_sweep, sweep_stream
from repro.cachesim.lru import row_stream
from repro.codegen import KernelPlan
from repro.grid import GridSet
from repro.machine import generic_avx2
from repro.stencil import get_stencil


class TestStreamShape:
    def test_batch_count_matches_rows(self):
        spec = get_stencil("3d7pt")
        shape = (8, 8, 16)
        gs = GridSet(spec, shape)
        rows = list(row_stream(spec, gs, KernelPlan(block=shape)))
        assert len(rows) == 8 * 8  # one batch per (z, y) row

    def test_blocking_multiplies_rows(self):
        spec = get_stencil("3d7pt")
        shape = (8, 8, 16)
        gs = GridSet(spec, shape)
        rows = list(row_stream(spec, gs, KernelPlan(block=(4, 4, 16))))
        assert len(rows) == 8 * 8  # same rows, different order

    def test_store_lines_marked_write(self):
        spec = get_stencil("3d7pt")
        shape = (4, 4, 16)
        gs = GridSet(spec, shape)
        n_writes = 0
        out_layout = gs[spec.output].layout
        lo = out_layout.base_addr // 64
        hi = (out_layout.base_addr + out_layout.size_bytes) // 64
        for lines, writes in sweep_stream(spec, gs, KernelPlan(block=shape)):
            written = lines[writes]
            n_writes += len(written)
            assert np.all((written >= lo) & (written <= hi))
        assert n_writes > 0

    def test_z_range_restricts(self):
        spec = get_stencil("3d7pt")
        shape = (8, 4, 16)
        gs = GridSet(spec, shape)
        batches = list(row_stream(spec, gs, KernelPlan(block=shape), z_range=(2, 5)))
        assert len(batches) == 3 * 4

    def test_all_input_lines_touched(self):
        spec = get_stencil("3d7pt")
        shape = (6, 6, 16)
        gs = GridSet(spec, shape)
        touched = set()
        for lines, _ in sweep_stream(spec, gs, KernelPlan(block=shape)):
            touched.update(lines.tolist())
        # Every interior line of the input grid must appear.
        u = gs["u"]
        halo = u.halo
        for z in range(6):
            for y in range(6):
                addr = u.layout.element_addr((z + halo, y + halo, halo))
                assert addr // 64 in touched


class TestTrafficPlausibility:
    def test_memory_traffic_at_least_compulsory(self):
        spec = get_stencil("3d7pt")
        shape = (16, 16, 32)
        gs = GridSet(spec, shape)
        m = generic_avx2()
        rep = measure_sweep(spec, gs, KernelPlan(block=shape), m, warmup=False)
        mem_bytes = rep.total_lines(len(rep.loads) - 1) * 64
        # At least one read of u and one write(+WA) of u_new.
        lups = 16 * 16 * 32
        assert mem_bytes >= 2 * lups * 8 * 0.9

    def test_warm_traffic_is_steady_state(self):
        # A warm sweep must reproduce exactly (steady state) and stay
        # near the code balance: 24 B/LUP plus modest halo overhead.
        # (Cold runs *under*-count: the final dirty lines never flush.)
        spec = get_stencil("3d7pt")
        shape = (12, 12, 32)
        gs = GridSet(spec, shape)
        m = generic_avx2()
        warm1 = measure_sweep(spec, gs, KernelPlan(block=shape), m, warmup=True)
        warm2 = measure_sweep(spec, gs, KernelPlan(block=shape), m, warmup=True)
        assert warm1.memory_bytes() == warm2.memory_bytes()
        b_per_lup = warm1.bytes_per_lup(len(warm1.loads) - 1)
        assert 24.0 * 0.95 <= b_per_lup <= 24.0 * 1.6

    def test_blocking_reduces_traffic_for_tall_grids(self):
        # With planes larger than cache, y-blocking must cut L2 misses.
        spec = get_stencil("3d13pt")
        shape = (12, 48, 64)
        gs = GridSet(spec, shape)
        m = generic_avx2()
        unblocked = measure_sweep(spec, gs, KernelPlan(block=shape), m)
        blocked = measure_sweep(spec, gs, KernelPlan(block=(12, 8, 64)), m)
        assert blocked.memory_bytes() < unblocked.memory_bytes()

    def test_report_as_dict_keys(self):
        spec = get_stencil("3d7pt")
        shape = (8, 8, 16)
        gs = GridSet(spec, shape)
        rep = measure_sweep(spec, gs, KernelPlan(block=shape), generic_avx2())
        d = rep.as_dict()
        assert "L1-L2 lines" in d and "lups" in d
