"""Edge-case tests for the performance simulator and traffic reports."""

import numpy as np
import pytest

from repro.cachesim import CacheHierarchy, sweep_stream
from repro.cachesim.lru import row_stream
from repro.codegen import KernelPlan
from repro.grid import GridSet
from repro.machine import generic_avx2
from repro.perf.simulate import (
    Measurement,
    simulate_kernel,
    simulate_traffic_time,
)
from repro.stencil import get_stencil


class TestMeasurement:
    def test_runtime_scales_linearly_with_lups(self, generic):
        spec = get_stencil("3d7pt")
        gs = GridSet(spec, (8, 8, 16))
        m = simulate_kernel(spec, gs, KernelPlan(block=(8, 8, 16)), generic)
        assert m.runtime_seconds(2000) == pytest.approx(
            2 * m.runtime_seconds(1000)
        )

    def test_traffic_time_requires_lups(self, generic):
        h = CacheHierarchy(generic)
        rep = h.report(lups=0)
        with pytest.raises(ValueError):
            simulate_traffic_time(rep, generic)

    def test_traffic_time_grows_with_contention(self, generic):
        spec = get_stencil("3d7pt")
        gs = GridSet(spec, (8, 8, 16))
        h = CacheHierarchy(generic)
        for lines, writes in sweep_stream(spec, gs, KernelPlan(block=(8, 8, 16))):
            h.access_many(lines, writes)
        rep = h.report(lups=8 * 8 * 16)
        t1 = simulate_traffic_time(rep, generic, n_cores=1)
        t4 = simulate_traffic_time(rep, generic, n_cores=4)
        assert t4 > t1

    def test_plan_label_recorded(self, generic):
        spec = get_stencil("3d7pt")
        gs = GridSet(spec, (8, 8, 16))
        m = simulate_kernel(spec, gs, KernelPlan(block=(4, 4, 16)), generic)
        assert "b=4x4x16" in m.plan_label
        assert m.machine_name == generic.name


class TestStreamEdges:
    def test_empty_z_range(self, generic):
        spec = get_stencil("3d7pt")
        gs = GridSet(spec, (8, 8, 16))
        batches = list(
            sweep_stream(spec, gs, KernelPlan(block=(8, 8, 16)), z_range=(3, 3))
        )
        assert batches == []

    def test_z_range_outside_grid(self, generic):
        spec = get_stencil("3d7pt")
        gs = GridSet(spec, (8, 8, 16))
        batches = list(
            row_stream(
                spec, gs, KernelPlan(block=(8, 8, 16)), z_range=(0, 100)
            )
        )
        # Clipped to the grid: same as a full sweep.
        assert len(batches) == 8 * 8

    def test_single_row_grid(self, generic):
        spec = get_stencil("2d5pt")
        gs = GridSet(spec, (1, 16))
        batches = list(sweep_stream(spec, gs, KernelPlan(block=(1, 16))))
        assert len(batches) == 1
        lines, writes = batches[0]
        assert writes.any() and not writes.all()

    def test_blocked_and_unblocked_touch_same_lines(self, generic):
        spec = get_stencil("3d13pt")
        gs = GridSet(spec, (8, 8, 16))
        def all_lines(plan):
            touched = set()
            for lines, _ in sweep_stream(spec, gs, plan):
                touched.update(lines.tolist())
            return touched

        full = all_lines(KernelPlan(block=(8, 8, 16)))
        blocked = all_lines(KernelPlan(block=(4, 2, 16)))
        assert full == blocked
