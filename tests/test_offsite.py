"""Offsite tests: kernels, variants, numerics, prediction, ranking."""

from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cachesim.lru import replay_reference
from repro.codegen import KernelPlan
from repro.codegen.plan import candidate_blocks
from repro.ecm import boundary_traffic
from repro.machine import cascade_lake_sp, generic_avx2, rome
from repro.ode import HeatND, PIRK, lobatto_iiic, radau_iia
from repro.offsite import (
    CompositeKernel,
    OffsiteTuner,
    ReadStream,
    VariantGrids,
    WriteStream,
    execute_variant_step,
    measure_kernel,
    pirk_variants,
    predict_kernel,
)
from repro.offsite.composite import kernel_stream
from repro.offsite.tuner import kendall_tau, rank_variants
from repro.stencil.builders import star


class TestCompositeKernel:
    def test_validation_rules(self):
        with pytest.raises(ValueError):
            CompositeKernel("k", (), (), 1.0)  # no writes
        with pytest.raises(ValueError):
            CompositeKernel(
                "k",
                (ReadStream("a"), ReadStream("a")),
                (WriteStream("out"),),
                1.0,
            )
        with pytest.raises(ValueError):
            # Read grid not marked also_read on its write stream.
            CompositeKernel(
                "k", (ReadStream("a"),), (WriteStream("a"),), 1.0
            )

    def test_min_memory_traffic(self):
        k = CompositeKernel(
            "k",
            (ReadStream("u", 1, 3), ReadStream("acc")),
            (WriteStream("acc", also_read=True), WriteStream("out")),
            10.0,
        )
        # reads: 2 streams; acc WB: 1; out: 2 -> 5 elements.
        assert k.min_memory_bytes_per_lup() == 40.0

    def test_star_access_counts(self):
        r = ReadStream("u", 2, 3)
        assert r.n_accesses() == 13
        assert ReadStream("y").n_accesses() == 1


class TestSharedLayerConditions:
    """Composite kernels and stencils share one layer-condition model."""

    @pytest.mark.parametrize("scale", [1.0, 1 / 32])
    @pytest.mark.parametrize(
        "preset", [cascade_lake_sp, rome, generic_avx2],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize("radius", [1, 2, 4])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_star_kernel_matches_stencil(self, dim, radius, preset, scale):
        machine = preset().scaled_caches(scale)
        spec = star(dim, radius)
        kernel = CompositeKernel(
            "star", (ReadStream("u", radius, dim),), (WriteStream("out"),),
            float(spec.flops),
        )
        shape = (48, 64) if dim == 2 else (24, 40, 64)
        for block in candidate_blocks(shape):
            plan = KernelPlan(block=block)
            pred = predict_kernel(kernel, shape, plan, machine, dim=dim)
            assert pred.traffic == boundary_traffic(spec, shape, plan, machine)


class TestOneDimensional:
    """A 1D read stream is one row, whatever its radius."""

    def setup_method(self):
        self.machine = cascade_lake_sp().scaled_caches(1 / 32)
        self.shape = (65536,)

    def test_rhs_bytes_match_simulation(self):
        kernel = pirk_variants(2, dim=1, radius=1)[0].kernels[0][0]  # rhs
        plan = KernelPlan(block=self.shape)
        pred = predict_kernel(kernel, self.shape, plan, self.machine, dim=1)
        grids = VariantGrids(kernel.grids, self.shape, halo=1)
        _, traffic = measure_kernel(kernel, grids, plan, self.machine, dim=1)
        assert pred.traffic.bytes_per_lup(8) == (24.0,) * 3
        for k in range(len(traffic.loads)):
            assert traffic.bytes_per_lup(k) == pytest.approx(24.0, rel=1e-3)

    def test_rank_errors_within_five_percent(self):
        report = rank_variants(
            "radau_iia", 2, 1, self.shape, "clx", cache_scale=1 / 32
        )
        assert len(report.timings) == 4
        for timing in report.timings:
            assert abs(timing.error_pct) < 5.0


class TestVariants:
    def test_four_variants(self):
        variants = pirk_variants(4)
        assert sorted(v.name for v in variants) == [
            "fused_lc", "gather", "scatter", "split",
        ]

    def test_sweep_counts(self):
        by_name = {v.name: v for v in pirk_variants(4)}
        assert by_name["split"].sweeps_per_iteration() == 8
        assert by_name["fused_lc"].sweeps_per_iteration() == 5
        assert by_name["scatter"].sweeps_per_iteration() == 4
        assert by_name["gather"].sweeps_per_iteration() == 4

    def test_gather_has_redundant_flops(self):
        by_name = {v.name: v for v in pirk_variants(4)}
        assert (
            by_name["gather"].flops_per_lup_iteration()
            > by_name["split"].flops_per_lup_iteration()
        )

    def test_min_traffic_ordering(self):
        # Fusing the linear combination must not increase minimum traffic.
        by_name = {v.name: v for v in pirk_variants(4)}
        assert (
            by_name["fused_lc"].min_memory_bytes_per_iteration()
            <= by_name["split"].min_memory_bytes_per_iteration()
        )


class TestVariantNumerics:
    @pytest.mark.parametrize("variant", ["split", "fused_lc", "scatter", "gather"])
    @pytest.mark.parametrize("tableau_factory", [lambda: radau_iia(3), lambda: lobatto_iiic(3)])
    def test_variants_match_pirk(self, variant, tableau_factory):
        tab = tableau_factory()
        ivp = HeatND(2, 10, t_end=0.001)
        method = PIRK(tab, 2)
        ref = method.step(ivp.rhs, 0.0, ivp.y0, 1e-5)
        got = execute_variant_step(variant, tab, 2, ivp.rhs, 0.0, ivp.y0, 1e-5)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-15)

    def test_unknown_variant(self):
        with pytest.raises(KeyError):
            execute_variant_step("nope", radau_iia(2), 1, lambda t, y: y, 0.0,
                                 np.zeros(3), 0.1)

    def test_zero_correctors_rejected(self):
        with pytest.raises(ValueError):
            execute_variant_step("split", radau_iia(2), 0, lambda t, y: y,
                                 0.0, np.zeros(3), 0.1)


class TestPredictMeasure:
    def setup_method(self):
        self.machine = cascade_lake_sp().scaled_caches(1 / 32)
        self.shape = (16, 16, 32)
        self.plan = KernelPlan(block=self.shape)

    def test_prediction_close_to_measurement(self):
        kernel = pirk_variants(4)[0].kernels[0][0]  # the rhs kernel
        pred = predict_kernel(kernel, self.shape, self.plan, self.machine)
        grids = VariantGrids(kernel.grids, self.shape, halo=1)
        cycles, _ = measure_kernel(kernel, grids, self.plan, self.machine)
        assert pred.cycles_per_lup == pytest.approx(cycles, rel=0.35)

    @pytest.mark.parametrize("variant", range(4))
    def test_coalesced_replay_matches_scalar_rows(self, variant):
        # The batched engine replays joined row batches; the per-access
        # reference replays them one row at a time.
        kernel = pirk_variants(4)[variant].kernels[-1][0]
        grids = VariantGrids(kernel.grids, self.shape, halo=1)
        plan = KernelPlan(block=(4, 8, 32))
        _, traffic = measure_kernel(
            kernel, grids, plan, self.machine, traffic_cache=None
        )
        reference = replay_reference(
            self.machine, lambda: kernel_stream(kernel, grids, plan, 3),
            lups=prod(self.shape),
        )
        assert traffic.as_dict() == reference.as_dict()

    def test_more_streams_cost_more(self):
        variants = {v.name: v for v in pirk_variants(4)}
        lc = variants["split"].kernels[1][0]
        rhs = variants["split"].kernels[0][0]
        p_lc = predict_kernel(lc, self.shape, self.plan, self.machine)
        p_rhs = predict_kernel(rhs, self.shape, self.plan, self.machine)
        assert p_lc.mem_bytes_per_lup > p_rhs.mem_bytes_per_lup


class TestTuner:
    def test_ranking_report(self):
        machine = cascade_lake_sp().scaled_caches(1 / 32)
        method = PIRK(radau_iia(4), 3)
        report = OffsiteTuner(machine).tune(method, (16, 16, 32), validate=True)
        assert len(report.timings) == 4
        assert report.kendall_tau is not None
        assert report.kendall_tau > 0.3
        assert report.best_predicted().predicted_s > 0

    def test_validate_false_runs_nothing(self):
        machine = cascade_lake_sp().scaled_caches(1 / 32)
        method = PIRK(radau_iia(4), 2)
        report = OffsiteTuner(machine).tune(method, (12, 12, 16), validate=False)
        assert report.kendall_tau is None
        assert all(t.measured_s is None for t in report.timings)
        assert report.measure_seconds < 0.2


class TestKendallTau:
    def test_identical_orders(self):
        assert kendall_tau(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_reversed_orders(self):
        assert kendall_tau(["a", "b", "c"], ["c", "b", "a"]) == -1.0

    def test_mismatched_items_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau(["a"], ["b"])

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(["a", "b", "c", "d", "e"]))
    def test_bounds(self, perm):
        tau = kendall_tau(list(perm), ["a", "b", "c", "d", "e"])
        assert -1.0 <= tau <= 1.0


class TestTwoDimensional:
    def test_2d_ranking_works(self):
        machine = cascade_lake_sp().scaled_caches(1 / 32)
        method = PIRK(radau_iia(3), 2)
        report = OffsiteTuner(machine).tune(
            method, (48, 64), dim=2, validate=True, seed=9
        )
        assert len(report.timings) == 4
        assert report.kendall_tau is not None
        assert report.kendall_tau >= 0.3

    def test_2d_composite_prediction(self):
        from repro.codegen import KernelPlan

        machine = cascade_lake_sp().scaled_caches(1 / 32)
        kernel = pirk_variants(3, dim=2)[0].kernels[0][0]
        pred = predict_kernel(
            kernel, (48, 64), KernelPlan(block=(48, 64)), machine, dim=2
        )
        assert pred.cycles_per_lup > 0


class TestSelectKernelBlock:
    def test_block_selection_for_stencil_kernel(self):
        from repro.offsite.composite import select_kernel_block

        machine = cascade_lake_sp().scaled_caches(1 / 32)
        kernel = pirk_variants(4)[3].kernels[0][0]  # gather: 4 stencil reads
        plan = select_kernel_block(kernel, (48, 48, 64), machine)
        # Heavy multi-stencil kernel on tiny caches: y must be blocked.
        assert plan.block[1] < 48
        assert plan.block[-1] == 64

    def test_streaming_kernel_prefers_full_blocks(self):
        from repro.offsite.composite import select_kernel_block
        from repro.offsite.kernels import CompositeKernel, ReadStream, WriteStream

        machine = cascade_lake_sp().scaled_caches(1 / 32)
        kernel = CompositeKernel(
            "axpy", (ReadStream("x"), ReadStream("y0")),
            (WriteStream("out"),), 2.0,
        )
        plan = select_kernel_block(kernel, (48, 48, 64), machine)
        # Pure streams have no reuse to protect: ties resolve to the
        # largest block volume.
        assert plan.block == (48, 48, 64)
